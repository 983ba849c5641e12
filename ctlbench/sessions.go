package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/plcwifi/wolt/internal/city"
	"github.com/plcwifi/wolt/internal/control"
	"github.com/plcwifi/wolt/internal/model"
	"github.com/plcwifi/wolt/internal/shard"
)

// rpcTimeout bounds one agent's wait for a directive or a stats reply.
const rpcTimeout = 10 * time.Second

// script is one agent session's inputs, taken from the city trace: the
// user's ID and its scan when it arrived. The session's scan update
// re-sends that scan (a stationary refresh): a roamed scan can leave the
// user's extender out of reach, which the engine rejects today (see the
// roam workload).
type script struct {
	id   int
	scan []float64
}

// recorder is the city.Plane that turns a trace's arrivals into session
// scripts.
type recorder struct {
	scripts []script
	limit   int
}

func (r *recorder) Join(id int, rates, _ []float64) ([]control.Directive, error) {
	if len(r.scripts) < r.limit {
		r.scripts = append(r.scripts, script{id: id, scan: append([]float64(nil), rates...)})
	}
	return nil, nil
}

func (r *recorder) Update(int, []float64, []float64) ([]control.Directive, error) {
	return nil, nil
}

func (r *recorder) Leave(int) ([]control.Directive, bool) { return nil, true }

// loopback is one repeat's set-up: the scripts and the member servers.
type loopback struct {
	city    *city.City
	plane   *shard.Plane
	ownerOf []int
	scripts []script
}

// setupLoopback builds the city, turns its trace into n session scripts
// and starts every shard member on a loopback port.
func setupLoopback(cfg city.Config, n int, t *tally) (*loopback, error) {
	t0 := time.Now()
	c, err := city.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("city: %w", err)
	}
	t.citySetups = append(t.citySetups, time.Since(t0).Seconds())
	rec := &recorder{limit: n}
	if _, err := c.Run(rec); err != nil {
		return nil, fmt.Errorf("record sessions: %w", err)
	}
	if len(rec.scripts) < n {
		return nil, fmt.Errorf("trace holds %d sessions, need %d", len(rec.scripts), n)
	}
	plane, err := shard.Listen(shard.PlaneConfig{
		Addr: "127.0.0.1:0", Member: -1, Shards: cfg.Shards,
		PLCCaps: c.PLCCaps(), Policy: cfg.Policy, Seed: cfg.Seed,
		Budget: cfg.Budget, ReassignOnLeave: cfg.ReassignOnLeave,
		PlacementOnlyJoins: cfg.PlacementOnlyJoins,
	})
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	t.setups = append(t.setups, time.Since(t0).Seconds())
	return &loopback{
		city: c, plane: plane, scripts: rec.scripts,
		ownerOf: shard.OwnerMapFor(cfg.Seed, cfg.Shards, 0, c.NumExtenders()),
	}, nil
}

// session is one open agent connection.
type session struct {
	s      script
	agent  *control.Agent
	member int
}

// sessionRunner drives one repeat's sessions through a loopback plane.
type sessionRunner struct {
	lb      *loopback
	t       *tally
	b       book
	ops     int
	polls   int
	dirs    int
	moves   int
	capture *[]capOp
	open    []*session
	scores  scores // objective per stats reply
	paused  pause  // caller time spent checking replies
}

func (r *sessionRunner) record(kind, id int, rates []float64) {
	if r.capture != nil {
		*r.capture = append(*r.capture, capOp{kind: kind, id: id, rates: rates})
	}
}

// start dials the member owning the user's best extender and joins;
// the join is timed from dial to directive.
func (r *sessionRunner) start(s script) error {
	best := shard.BestExtender(s.scan)
	if best < 0 {
		return fmt.Errorf("user %d reaches no extender", s.id)
	}
	member := r.lb.ownerOf[best]
	t0 := time.Now()
	a, err := control.DialCodec(r.lb.plane.Addrs()[member], s.id, control.CodecBinary)
	if err != nil {
		return fmt.Errorf("dial for user %d: %w", s.id, err)
	}
	ext, err := a.Join(s.scan, nil, rpcTimeout)
	r.t.timed(kJoin, t0)
	if err != nil {
		_ = a.Close()
		return fmt.Errorf("join user %d: %w", s.id, err)
	}
	r.ops++
	r.record(kJoin, s.id, s.scan)
	if ext < 0 || ext >= len(s.scan) || s.scan[ext] <= 0 || r.lb.ownerOf[ext] != member {
		r.t.ck.failf("user %d joined member %d on extender %d it cannot reach or the member does not own", s.id, member, ext)
	}
	r.b.join(s.id, s.scan)
	r.b.ext[s.id] = ext
	r.open = append(r.open, &session{s: s, agent: a, member: member})
	return nil
}

// finish runs the oldest open session's scan update, stats request and
// leave.
func (r *sessionRunner) finish() error {
	ss := r.open[0]
	r.open = r.open[1:]
	a, id := ss.agent, ss.s.id

	t0 := time.Now()
	err := a.UpdateScan(ss.s.scan, nil)
	r.t.timed(kUpdate, t0)
	if err != nil {
		_ = a.Close()
		return fmt.Errorf("update user %d: %w", id, err)
	}
	r.ops++
	r.record(kUpdate, id, ss.s.scan)
	r.b.update(id, ss.s.scan)

	// The member handles one connection's messages in order, so the
	// reply reflects the update.
	t0 = time.Now()
	st, err := a.Stats(rpcTimeout)
	r.t.timed(kStats, t0)
	if err != nil {
		_ = a.Close()
		return fmt.Errorf("stats for user %d: %w", id, err)
	}
	r.polls++
	r.record(kStats, id, nil)
	if err := a.Err(); err != nil {
		_ = a.Close()
		return fmt.Errorf("update user %d rejected: %w", id, err)
	}
	r.paused.run(func() { r.checkSnapshot(ss, st) })

	t0 = time.Now()
	err = a.Leave()
	r.t.timed(kLeave, t0)
	r.dirs += a.Directives()
	r.moves += a.Moves()
	if err != nil {
		return fmt.Errorf("leave user %d: %w", id, err)
	}
	r.ops++
	r.record(kLeave, id, nil)
	r.b.leave(id)
	return nil
}

// checkSnapshot checks a member's stats reply against the open sessions
// and scores the assignment it reports for them.
func (r *sessionRunner) checkSnapshot(ss *session, st control.Stats) {
	ck := &r.t.ck
	id := ss.s.id
	ext, ok := st.Assignment[id]
	if !ok {
		ck.failf("member %d's stats omit its open user %d", ss.member, id)
		return
	}
	if ext < 0 || ext >= len(ss.s.scan) || ss.s.scan[ext] <= 0 || r.lb.ownerOf[ext] != ss.member {
		ck.failf("user %d on extender %d it cannot reach or member %d does not own", id, ext, ss.member)
	}
	// Score the open sessions' users only: a departed user's leave may
	// still be in flight on its own connection.
	var rates [][]float64
	var a model.Assignment
	for _, u := range sortedKeys(st.Assignment) {
		if u < 0 || u >= len(r.b.ext) {
			ck.failf("member %d reports unknown user %d", ss.member, u)
			continue
		}
		if r.b.ext[u] != model.Unassigned {
			rates = append(rates, r.b.scans[u])
			a = append(a, st.Assignment[u])
		}
	}
	r.scores.add(r.lb.city.PLCCaps(), rates, a, ck)
}

// runSessionsRep runs one repeat: n sessions back to back, at most depth
// of them open at once, then waits for the members to drain and checks
// their counters. The members are returned for the live-heap reading.
func runSessionsRep(w workload, cfg city.Config, depth int, t *tally, i int, capture *[]capOp) (*loopback, bool) {
	n := w.sessionsPerRep
	lb, err := setupLoopback(cfg, n, t)
	if err != nil {
		t.ck.failf("set-up: %v", err)
		return nil, false
	}
	r := &sessionRunner{lb: lb, t: t, capture: capture}
	m0 := readMem()
	c0, w0 := cpuTime(), time.Now()
	err = r.drive(depth)
	wall, cpu := time.Since(w0)-r.paused.wall, cpuTime()-c0-r.paused.cpu
	m1 := readMem()
	t.mem.add(&m0, &m1)
	t.wall += wall
	total := 4 * n // join, update, stats, leave per session
	t.attempted += total
	if err != nil {
		t.failed += total - r.ops - r.polls
		t.ck.failf("sessions: %v", err)
		for _, s := range r.open {
			_ = s.agent.Close()
		}
		_ = lb.plane.Close()
		return nil, false
	}
	r.checkDrained(n)
	rs := repStat{ops: r.ops, moves: r.moves, dirs: r.dirs, wall: wall, cpu: cpu}
	r.scores.fill(&rs)
	t.add(i, rs, false)
	return lb, true
}

// drive runs the repeat's sessions: each new session joins, then the
// oldest open one finishes once depth sessions are open.
func (r *sessionRunner) drive(depth int) error {
	for _, s := range r.lb.scripts {
		if err := r.start(s); err != nil {
			return err
		}
		if len(r.open) >= depth {
			if err := r.finish(); err != nil {
				return err
			}
		}
	}
	for len(r.open) > 0 {
		if err := r.finish(); err != nil {
			return err
		}
	}
	return nil
}

// checkDrained waits until the members have processed every leave, then
// checks their counters against the sessions run.
func (r *sessionRunner) checkDrained(n int) {
	deadline := time.Now().Add(rpcTimeout)
	st := r.lb.plane.Stats()
	for st.Users > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		st = r.lb.plane.Stats()
	}
	if st.Users != 0 || st.Joins != n || st.Leaves != n {
		r.t.ck.failf("members count users/joins/leaves %d/%d/%d after %d sessions", st.Users, st.Joins, st.Leaves, n)
	}
	if st.Redirects != 0 || st.DroppedPushes != 0 {
		r.t.ck.failf("members count %d redirects and %d dropped pushes", st.Redirects, st.DroppedPushes)
	}
}

// runSessions runs the sessions workload's instances, each on freshly
// started members, until the measuring time is spent.
func runSessions(w workload, base int64, d time.Duration, traced bool) (*tally, map[string]float64) {
	t := &tally{}
	depth := 2
	if runtime.NumCPU() < depth {
		depth = runtime.NumCPU()
	}
	var capture []capOp
	var last *loopback
	ok := true
	t.repeat(d, func(i int, again bool) bool {
		if last != nil {
			_ = last.plane.Close()
		}
		var cp *[]capOp
		if traced && i == 0 && !again {
			cp = &capture
		}
		last, ok = runSessionsRep(w, w.city(instanceSeed(base, i)), depth, t, i, cp)
		return ok
	})
	if !ok {
		return t, map[string]float64{}
	}
	withPlane := heapLiveMiB()
	_ = last.plane.Close()
	last = nil
	t.heapMiB = withPlane - heapLiveMiB()
	for len(t.setups) < minSetups {
		lb, err := setupLoopback(w.city(instanceSeed(base, 0)), w.sessionsPerRep, t)
		if err != nil {
			t.ck.failf("set-up: %v", err)
			break
		}
		_ = lb.plane.Close()
	}
	if !traced {
		return t, nil
	}
	return t, layers(w.city(instanceSeed(base, 0)), t, capture)
}
