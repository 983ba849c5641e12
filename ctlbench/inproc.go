package main

import (
	"runtime"
	"time"

	"github.com/plcwifi/wolt/internal/city"
	"github.com/plcwifi/wolt/internal/control"
	"github.com/plcwifi/wolt/internal/shard"
)

// Operation kinds the caller times.
const (
	kJoin = iota
	kUpdate
	kLeave
	kStats
	numKinds
)

var kindNames = [numKinds]string{"join", "update", "leave", "stats"}

// minSetups is the number of set-ups every run times, at least, for the
// setup_s median.
const minSetups = 5

// tally accumulates one run's measurements. A run runs distinct
// instances of the workload, each its own trace on a freshly set-up
// plane, until its measuring time is spent, then repeats the first.
type tally struct {
	lat        [numKinds][]float64 // µs per operation, per kind
	cuts       [][numKinds]int     // len(lat[k]) at each instance run's start, and at the end
	inst       []instStat
	attempted  int           // operations the traces hold, polls included
	failed     int           // attempted operations that did not complete
	spans      time.Duration // time inside plane calls
	wall       time.Duration // timed phase over all repeats
	setups     []float64     // s, whole set-up per repeat
	citySetups []float64     // s, city.New per repeat
	heapMiB    float64
	mem        memDelta
	ck         checkErr
}

// instStat is one instance's measurements: counts from its first
// repeat, timings and objective per repeat.
type instStat struct {
	ops, moves, dirs int       // join/update/leave operations, reassociations, directives
	wall, cpu        []float64 // s per repeat, set-up and checks excluded
	agg, geo         []float64 // objective per repeat
	aggGain, geoGain []float64 // objective over the strongest-rate association's
}

// repStat is what one repeat adds to its instance.
type repStat struct {
	ops, moves, dirs int
	wall, cpu        time.Duration
	agg, geo         float64
	aggGain, geoGain float64
}

// add records a repeat; on in-process workloads repeats of one instance
// must reproduce its deterministic outputs bit for bit.
func (t *tally) add(i int, r repStat, deterministic bool) {
	s := &t.inst[i]
	switch {
	case len(s.wall) == 0:
		s.ops, s.moves, s.dirs = r.ops, r.moves, r.dirs
	case deterministic && (r.ops != s.ops || r.agg != s.agg[0] || r.geo != s.geo[0] || r.moves != s.moves || r.dirs != s.dirs):
		t.ck.failf("instance %d repeat: ops/objective/moves/directives %d/%v/%v/%d/%d differ from the first repeat's %d/%v/%v/%d/%d",
			i, r.ops, r.agg, r.geo, r.moves, r.dirs, s.ops, s.agg[0], s.geo[0], s.moves, s.dirs)
	}
	s.wall = append(s.wall, r.wall.Seconds())
	s.cpu = append(s.cpu, r.cpu.Seconds())
	s.agg = append(s.agg, r.agg)
	s.geo = append(s.geo, r.geo)
	s.aggGain = append(s.aggGain, r.aggGain)
	s.geoGain = append(s.geoGain, r.geoGain)
}

func (t *tally) timed(kind int, t0 time.Time) {
	d := time.Since(t0)
	t.spans += d
	t.lat[kind] = append(t.lat[kind], float64(d.Nanoseconds())/1e3)
}

// repeat calls rep for instances 0, 1, 2, ... until d is spent, at
// least once, then for instance 0 again (again is true): in process that
// repeat must reproduce the first bit for bit, and the traced run
// compares it with its captured first run. Many distinct instances, not
// repeats of a few, keep a run's figures from hanging on a few traces.
// It stops at the first repeat that fails.
func (t *tally) repeat(d time.Duration, rep func(i int, again bool) bool) {
	defer t.cut()
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < d; i++ {
		t.inst = append(t.inst, instStat{})
		t.cut()
		if !rep(i, false) {
			return
		}
	}
	t.cut()
	rep(0, true)
}

// cut marks where the next instance run's latency samples begin.
func (t *tally) cut() {
	var c [numKinds]int
	for k := range t.lat {
		c[k] = len(t.lat[k])
	}
	t.cuts = append(t.cuts, c)
}

// runPercentile is the median over instance runs of each run's
// q-quantile of the given kinds' latencies, over the runs whose samples
// the sample-count rule admits; ok is false when none does. A median of
// per-run figures, unlike one percentile of the pooled samples, is not
// moved by a minority of runs that a noisy neighbour slowed down.
func (t *tally) runPercentile(q float64, kinds ...int) (float64, bool) {
	var per []float64
	for r := 0; r+1 < len(t.cuts); r++ {
		var xs []float64
		for _, k := range kinds {
			xs = append(xs, t.lat[k][t.cuts[r][k]:t.cuts[r+1][k]]...)
		}
		if x, ok := percentile(xs, q); ok {
			per = append(per, x)
		}
	}
	return median(per), len(per) > 0
}

// memDelta is the allocation work of the timed phase.
type memDelta struct {
	mallocs, bytes uint64
	gcs            uint32
}

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func (m *memDelta) add(a, b *runtime.MemStats) {
	m.mallocs += b.Mallocs - a.Mallocs
	m.bytes += b.TotalAlloc - a.TotalAlloc
	m.gcs += b.NumGC - a.NumGC
}

// capOp is one operation captured during a traced repeat, replayed later
// into the lower layers.
type capOp struct {
	kind  int
	id    int
	rates []float64 // nil for leaves and polls
}

// checkpointEvery is the period, in stats polls, at which the caller
// scores the coordinator's assignment during a trace.
const checkpointEvery = 4

// probe is the city.Plane the in-process workloads drive: it forwards
// each operation to the coordinator, times it, keeps the caller's book,
// polls the coordinator's stats every statsEvery operations and scores
// the assignment every checkpointEvery polls.
type probe struct {
	coord   *shard.Coordinator
	caps    []float64
	t       *tally
	b       book
	ops     int
	polls   int
	capture *[]capOp
	paused  pause // caller time spent scoring, excluded from the timings
	scores  scores
}

// pause accumulates the wall and CPU time the caller spends on its own
// checks inside a timed phase.
type pause struct{ wall, cpu time.Duration }

// run times f as caller time.
func (p *pause) run(f func()) {
	c0, t0 := cpuTime(), time.Now()
	f()
	p.wall += time.Since(t0)
	p.cpu += cpuTime() - c0
}

// score evaluates the objective of the caller's book (which equals the
// controller's view; the final check compares them).
func (p *probe) score() {
	p.paused.run(func() {
		rates, a := p.b.network()
		p.scores.add(p.caps, rates, a, &p.t.ck)
	})
}

func (p *probe) record(kind, id int, rates []float64) {
	if p.capture != nil {
		var r []float64
		if rates != nil {
			r = append([]float64(nil), rates...)
		}
		*p.capture = append(*p.capture, capOp{kind: kind, id: id, rates: r})
	}
}

// after counts a completed operation and runs the periodic stats poll.
func (p *probe) after() {
	p.ops++
	if p.ops%statsEvery != 0 {
		return
	}
	t0 := time.Now()
	st := p.coord.Stats()
	p.t.timed(kStats, t0)
	p.polls++
	p.record(kStats, 0, nil)
	if st.Users != p.b.users {
		p.t.ck.failf("stats poll: controller counts %d users, caller %d", st.Users, p.b.users)
	}
	if p.polls%checkpointEvery == 0 {
		p.score()
	}
}

func (p *probe) Join(id int, rates, rssi []float64) ([]control.Directive, error) {
	t0 := time.Now()
	dirs, err := p.coord.Join(id, rates, rssi)
	p.t.timed(kJoin, t0)
	if err != nil {
		return nil, err
	}
	p.record(kJoin, id, rates)
	p.b.join(id, rates)
	p.b.apply(dirs, &p.t.ck)
	p.after()
	return dirs, nil
}

func (p *probe) Update(id int, rates, rssi []float64) ([]control.Directive, error) {
	t0 := time.Now()
	dirs, err := p.coord.Update(id, rates, rssi)
	p.t.timed(kUpdate, t0)
	if err != nil {
		return nil, err
	}
	p.record(kUpdate, id, rates)
	p.b.update(id, rates)
	p.b.apply(dirs, &p.t.ck)
	p.after()
	return dirs, nil
}

func (p *probe) Leave(id int) ([]control.Directive, bool) {
	t0 := time.Now()
	dirs, ok := p.coord.Leave(id)
	p.t.timed(kLeave, t0)
	if !ok {
		return nil, false
	}
	p.record(kLeave, id, nil)
	p.b.leave(id)
	p.b.apply(dirs, &p.t.ck)
	p.after()
	return dirs, true
}

// counter is a city.Plane that only counts: it sizes an aborted trace.
type counter struct{ ops int }

func (c *counter) Join(id int, _, _ []float64) ([]control.Directive, error) {
	c.ops++
	return nil, nil
}

func (c *counter) Update(int, []float64, []float64) ([]control.Directive, error) {
	c.ops++
	return nil, nil
}

func (c *counter) Leave(int) ([]control.Directive, bool) {
	c.ops++
	return nil, true
}

// runInprocRep sets up a city and its coordinator, drives the whole
// trace through them and checks the outputs. capture, when non-nil,
// receives every operation for the traced replays. The coordinator is
// returned for the live-heap reading.
func runInprocRep(cfg city.Config, t *tally, i int, capture *[]capOp) (*shard.Coordinator, bool) {
	t0 := time.Now()
	c, err := city.New(cfg)
	if err != nil {
		t.ck.failf("city: %v", err)
		return nil, false
	}
	t.citySetups = append(t.citySetups, time.Since(t0).Seconds())
	coord, err := c.NewCoordinator()
	if err != nil {
		t.ck.failf("coordinator: %v", err)
		return nil, false
	}
	t.setups = append(t.setups, time.Since(t0).Seconds())

	p := &probe{coord: coord, caps: c.PLCCaps(), t: t, capture: capture}
	m0 := readMem()
	c0, w0 := cpuTime(), time.Now()
	res, err := c.Run(p)
	wall, cpu := time.Since(w0)-p.paused.wall, cpuTime()-c0-p.paused.cpu
	m1 := readMem()
	t.mem.add(&m0, &m1)
	t.wall += wall
	if err != nil {
		// The first plane error aborts the trace: every operation it
		// did not complete counts as failed.
		var n counter
		if _, cerr := c.Run(&n); cerr != nil {
			t.ck.failf("sizing aborted trace: %v", cerr)
		}
		total := n.ops + n.ops/statsEvery
		t.attempted += total
		t.failed += total - p.ops - p.polls
		t.ck.failf("plane: %v", err)
		return nil, false
	}
	t.attempted += p.ops + p.polls

	ck := &t.ck
	if res.Events != p.ops || res.Joins+res.Updates+res.Leaves != p.ops {
		ck.failf("trace holds %d events, caller completed %d", res.Events, p.ops)
	}
	st := checkCoordinator(coord, &p.b, ck)
	if st.Users != res.FinalUsers || st.Joins != res.Joins || st.Leaves != res.Leaves {
		ck.failf("controller counts users/joins/leaves %d/%d/%d, trace %d/%d/%d",
			st.Users, st.Joins, st.Leaves, res.FinalUsers, res.Joins, res.Leaves)
	}
	if st.Reassociations != p.b.moves {
		ck.failf("controller counts %d reassociations, directives %d", st.Reassociations, p.b.moves)
	}
	p.score()
	r := repStat{ops: p.ops, moves: p.b.moves, dirs: p.b.dirs, wall: wall, cpu: cpu}
	p.scores.fill(&r)
	t.add(i, r, true)
	return coord, true
}

// extraInprocSetup times one more set-up without running the trace, for
// runs whose repeats were too few for the setup_s median.
func extraInprocSetup(cfg city.Config, t *tally) {
	t0 := time.Now()
	c, err := city.New(cfg)
	if err != nil {
		t.ck.failf("city: %v", err)
		return
	}
	t.citySetups = append(t.citySetups, time.Since(t0).Seconds())
	if _, err := c.NewCoordinator(); err != nil {
		t.ck.failf("coordinator: %v", err)
		return
	}
	t.setups = append(t.setups, time.Since(t0).Seconds())
}
