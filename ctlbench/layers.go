package main

import (
	"fmt"
	"math"
	"time"

	"github.com/plcwifi/wolt/internal/city"
	"github.com/plcwifi/wolt/internal/control"
	"github.com/plcwifi/wolt/internal/model"
	"github.com/plcwifi/wolt/internal/seed"
	"github.com/plcwifi/wolt/internal/shard"
	"github.com/plcwifi/wolt/internal/strategy"
)

// The traced run's replays: the operations captured on the first
// instance's first repeat are replayed into each lower layer's public
// entry points, and each call is timed from here.
const (
	refreshes      = 64  // scan-refresh updates appended to both replays
	maxSnapshots   = 8   // member snapshots the strategy and model calls use
	minLiveUsers   = 8   // below this, snapshots hold every user a member served
	solveRepeats   = 5   // timed calls per snapshot and call kind
	placeUsers     = 16  // users re-placed per snapshot through Online.Add
	coreMaxUsers   = 200 // users of a snapshot the two-phase solve sees
	transportUsers = 128 // captured joins replayed as loopback sessions
	probeBudget    = 200 // the workloads' hill-climb probe budget
)

// layers runs every per-layer replay on one instance's captured
// operations and returns the per-layer metrics.
func layers(cfg city.Config, t *tally, capture []capOp) map[string]float64 {
	v := map[string]float64{}
	ops := 0
	for _, s := range t.inst {
		for range s.wall {
			ops += s.ops
		}
	}
	if ops == 0 || len(capture) == 0 {
		t.ck.failf("traced run captured no operations")
		return v
	}
	v["city.setup_s"] = median(t.citySetups)
	v["city.gen_us_per_op"] = float64((t.wall - t.spans).Nanoseconds()) / 1e3 / float64(ops)
	v["runtime.allocs_per_op"] = float64(t.mem.mallocs) / float64(ops)
	v["runtime.alloc_bytes_per_op"] = float64(t.mem.bytes) / float64(ops)
	v["runtime.gc_per_kop"] = 1e3 * float64(t.mem.gcs) / float64(ops)
	// Instance 0's first repeat captured its operations; its later
	// repeats ran untraced.
	w0 := t.inst[0].wall
	if len(w0) < 2 {
		t.ck.failf("traced run needs two repeats of instance 0")
		return v
	}
	v["trace.overhead_frac"] = w0[0]/median(w0[1:]) - 1

	c, err := city.New(cfg)
	if err != nil {
		t.ck.failf("city: %v", err)
		return v
	}
	snaps := replayPlanes(c, cfg, capture, v, &t.ck)
	strategyCalls(snaps, v, &t.ck)
	transport(c, cfg, capture, v, &t.ck)
	return v
}

// snapshot is one member's users, projected onto its owned extenders.
type snapshot struct {
	net    *model.Network
	assign model.Assignment
}

// replayPlanes replays the captured operations into a fresh coordinator
// and, routed by shard.OwnerMapFor, into bare member engines, then
// appends scan-refresh updates to both. The two replays must end in
// the same assignment. Member snapshots are captured from the engine
// replay along the way.
func replayPlanes(c *city.City, cfg city.Config, capture []capOp, v map[string]float64, ck *checkErr) []snapshot {
	coord, err := c.NewCoordinator()
	if err != nil {
		ck.failf("coordinator: %v", err)
		return nil
	}
	caps := c.PLCCaps()
	ownerOf := shard.OwnerMapFor(cfg.Seed, cfg.Shards, 0, len(caps))
	owned := make([][]int, cfg.Shards)
	for j, m := range ownerOf {
		owned[m] = append(owned[m], j)
	}
	engines := make([]*control.Engine, cfg.Shards)
	for m := range engines {
		if len(owned[m]) == 0 {
			continue
		}
		engines[m], err = control.NewEngine(control.EngineConfig{
			PLCCaps: caps, Owned: owned[m], Policy: cfg.Policy,
			Workers: cfg.Workers, Seed: seed.Derive(cfg.Seed, seed.ShardEngine, int64(m)),
			Budget: cfg.Budget, ReassignOnLeave: cfg.ReassignOnLeave,
			PlacementOnlyJoins: cfg.PlacementOnlyJoins, FullResolveEvery: cfg.FullResolveEvery,
		})
		if err != nil {
			ck.failf("engine %d: %v", m, err)
			return nil
		}
	}

	home := map[int]int{}
	scans := map[int][]float64{}
	served := make([]map[int]int, cfg.Shards) // member → user → extender at join
	joinScans := map[int][]float64{}
	var engUs, selfUs [numKinds][]float64
	var stats []float64
	dirs, n := 0, 0
	// engineOp runs one operation on the bare engines, routed like the
	// coordinator routes it.
	engineOp := func(op capOp) ([]control.Directive, error) {
		switch op.kind {
		case kJoin:
			m := ownerOf[shard.BestExtender(op.rates)]
			home[op.id] = m
			return engines[m].Join(op.id, op.rates, nil)
		case kUpdate:
			m, to := home[op.id], ownerOf[shard.BestExtender(op.rates)]
			if m == to {
				return engines[m].Update(op.id, op.rates, nil)
			}
			d1, _ := engines[m].Leave(op.id)
			home[op.id] = to
			d2, err := engines[to].Join(op.id, op.rates, nil)
			return append(d1, d2...), err
		default:
			m := home[op.id]
			delete(home, op.id)
			d, ok := engines[m].Leave(op.id)
			if !ok {
				return nil, fmt.Errorf("leave of absent user %d", op.id)
			}
			return d, nil
		}
	}
	coordOp := func(op capOp) error {
		var err error
		switch op.kind {
		case kJoin:
			_, err = coord.Join(op.id, op.rates, nil)
		case kUpdate:
			_, err = coord.Update(op.id, op.rates, nil)
		default:
			if _, ok := coord.Leave(op.id); !ok {
				err = fmt.Errorf("leave of absent user %d", op.id)
			}
		}
		return err
	}
	run := func(op capOp) bool {
		if op.kind == kStats {
			t0 := time.Now()
			coord.Stats()
			stats = append(stats, usSince(t0))
			return true
		}
		t0 := time.Now()
		err := coordOp(op)
		cu := usSince(t0)
		if err != nil {
			ck.failf("coordinator replay: %v", err)
			return false
		}
		t0 = time.Now()
		d, err := engineOp(op)
		eu := usSince(t0)
		if err != nil {
			ck.failf("engine replay: %v", err)
			return false
		}
		if op.rates != nil {
			scans[op.id] = op.rates
		} else {
			delete(scans, op.id)
		}
		dirs += len(d)
		n++
		if op.kind == kJoin {
			m := home[op.id]
			if served[m] == nil {
				served[m] = map[int]int{}
			}
			if x, ok := engines[m].Extender(op.id); ok {
				served[m][op.id] = x
			}
			joinScans[op.id] = op.rates
		}
		engUs[op.kind] = append(engUs[op.kind], eu)
		selfUs[op.kind] = append(selfUs[op.kind], cu-eu)
		return true
	}

	var snaps []snapshot
	every := len(capture)/4 + 1
	for i, op := range capture {
		if !run(op) {
			return nil
		}
		if (i+1)%every == 0 {
			snaps = append(snaps, memberSnapshots(engines, owned, caps, scans)...)
		}
	}
	// Stationary scan refreshes of the lowest-ID present users, so that
	// every workload prices the update path.
	for i, id := range sortedKeys(home) {
		if i == refreshes {
			break
		}
		if !run(capOp{kind: kUpdate, id: id, rates: scans[id]}) {
			return nil
		}
	}
	snaps = append(snaps, memberSnapshots(engines, owned, caps, scans)...)
	largest := 0
	for _, sn := range snaps {
		largest = max(largest, len(sn.assign))
	}
	if largest < minLiveUsers {
		// Members that stay nearly empty (the sessions workload) are
		// called on every user they served during the trace instead.
		snaps = snaps[:0]
		for m, users := range served {
			if len(users) > 0 {
				snaps = append(snaps, snapshotOf(users, owned[m], caps, joinScans))
			}
		}
	}

	want := coord.StatsWithAssignment()
	got := map[int]int{}
	for _, e := range engines {
		if e != nil {
			for u, x := range e.Stats().Assignment {
				got[u] = x
			}
		}
	}
	if len(got) != len(want.Assignment) {
		ck.failf("engine replay holds %d users, coordinator replay %d", len(got), len(want.Assignment))
	}
	for u, x := range want.Assignment {
		if got[u] != x {
			ck.failf("user %d: engine replay says %d, coordinator replay %d", u, got[u], x)
			break
		}
	}

	for k, name := range map[int]string{kJoin: "join", kUpdate: "update", kLeave: "leave"} {
		v["shard."+name+"_self_us"] = median(selfUs[k])
		v["control."+name+"_us"] = median(engUs[k])
	}
	v["shard.stats_us"] = median(stats)
	v["shard.handoffs_per_kop"] = 1e3 * float64(want.Handoffs) / float64(n)
	v["control.directives_per_op"] = float64(dirs) / float64(n)
	if len(snaps) > maxSnapshots {
		snaps = snaps[len(snaps)-maxSnapshots:]
	}
	return snaps
}

// memberSnapshots captures every non-empty member engine's users and
// assignment as a network over the member's own extenders.
func memberSnapshots(engines []*control.Engine, owned [][]int, caps []float64, scans map[int][]float64) []snapshot {
	var out []snapshot
	for m, e := range engines {
		if e == nil {
			continue
		}
		if st := e.Stats(); len(st.Assignment) > 0 {
			out = append(out, snapshotOf(st.Assignment, owned[m], caps, scans))
		}
	}
	return out
}

// snapshotOf builds the network of the given users (user → global
// extender) over a member's owned extenders, in ascending user order.
func snapshotOf(users map[int]int, owned []int, caps []float64, scans map[int][]float64) snapshot {
	local := map[int]int{}
	sn := snapshot{net: &model.Network{}}
	for l, j := range owned {
		local[j] = l
		sn.net.PLCCaps = append(sn.net.PLCCaps, caps[j])
	}
	for _, u := range sortedKeys(users) {
		row := make([]float64, len(owned))
		for l, j := range owned {
			row[l] = scans[u][j]
		}
		sn.net.WiFiRates = append(sn.net.WiFiRates, row)
		sn.assign = append(sn.assign, local[users[u]])
	}
	return sn
}

// strategyCalls times the strategy and model layers on the member
// snapshots: the budgeted hill climb's warm re-solve and placement
// (localsearch over model's delta evaluator), a full evaluation, and the
// two-phase WOLT solve (core, hungarian, nlp) on at most coreMaxUsers
// users of each snapshot.
func strategyCalls(snaps []snapshot, v map[string]float64, ck *checkErr) {
	if len(snaps) == 0 {
		ck.failf("no member snapshot to call the strategies on")
		return
	}
	var last strategy.Stats
	observe := func(s strategy.Stats) { last = s }
	newStrategy := func(name string, probes int) strategy.Strategy {
		s, err := strategy.New(name, strategy.Config{
			Budget: strategy.Budget{Probes: probes}, Observer: observe,
		})
		if err != nil {
			ck.failf("strategy %s: %v", name, err)
			return nil
		}
		return s
	}
	hc, one, wolt := newStrategy("wolt-hillclimb", probeBudget), newStrategy("wolt-hillclimb", 1), newStrategy("wolt", 0)
	if hc == nil || one == nil || wolt == nil {
		return
	}
	var reassign, attach, place, eval, p1, p2 []float64
	var probes, improving, commits, attaches, budgetStops, solves float64
	var augment, iters, sweeps, coreSolves float64
	var probeTime, probeCount float64
	for _, sn := range snaps {
		var t200, t1 []float64
		var n200, n1 int
		for r := 0; r < solveRepeats; r++ {
			// The engine invalidates its network on every operation, so
			// every timed call re-attaches as it does there.
			start := append(model.Assignment(nil), sn.assign...)
			sn.net.Invalidate()
			t0 := time.Now()
			if _, err := hc.(strategy.Reassigner).Reassign(sn.net, start); err != nil {
				ck.failf("hill climb: %v", err)
				return
			}
			t200 = append(t200, usSince(t0))
			n200 = last.DeltaProbes
			probes += float64(last.DeltaProbes)
			improving += float64(last.Improving)
			commits += float64(last.Commits)
			attaches += float64(last.Evaluations)
			if last.Stop == "probes" {
				budgetStops++
			}
			solves++

			start = append(start[:0], sn.assign...)
			sn.net.Invalidate()
			t0 = time.Now()
			if _, err := one.(strategy.Reassigner).Reassign(sn.net, start); err != nil {
				ck.failf("1-probe hill climb: %v", err)
				return
			}
			t1 = append(t1, usSince(t0))
			n1 = last.DeltaProbes

			t0 = time.Now()
			if _, err := model.Evaluate(sn.net, sn.assign, model.Options{}); err != nil {
				ck.failf("evaluate: %v", err)
				return
			}
			eval = append(eval, usSince(t0))
		}
		reassign = append(reassign, t200...)
		attach = append(attach, t1...)
		if n200 > n1 {
			probeTime += median(t200) - median(t1)
			probeCount += float64(n200 - n1)
		}

		online := hc.(strategy.Online)
		a := append(model.Assignment(nil), sn.assign...)
		for u := 0; u < len(a) && u < placeUsers; u++ {
			prev := a[u]
			a[u] = model.Unassigned
			sn.net.Invalidate()
			t0 := time.Now()
			if _, err := online.Add(sn.net, a, u); err != nil {
				ck.failf("place: %v", err)
				return
			}
			place = append(place, usSince(t0))
			a[u] = prev
		}

		sub := &model.Network{PLCCaps: sn.net.PLCCaps, WiFiRates: sn.net.WiFiRates}
		if len(sub.WiFiRates) > coreMaxUsers {
			sub.WiFiRates = sub.WiFiRates[:coreMaxUsers]
		}
		if _, err := wolt.Solve(sub); err != nil {
			ck.failf("wolt solve: %v", err)
			return
		}
		p1 = append(p1, float64(last.Phase1.Nanoseconds())/1e3)
		p2 = append(p2, float64(last.Phase2.Nanoseconds())/1e3)
		augment += float64(last.HungarianAugmentations)
		iters += float64(last.Phase2Iterations)
		sweeps += float64(last.PolishSweeps)
		coreSolves++
	}
	v["localsearch.reassign_us"] = median(reassign)
	v["localsearch.place_us"] = median(place)
	v["localsearch.probes_per_solve"] = probes / solves
	v["localsearch.improving_per_commit"] = ratio(improving, commits)
	v["localsearch.attaches_per_solve"] = attaches / solves
	v["localsearch.budget_stop_frac"] = budgetStops / solves
	v["model.attach_us"] = median(attach)
	v["model.probe_ns"] = 1e3 * ratio(probeTime, probeCount)
	v["model.evaluate_us"] = median(eval)
	v["core.phase1_us"] = median(p1)
	v["core.phase2_us"] = median(p2)
	v["hungarian.augmentations_per_solve"] = augment / coreSolves
	v["nlp.iterations_per_solve"] = iters / coreSolves
	v["core.polish_sweeps_per_solve"] = sweeps / coreSolves
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// transport replays the first captured joins as loopback agent sessions
// against members configured like the workload's: dial, join, stats and
// leave, one session at a time.
func transport(c *city.City, cfg city.Config, capture []capOp, v map[string]float64, ck *checkErr) {
	plane, err := shard.Listen(shard.PlaneConfig{
		Addr: "127.0.0.1:0", Member: -1, Shards: cfg.Shards,
		PLCCaps: c.PLCCaps(), Policy: cfg.Policy, Seed: cfg.Seed,
		Budget: cfg.Budget, ReassignOnLeave: cfg.ReassignOnLeave,
		PlacementOnlyJoins: cfg.PlacementOnlyJoins, FullResolveEvery: cfg.FullResolveEvery,
	})
	if err != nil {
		ck.failf("listen: %v", err)
		return
	}
	defer plane.Close()
	ownerOf := shard.OwnerMapFor(cfg.Seed, cfg.Shards, 0, len(c.PLCCaps()))
	var dial, join, stats []float64
	sessions, frames, redirects := 0, 0, 0
	w0, wOK := bytesWritten()
	for _, op := range capture {
		if op.kind != kJoin || sessions == transportUsers {
			continue
		}
		addr := plane.Addrs()[ownerOf[shard.BestExtender(op.rates)]]
		t0 := time.Now()
		a, err := control.DialCodec(addr, op.id, control.CodecBinary)
		if err != nil {
			ck.failf("dial: %v", err)
			return
		}
		dial = append(dial, usSince(t0))
		t0 = time.Now()
		_, err = a.Join(op.rates, nil, rpcTimeout)
		join = append(join, usSince(t0))
		if err == nil {
			t0 = time.Now()
			_, err = a.Stats(rpcTimeout)
			stats = append(stats, usSince(t0))
		}
		if err != nil {
			_ = a.Close()
			ck.failf("transport session of user %d: %v", op.id, err)
			return
		}
		if err := a.Leave(); err != nil {
			ck.failf("leave: %v", err)
			return
		}
		sessions++
		redirects += a.Redirects()
		// Frames written: join, stats request and leave from the agent;
		// its directives and the stats reply from the member.
		frames += 3 + a.Directives() + 1
	}
	w1, _ := bytesWritten()
	v["transport.dial_us"] = median(dial)
	v["transport.join_rtt_us"] = median(join)
	v["transport.stats_rtt_us"] = median(stats)
	v["transport.redirects"] = float64(redirects)
	v["transport.dropped_pushes"] = float64(plane.Stats().DroppedPushes)
	v["wire.frames_per_session"] = ratio(float64(frames), float64(sessions))
	if wOK {
		v["wire.bytes_per_frame"] = ratio(float64(w1-w0), float64(frames))
	} else {
		v["wire.bytes_per_frame"] = math.NaN()
	}
}
