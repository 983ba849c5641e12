package control

import (
	"errors"
	"strings"
	"testing"

	"github.com/plcwifi/wolt/internal/model"
	"github.com/plcwifi/wolt/internal/strategy"
)

// fig3Engine builds a transport-free engine over the paper's Fig 3
// network (two extenders with PLC capacities 60 and 20 Mbps).
func fig3Engine(t *testing.T, policy string) *Engine {
	t.Helper()
	e, err := NewEngine(EngineConfig{
		PLCCaps:   []float64{60, 20},
		Policy:    policy,
		ModelOpts: model.Options{Redistribute: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// directiveFor returns the directive addressed to the given user, or
// fails the test.
func directiveFor(t *testing.T, dirs []Directive, userID int) Directive {
	t.Helper()
	for _, d := range dirs {
		if d.UserID == userID {
			return d
		}
	}
	t.Fatalf("no directive for user %d in %v", userID, dirs)
	return Directive{}
}

func TestEngineValidation(t *testing.T) {
	if _, err := NewEngine(EngineConfig{}); err == nil {
		t.Error("no capacities: want error")
	}
	if _, err := NewEngine(EngineConfig{PLCCaps: []float64{10, -3}}); err == nil {
		t.Error("negative capacity: want error")
	}
	if _, err := NewEngine(EngineConfig{PLCCaps: []float64{10}, Policy: "bogus"}); err == nil {
		t.Error("unknown policy: want error")
	}
	if _, err := NewEngine(EngineConfig{PLCCaps: []float64{10, 20}, Owned: []int{0, 2}}); err == nil {
		t.Error("owned extender out of range: want error")
	}
	if _, err := NewEngine(EngineConfig{PLCCaps: []float64{10, 20}, Owned: []int{1, 1}}); err == nil {
		t.Error("duplicate owned extender: want error")
	}
}

// TestEngineRegistryNamesAccepted pins the satellite contract that any
// strategy-registry name is a valid policy — the control plane no longer
// has its own closed policy enum.
func TestEngineRegistryNamesAccepted(t *testing.T) {
	for _, name := range []string{"wolt", "wolt-coordinate", "wolt-incremental", "greedy", "selfish", "rssi"} {
		if _, err := NewEngine(EngineConfig{PLCCaps: []float64{60, 20}, Policy: name}); err != nil {
			t.Errorf("policy %q rejected: %v", name, err)
		}
	}
}

// TestEngineFig3Semantics replays the Fig 3 case study directly against
// the engine: user 2's arrival makes WOLT move user 1 to extender 2
// (a reassociation directive) so both PLC links carry traffic.
func TestEngineFig3Semantics(t *testing.T) {
	e := fig3Engine(t, PolicyWOLT)

	dirs, err := e.Join(1, []float64{15, 10}, []float64{-60, -70})
	if err != nil {
		t.Fatal(err)
	}
	d1 := directiveFor(t, dirs, 1)
	if d1.Reassociation {
		t.Error("first join: want initial association, got reassociation")
	}

	dirs, err = e.Join(2, []float64{40, 5}, []float64{-55, -80})
	if err != nil {
		t.Fatal(err)
	}
	d2 := directiveFor(t, dirs, 2)
	if d2.Extender != 0 {
		t.Errorf("user 2 on extender %d, want 0 (the 60 Mbps link)", d2.Extender)
	}
	if ext, _ := e.Extender(1); ext != 1 {
		t.Errorf("user 1 on extender %d, want 1 after WOLT rebalances", ext)
	}

	st := e.Stats()
	if st.Users != 2 || st.Joins != 2 {
		t.Errorf("stats = %+v, want 2 users / 2 joins", st)
	}
	if st.Reassociations == 0 {
		t.Error("want at least one reassociation when user 2 displaces user 1")
	}
}

func TestEngineJoinRejections(t *testing.T) {
	e := fig3Engine(t, PolicyWOLT)
	if _, err := e.Join(1, []float64{15}, nil); err == nil {
		t.Error("short scan report: want error")
	}
	if _, err := e.Join(1, []float64{0, 0}, nil); err == nil ||
		!strings.Contains(err.Error(), "reaches no extender") {
		t.Errorf("unreachable user: got %v, want 'reaches no extender'", err)
	}
	if _, err := e.Join(1, []float64{15, 10}, []float64{-60}); err == nil {
		t.Error("short RSSI vector: want error")
	}
	if _, err := e.Join(1, []float64{15, 10}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Join(1, []float64{15, 10}, nil); err == nil {
		t.Error("duplicate join: want error")
	}
	// A failed join must leave no trace: user 5's rejection does not
	// bump the join counter.
	if _, err := e.Join(5, []float64{0, 0}, nil); err == nil {
		t.Fatal("want rejection")
	}
	if st := e.Stats(); st.Users != 1 || st.Joins != 1 {
		t.Errorf("stats after rejected join = %+v, want 1 user / 1 join", st)
	}
}

func TestEngineLeave(t *testing.T) {
	e := fig3Engine(t, PolicyWOLT)
	if _, ok := e.Leave(1); ok {
		t.Error("leave of unknown user: want false")
	}
	if _, err := e.Join(1, []float64{15, 10}, nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Leave(1); !ok {
		t.Error("leave of joined user: want true")
	}
	if st := e.Stats(); st.Users != 0 || st.Leaves != 1 {
		t.Errorf("stats = %+v, want 0 users / 1 leave", st)
	}
	// The departed user's ID is free for a fresh join.
	if _, err := e.Join(1, []float64{15, 10}, nil); err != nil {
		t.Errorf("rejoin after leave: %v", err)
	}
}

// TestEngineReassignOnLeave: with the anytime policy and
// ReassignOnLeave, a departure triggers a warm re-solve that may
// rebalance the remaining users, and the resulting directives come
// back from Leave. Without the flag, departures stay silent.
func TestEngineReassignOnLeave(t *testing.T) {
	build := func(reassign bool) *Engine {
		e, err := NewEngine(EngineConfig{
			PLCCaps:         []float64{60, 20},
			Policy:          "wolt-hillclimb",
			ModelOpts:       model.Options{Redistribute: true},
			Budget:          strategy.Budget{Probes: 1000},
			ReassignOnLeave: reassign,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	// Three users crowd extender 0; when user 1 (its strongest) leaves,
	// the repair may shuffle the survivors — and must at minimum run
	// without error and leave a consistent table.
	seed := func(e *Engine) {
		for id, rates := range map[int][]float64{
			1: {50, 1}, 2: {40, 12}, 3: {35, 14},
		} {
			if _, err := e.Join(id, rates, nil); err != nil {
				t.Fatal(err)
			}
		}
	}

	e := build(true)
	seed(e)
	dirs, ok := e.Leave(1)
	if !ok {
		t.Fatal("leave of joined user: want true")
	}
	for _, d := range dirs {
		if d.UserID == 1 {
			t.Errorf("departed user received a directive: %+v", d)
		}
		if got, _ := e.Extender(d.UserID); got != d.Extender {
			t.Errorf("user %d: directive says %d, table says %d", d.UserID, d.Extender, got)
		}
	}
	if st := e.Stats(); st.Users != 2 || st.Leaves != 1 {
		t.Errorf("stats = %+v, want 2 users / 1 leave", st)
	}

	// Default behavior unchanged: no directives on leave.
	e2 := build(false)
	seed(e2)
	if dirs, _ := e2.Leave(1); len(dirs) != 0 {
		t.Errorf("ReassignOnLeave off: got directives %+v", dirs)
	}
}

func TestEngineUpdateSemantics(t *testing.T) {
	t.Run("before join", func(t *testing.T) {
		e := fig3Engine(t, PolicyWOLT)
		if _, err := e.Update(9, []float64{15, 10}, nil); err == nil {
			t.Error("update before join: want error")
		}
	})
	t.Run("wolt reassociates", func(t *testing.T) {
		e := fig3Engine(t, PolicyWOLT)
		if _, err := e.Join(1, []float64{15, 10}, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Join(2, []float64{40, 5}, nil); err != nil {
			t.Fatal(err)
		}
		// User 2's link to extender 1 collapses; WOLT must move it off.
		dirs, err := e.Update(2, []float64{1, 30}, nil)
		if err != nil {
			t.Fatal(err)
		}
		d := directiveFor(t, dirs, 2)
		if d.Extender != 1 || !d.Reassociation {
			t.Errorf("got %+v, want reassociation to extender 1", d)
		}
	})
	t.Run("greedy stays put", func(t *testing.T) {
		e := fig3Engine(t, PolicyGreedy)
		if _, err := e.Join(1, []float64{15, 10}, nil); err != nil {
			t.Fatal(err)
		}
		dirs, err := e.Update(1, []float64{1, 100}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(dirs) != 0 {
			t.Errorf("greedy produced directives on update: %v", dirs)
		}
	})
	t.Run("rssi roams the reporting user", func(t *testing.T) {
		e := fig3Engine(t, PolicyRSSI)
		if _, err := e.Join(1, []float64{15, 10}, []float64{-60, -80}); err != nil {
			t.Fatal(err)
		}
		if ext, _ := e.Extender(1); ext != 0 {
			t.Fatalf("user 1 on extender %d, want 0 (strongest signal)", ext)
		}
		dirs, err := e.Update(1, []float64{15, 10}, []float64{-85, -50})
		if err != nil {
			t.Fatal(err)
		}
		d := directiveFor(t, dirs, 1)
		if d.Extender != 1 || !d.Reassociation {
			t.Errorf("got %+v, want roam to extender 1", d)
		}
	})
}

// TestEngineOfflineOnlyPolicy pins the typed-error contract: a policy
// with no online form (the exhaustive "optimal") is accepted by the
// registry but rejects arrivals with strategy.ErrNoOnlineForm.
func TestEngineOfflineOnlyPolicy(t *testing.T) {
	e := fig3Engine(t, "optimal")
	_, err := e.Join(1, []float64{15, 10}, nil)
	if !errors.Is(err, strategy.ErrNoOnlineForm) {
		t.Errorf("got %v, want strategy.ErrNoOnlineForm", err)
	}
	if st := e.Stats(); st.Users != 0 || st.Joins != 0 {
		t.Errorf("failed join left state behind: %+v", st)
	}
}

// TestEngineOwnedSubset exercises the shard-member projection: an engine
// owning only extender 1 of a 3-extender deployment sees global-width
// scans, assigns only its own extender, and reports global IDs.
func TestEngineOwnedSubset(t *testing.T) {
	e, err := NewEngine(EngineConfig{
		PLCCaps: []float64{60, 20, 40},
		Owned:   []int{1},
		Policy:  PolicyWOLT,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The user's best global extender is 0, but this engine only owns 1.
	dirs, err := e.Join(7, []float64{50, 12, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := directiveFor(t, dirs, 7); d.Extender != 1 {
		t.Errorf("shard engine assigned global extender %d, want 1", d.Extender)
	}
	// A user reaching only unowned extenders is rejected with the
	// shard-specific message.
	_, err = e.Join(8, []float64{50, 0, 30}, nil)
	if err == nil || !strings.Contains(err.Error(), "owned by this shard") {
		t.Errorf("got %v, want shard-ownership rejection", err)
	}
}

// TestEngineUpdateRoamedOutOfReach pins the roaming fix: a scan update
// that leaves the user's current extender unreachable must re-place the
// user (one reassociation directive) instead of failing validation of
// the seeded assignment, for full-width and shard-subset engines alike.
func TestEngineUpdateRoamedOutOfReach(t *testing.T) {
	for _, tc := range []struct {
		policy string
		owned  []int
	}{
		{"wolt-hillclimb", nil},
		{"wolt-hillclimb", []int{0, 2}},
		{PolicyWOLT, nil},
		{PolicyWOLT, []int{0, 2}},
	} {
		e, err := NewEngine(EngineConfig{
			PLCCaps:   []float64{60, 20, 40},
			Owned:     tc.owned,
			Policy:    tc.policy,
			ModelOpts: model.Options{Redistribute: true},
			Budget:    strategy.Budget{Probes: 200},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Join(1, []float64{50, 0, 10}, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Join(2, []float64{45, 0, 12}, nil); err != nil {
			t.Fatal(err)
		}
		if ext, _ := e.Extender(1); ext != 0 {
			t.Fatalf("%s %v: user 1 on extender %d, want 0", tc.policy, tc.owned, ext)
		}
		dirs, err := e.Update(1, []float64{0, 0, 30}, nil)
		if err != nil {
			t.Fatalf("%s %v: roamed update: %v", tc.policy, tc.owned, err)
		}
		d := directiveFor(t, dirs, 1)
		if d.Extender != 2 || !d.Reassociation {
			t.Errorf("%s %v: directive %+v, want reassociation to extender 2", tc.policy, tc.owned, d)
		}
		if ext, _ := e.Extender(1); ext != 2 {
			t.Errorf("%s %v: user 1 on extender %d after roaming, want 2", tc.policy, tc.owned, ext)
		}
	}
}

// failingReassigner is a stub strategy whose re-solve always errors.
// Engine tests live in package control, so they can swap it into
// e.strategy to exercise the failure paths no registry strategy hits
// deterministically.
type failingReassigner struct{ err error }

func (f *failingReassigner) Name() string { return "failing" }
func (f *failingReassigner) Solve(*model.Network) (model.Assignment, error) {
	return nil, f.err
}
func (f *failingReassigner) Reassign(*model.Network, model.Assignment) (model.Assignment, error) {
	return nil, f.err
}

// TestEngineUpdateAtomic pins the Update bugfix: a failed re-solve must
// restore the prior scan report, not leave fresh rates with a stale
// assignment. Verified by breaking the strategy, pushing a poisoned
// update, then healing the strategy and checking the next recompute
// still sees the ORIGINAL rates (user stays on extender 0; with the
// poisoned rates committed it would move to extender 1).
func TestEngineUpdateAtomic(t *testing.T) {
	e := fig3Engine(t, PolicyWOLT)
	if _, err := e.Join(1, []float64{50, 10}, nil); err != nil {
		t.Fatal(err)
	}
	if ext, _ := e.Extender(1); ext != 0 {
		t.Fatalf("user 1 on extender %d, want 0", ext)
	}

	healthy := e.strategy
	boom := errors.New("solver exploded")
	e.strategy = &failingReassigner{err: boom}
	if _, err := e.Update(1, []float64{1, 55}, nil); !errors.Is(err, boom) {
		t.Fatalf("poisoned update: got err %v, want %v", err, boom)
	}
	if ext, _ := e.Extender(1); ext != 0 {
		t.Fatalf("failed update moved user to extender %d", ext)
	}

	// Heal the strategy and trigger a recompute via a second user's
	// arrival: if the failed update had committed rates {1, 55}, WOLT
	// would now move user 1 to extender 1. With the rollback it stays.
	e.strategy = healthy
	if _, err := e.Join(2, []float64{40, 20}, nil); err != nil {
		t.Fatal(err)
	}
	if ext, _ := e.Extender(1); ext != 0 {
		t.Errorf("user 1 on extender %d after rollback; poisoned rates leaked into the table", ext)
	}
}

// TestEngineLeaveDroppedReassigns pins the Leave bugfix: a failed
// re-solve under ReassignOnLeave must keep the departure, return no
// directives, and surface the dropped rebalance in Stats.
func TestEngineLeaveDroppedReassigns(t *testing.T) {
	e, err := NewEngine(EngineConfig{
		PLCCaps:         []float64{60, 20},
		Policy:          PolicyWOLT,
		ModelOpts:       model.Options{Redistribute: true},
		ReassignOnLeave: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for u := 1; u <= 3; u++ {
		if _, err := e.Join(u, []float64{30, 25}, nil); err != nil {
			t.Fatal(err)
		}
	}
	e.strategy = &failingReassigner{err: errors.New("solver exploded")}

	dirs, ok := e.Leave(2)
	if !ok {
		t.Fatal("leave of joined user reported not present")
	}
	if len(dirs) != 0 {
		t.Fatalf("failed re-solve returned directives %v", dirs)
	}
	st := e.Stats()
	if st.Users != 2 {
		t.Errorf("users = %d after leave, want 2 (departure must stand)", st.Users)
	}
	if st.DroppedReassigns != 1 {
		t.Errorf("DroppedReassigns = %d, want 1", st.DroppedReassigns)
	}
	if _, present := e.Extender(2); present {
		t.Error("departed user still in table")
	}

	// A healthy leave must not bump the counter.
	e.strategy = nil
	e.cfg.ReassignOnLeave = false
	if _, ok := e.Leave(1); !ok {
		t.Fatal("second leave failed")
	}
	if st := e.Stats(); st.DroppedReassigns != 1 {
		t.Errorf("DroppedReassigns = %d after healthy leave, want 1", st.DroppedReassigns)
	}
}

// TestEngineSteadyStateAllocs pins the memory discipline the city
// harness depends on (DESIGN.md §12): once the user table has seen its
// peak population, a leave + rejoin + update cycle under the anytime
// policy performs O(1) allocations — independent of table size. The
// bound is a small constant (directive slices + solver Result); the
// point of asserting at two population sizes is that it does not grow
// with n.
func TestEngineSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting under -short")
	}
	for _, n := range []int{100, 400} {
		e, err := NewEngine(EngineConfig{
			PLCCaps:         []float64{60, 20, 40, 30},
			Policy:          "wolt-hillclimb",
			ModelOpts:       model.Options{Redistribute: true},
			Budget:          strategy.Budget{Probes: 200},
			ReassignOnLeave: true,
			Seed:            7,
		})
		if err != nil {
			t.Fatal(err)
		}
		rates := make([][]float64, n)
		for u := 0; u < n; u++ {
			rates[u] = []float64{
				20 + float64(u%17),
				15 + float64(u%11),
				25 + float64(u%13),
				10 + float64(u%7),
			}
			if _, err := e.Join(u, rates[u], nil); err != nil {
				t.Fatal(err)
			}
		}
		victim := n / 2
		fresh := []float64{30, 20, 10, 25}
		avg := testing.AllocsPerRun(50, func() {
			if _, ok := e.Leave(victim); !ok {
				t.Fatal("leave failed")
			}
			if _, err := e.Join(victim, rates[victim], nil); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Update(victim, fresh, nil); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Update(victim, rates[victim], nil); err != nil {
				t.Fatal(err)
			}
		})
		// 4 operations, each allowed a handful of allocations (directive
		// slice, solver Result + assignment/trajectory copies). What
		// matters is the bound holds at n=100 AND n=400.
		if avg > 32 {
			t.Errorf("n=%d: %v allocs per churn cycle, want O(1) (<=32)", n, avg)
		}
	}
}

// BenchmarkEngineChurnEvent prices the steady-state per-event path the
// city harness hammers: leave + rejoin + scan update against a warm
// 400-user engine under the anytime policy. AllocsPerOp here is the
// benchmark-asserted face of the O(1)-allocation discipline
// (TestEngineSteadyStateAllocs enforces the bound).
func BenchmarkEngineChurnEvent(b *testing.B) {
	const n = 400
	e, err := NewEngine(EngineConfig{
		PLCCaps:         []float64{60, 20, 40, 30},
		Policy:          "wolt-hillclimb",
		ModelOpts:       model.Options{Redistribute: true},
		Budget:          strategy.Budget{Probes: 200},
		ReassignOnLeave: true,
		Seed:            7,
	})
	if err != nil {
		b.Fatal(err)
	}
	rates := make([][]float64, n)
	for u := 0; u < n; u++ {
		rates[u] = []float64{
			20 + float64(u%17),
			15 + float64(u%11),
			25 + float64(u%13),
			10 + float64(u%7),
		}
		if _, err := e.Join(u, rates[u], nil); err != nil {
			b.Fatal(err)
		}
	}
	victim := n / 2
	fresh := []float64{30, 20, 10, 25}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := e.Leave(victim); !ok {
			b.Fatal("leave failed")
		}
		if _, err := e.Join(victim, rates[victim], nil); err != nil {
			b.Fatal(err)
		}
		if _, err := e.Update(victim, fresh, nil); err != nil {
			b.Fatal(err)
		}
		if _, err := e.Update(victim, rates[victim], nil); err != nil {
			b.Fatal(err)
		}
	}
}
