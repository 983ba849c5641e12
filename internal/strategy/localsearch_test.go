package strategy

import (
	"context"
	"testing"

	"github.com/plcwifi/wolt/internal/model"
)

// TestLocalSearchWarmReassign: seeding the search from the full WOLT
// solution must never lose quality — the warm path starts at the
// previous assignment and only commits improvements.
func TestLocalSearchWarmReassign(t *testing.T) {
	n := testNetwork(t, 24, 4)
	opts := model.Options{Redistribute: true}
	w, err := New("wolt", Config{ModelOpts: opts})
	if err != nil {
		t.Fatal(err)
	}
	full, err := w.Solve(n)
	if err != nil {
		t.Fatal(err)
	}
	var scratch model.EvalScratch
	fullRes, err := model.EvaluateWith(&scratch, n, full, opts)
	if err != nil {
		t.Fatal(err)
	}
	var last Stats
	st, err := New("wolt-hillclimb", Config{
		ModelOpts: opts,
		Budget:    Budget{Probes: 5000},
		Observer:  func(s Stats) { last = s },
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.(Reassigner).Reassign(n, full)
	if err != nil {
		t.Fatal(err)
	}
	res, err := model.EvaluateWith(&scratch, n, got, opts)
	if err != nil {
		t.Fatalf("invalid reassignment: %v", err)
	}
	if res.Aggregate < fullRes.Aggregate {
		t.Errorf("warm reassign lost ground: %v < %v", res.Aggregate, fullRes.Aggregate)
	}
	if last.Aggregate != res.Aggregate {
		t.Errorf("Stats.Aggregate %v != fresh evaluation %v", last.Aggregate, res.Aggregate)
	}
	if last.DeltaProbes == 0 || last.DeltaProbes > 5000 {
		t.Errorf("DeltaProbes = %d, want in (0, 5000]", last.DeltaProbes)
	}
	if len(last.Trajectory) == 0 || last.Stop == "" {
		t.Errorf("anytime stats missing: %+v", last)
	}
}

// TestLocalSearchCtxCancelled: a cancelled Config.Ctx still yields a
// valid assignment (the anytime contract through the registry).
func TestLocalSearchCtxCancelled(t *testing.T) {
	n := testNetwork(t, 24, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var last Stats
	st, err := New("wolt-hillclimb", Config{Ctx: ctx, Observer: func(s Stats) { last = s }})
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.Solve(n)
	if err != nil {
		t.Fatal(err)
	}
	var scratch model.EvalScratch
	if _, err := model.EvaluateWith(&scratch, n, got, model.Options{}); err != nil {
		t.Fatalf("cancelled solve returned invalid assignment: %v", err)
	}
	if last.Stop != "ctx" {
		t.Errorf("Stop = %q, want ctx", last.Stop)
	}
}

// TestLocalSearchOnlineAdd: the Add form places an arrival into a
// partial assignment in place and returns the chosen extender.
func TestLocalSearchOnlineAdd(t *testing.T) {
	n := testNetwork(t, 10, 3)
	st, err := New("wolt-hillclimb", Config{})
	if err != nil {
		t.Fatal(err)
	}
	assign := make(model.Assignment, n.NumUsers())
	for i := range assign {
		assign[i] = model.Unassigned
	}
	for i := 0; i < n.NumUsers(); i++ {
		j, err := st.(Online).Add(n, assign, i)
		if err != nil {
			t.Fatalf("Add(%d): %v", i, err)
		}
		if j != assign[i] {
			t.Fatalf("Add returned %d but wrote %d", j, assign[i])
		}
	}
	var scratch model.EvalScratch
	if _, err := model.EvaluateWith(&scratch, n, assign, model.Options{}); err != nil {
		t.Fatalf("online-built assignment invalid: %v", err)
	}
}
