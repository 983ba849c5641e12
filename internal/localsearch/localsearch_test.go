package localsearch

import (
	"context"
	"testing"
	"time"

	"github.com/plcwifi/wolt/internal/model"
	"github.com/plcwifi/wolt/internal/seed"
)

// searchInstance builds a random network (with unreachable links) and a
// random partial assignment from the LocalSearchFuzz stream of base —
// the same shape as the delta-vs-full harness in internal/model.
func searchInstance(base int64, numExt, numUsers int) (*model.Network, model.Assignment) {
	rng := seed.Rand(base, seed.LocalSearchFuzz, 0)
	n := &model.Network{
		WiFiRates: make([][]float64, numUsers),
		PLCCaps:   make([]float64, numExt),
	}
	for j := range n.PLCCaps {
		n.PLCCaps[j] = 10 + rng.Float64()*150
	}
	a := make(model.Assignment, numUsers)
	for i := range n.WiFiRates {
		row := make([]float64, numExt)
		var reach []int
		for j := range row {
			if rng.Float64() < 0.25 {
				row[j] = 0
			} else {
				row[j] = 1 + rng.Float64()*60
				reach = append(reach, j)
			}
		}
		n.WiFiRates[i] = row
		if len(reach) == 0 || rng.Float64() < 0.3 {
			a[i] = model.Unassigned
		} else {
			a[i] = reach[rng.Intn(len(reach))]
		}
	}
	return n, a
}

// checkResult asserts the anytime contract's verifiable half: the
// returned assignment is valid, its fresh full evaluation is
// bit-identical to the reported aggregate, and the search never
// returned something worse than its own starting point.
func checkResult(t *testing.T, n *model.Network, res *Result, opts Options) *model.Result {
	t.Helper()
	var scratch model.EvalScratch
	full, err := model.EvaluateWith(&scratch, n, res.Assign, opts.Model)
	if err != nil {
		t.Fatalf("returned assignment invalid: %v", err)
	}
	if full.Aggregate != res.Aggregate {
		t.Fatalf("aggregate %v != fresh EvaluateWith %v (must be bit-identical)", res.Aggregate, full.Aggregate)
	}
	if res.Aggregate < res.Start {
		t.Fatalf("search lost ground: aggregate %v < start %v", res.Aggregate, res.Start)
	}
	if len(res.Trajectory) == 0 || res.Trajectory[len(res.Trajectory)-1] != res.Aggregate {
		t.Fatalf("trajectory %v does not end at aggregate %v", res.Trajectory, res.Aggregate)
	}
	for k := 1; k < len(res.Trajectory); k++ {
		if res.Trajectory[k] <= res.Trajectory[k-1] {
			t.Fatalf("trajectory not strictly increasing at %d: %v", k, res.Trajectory)
		}
	}
	return full
}

// TestSearchMatchesFullEvaluation is the differential test of the
// anytime contract: for every budget and several instances, the end
// state equals a fresh full evaluation.
func TestSearchMatchesFullEvaluation(t *testing.T) {
	for _, base := range []int64{1, 7, 42, 2020} {
		for _, probes := range []int{0, 50, 5000} {
			n, start := searchInstance(base, 6, 40)
			var s Searcher
			opts := Options{Budget: Budget{Probes: probes}}
			res, err := s.Search(context.Background(), n, start, opts)
			if err != nil {
				t.Fatalf("base=%d probes=%d: %v", base, probes, err)
			}
			checkResult(t, n, res, opts)
		}
	}
}

// TestSearchImprovesOverStart: on a deliberately bad start (everyone
// on their worst reachable link), hill climbing must find improving
// moves and strictly beat the seed.
func TestSearchImprovesOverStart(t *testing.T) {
	n, _ := searchInstance(3, 6, 40)
	start := make(model.Assignment, n.NumUsers())
	for i := range start {
		start[i] = model.Unassigned
		worst := 0.0
		for j, r := range n.WiFiRates[i] {
			if r > 0 && (start[i] == model.Unassigned || r < worst) {
				start[i], worst = j, r
			}
		}
	}
	var s Searcher
	opts := Options{}
	res, err := s.Search(context.Background(), n, start, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, n, res, opts)
	if res.Aggregate <= res.Start {
		t.Fatalf("hill climb found nothing: start %v aggregate %v", res.Start, res.Aggregate)
	}
	if res.Stop != StopOptimum {
		t.Fatalf("unbudgeted climb should end at an optimum, got %v", res.Stop)
	}
	if res.Improving == 0 || res.Commits == 0 || res.Probes == 0 {
		t.Fatalf("counters not populated: %+v", res)
	}
}

// TestSearchPlacesArrivals: Unassigned users in the start are placed
// for free, even under a zero move budget.
func TestSearchPlacesArrivals(t *testing.T) {
	n, start := searchInstance(9, 6, 30)
	unassigned := 0
	for _, j := range start {
		if j == model.Unassigned {
			unassigned++
		}
	}
	if unassigned == 0 {
		t.Fatal("instance has no arrivals; pick another seed")
	}
	// A move budget of 1 commits at most one re-association, but
	// placements stay free: every reachable arrival must end assigned.
	var s Searcher
	opts := Options{Budget: Budget{Moves: 1}}
	res, err := s.Search(context.Background(), n, start, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, n, res, opts)
	for i, j := range res.Assign {
		if j == model.Unassigned {
			// Only users with no reachable extender may stay out.
			for _, r := range n.WiFiRates[i] {
				if r > 0 {
					t.Fatalf("user %d left unassigned despite reachable links", i)
				}
			}
		}
	}
	if res.Placed == 0 {
		t.Fatal("Placed not counted")
	}
}

// TestSearchCtxCancellation asserts the anytime contract mid-search: a
// context cancelled before (and during) the search still yields the
// best-so-far valid assignment, stamped StopCtx.
func TestSearchCtxCancellation(t *testing.T) {
	n, start := searchInstance(13, 8, 80)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: search must do no improving work
	var s Searcher
	opts := Options{}
	res, err := s.Search(ctx, n, start, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stop != StopCtx {
		t.Fatalf("stop = %v, want StopCtx", res.Stop)
	}
	if res.Probes != 0 || res.Commits != 0 {
		t.Fatalf("cancelled search did work: %d probes, %d commits", res.Probes, res.Commits)
	}
	var scratch model.EvalScratch
	full, err := model.EvaluateWith(&scratch, n, res.Assign, opts.Model)
	if err != nil {
		t.Fatalf("cancelled search returned invalid assignment: %v", err)
	}
	if full.Aggregate != res.Aggregate {
		t.Fatal("aggregate mismatch under cancellation")
	}

	// Cancellation mid-search: run with a context that dies after a few
	// checkpoints' worth of wall time and confirm validity either way.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 200*time.Microsecond)
	defer cancel2()
	var s2 Searcher
	res, err = s2.Search(ctx2, n, start, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, n, res, opts)
}

// TestSearchProbeBudgetExact: the probe budget is a hard cap on delta
// probes, and the stop reason says so.
func TestSearchProbeBudgetExact(t *testing.T) {
	n, start := searchInstance(21, 8, 80)
	for _, budget := range []int{1, 10, 100, 1000} {
		var s Searcher
		opts := Options{Budget: Budget{Probes: budget}}
		res, err := s.Search(context.Background(), n, start, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Probes > budget {
			t.Fatalf("budget %d: %d probes evaluated", budget, res.Probes)
		}
		checkResult(t, n, res, opts)
	}
}

// TestSearchTimeBudget: an aggressive wall-clock budget returns
// quickly with a valid state and StopTime (or a natural finish on very
// fast machines).
func TestSearchTimeBudget(t *testing.T) {
	n, start := searchInstance(23, 16, 400)
	var s Searcher
	opts := Options{Budget: Budget{Time: 100 * time.Microsecond}}
	startT := time.Now()
	res, err := s.Search(context.Background(), n, start, opts)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(startT); elapsed > time.Second {
		t.Fatalf("time-budgeted search ran %v", elapsed)
	}
	checkResult(t, n, res, opts)
}

// TestSearchDeterministic: with probe budgets (never time), the result
// is a pure function of (network, start, options) — byte-for-byte
// across repeated runs and across fresh vs reused Searchers.
func TestSearchDeterministic(t *testing.T) {
	n, start := searchInstance(31, 8, 60)
	opts := Options{Budget: Budget{Probes: 4000}}
	var s1 Searcher
	r1, err := s1.Search(context.Background(), n, start, opts)
	if err != nil {
		t.Fatal(err)
	}
	var s2 Searcher
	// Warm the second searcher with an unrelated search first: the
	// reused scratch must not leak into the next result.
	other, otherStart := searchInstance(99, 8, 60)
	if _, err := s2.Search(context.Background(), other, otherStart, Options{Budget: Budget{Probes: 500}}); err != nil {
		t.Fatal(err)
	}
	r2, err := s2.Search(context.Background(), n, start, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Aggregate != r2.Aggregate || r1.Probes != r2.Probes || r1.Commits != r2.Commits {
		t.Fatalf("runs diverged: (%v,%d,%d) vs (%v,%d,%d)",
			r1.Aggregate, r1.Probes, r1.Commits, r2.Aggregate, r2.Probes, r2.Commits)
	}
	for i := range r1.Assign {
		if r1.Assign[i] != r2.Assign[i] {
			t.Fatalf("assignments diverged at user %d", i)
		}
	}
}

// TestCandidatesCache pins the cache contract: rate-descending order
// with index tie-breaks, truncation to M, rebuild on Invalidate, and
// no rebuild while the generation is unchanged.
func TestCandidatesCache(t *testing.T) {
	n := &model.Network{
		WiFiRates: [][]float64{{10, 50, 50, 0, 30}},
		PLCCaps:   []float64{100, 100, 100, 100, 100},
	}
	var c Candidates
	c.Ensure(n, 3)
	got := c.For(0)
	want := []int32{1, 2, 4} // 50 (idx 1), 50 (idx 2), 30 — the 10 and 0 links truncated
	if len(got) != len(want) {
		t.Fatalf("For(0) = %v, want %v", got, want)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("For(0) = %v, want %v", got, want)
		}
	}

	// Same generation: Ensure must keep the backing array.
	before := &c.flat[0]
	c.Ensure(n, 3)
	if &c.flat[0] != before {
		t.Fatal("Ensure rebuilt without a generation change")
	}

	// Mutate + Invalidate: the next Ensure sees the new rates.
	n.WiFiRates[0][3] = 60
	n.Invalidate()
	c.Ensure(n, 3)
	got = c.For(0)
	want = []int32{3, 1, 2}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("after Invalidate: For(0) = %v, want %v", got, want)
		}
	}

	// M <= 0 means all reachable links (all 5 once index 3 has a rate).
	c.Ensure(n, -1)
	if len(c.For(0)) != 5 {
		t.Fatalf("M=-1: got %d candidates, want 5 reachable", len(c.For(0)))
	}
}

// TestSearchInvalidStart: validation errors from the evaluator
// propagate instead of panicking or silently proceeding.
func TestSearchInvalidStart(t *testing.T) {
	n, start := searchInstance(37, 6, 20)
	bad := start.Clone()
	bad[0] = n.NumExtenders() + 5
	var s Searcher
	if _, err := s.Search(context.Background(), n, bad, Options{}); err == nil {
		t.Fatal("expected validation error for out-of-range assignment")
	}
}

// FuzzSearchVsFull drives the hill climb over fuzzer-chosen instances
// and budgets, holding the bit-identity invariant: the end state must
// equal a fresh full EvaluateWith.
func FuzzSearchVsFull(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(24), uint16(400))
	f.Add(int64(42), uint8(8), uint8(60), uint16(2000))
	f.Add(int64(7), uint8(3), uint8(10), uint16(0))
	f.Fuzz(func(t *testing.T, base int64, numExt, numUsers uint8, probes uint16) {
		ne := 1 + int(numExt)%16
		nu := 1 + int(numUsers)%96
		n, start := searchInstance(base, ne, nu)
		var s Searcher
		opts := Options{Budget: Budget{Probes: int(probes)}}
		res, err := s.Search(context.Background(), n, start, opts)
		if err != nil {
			t.Fatal(err)
		}
		var scratch model.EvalScratch
		full, err := model.EvaluateWith(&scratch, n, res.Assign, opts.Model)
		if err != nil {
			t.Fatalf("invalid end state: %v", err)
		}
		if full.Aggregate != res.Aggregate {
			t.Fatalf("aggregate %v != fresh %v", res.Aggregate, full.Aggregate)
		}
		if res.Aggregate < res.Start {
			t.Fatalf("lost ground: %v < %v", res.Aggregate, res.Start)
		}
	})
}
