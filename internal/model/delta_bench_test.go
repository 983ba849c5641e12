package model

import (
	"testing"

	"github.com/plcwifi/wolt/internal/seed"
)

// benchDeltaInstance builds a dense (all links reachable) network with a
// full random assignment at LargeSolve scale, seeded from the DeltaBench
// stream so the probe schedule is reproducible.
func benchDeltaInstance(numUsers, numExt int) (*Network, Assignment) {
	rng := seed.Rand(2020, seed.DeltaBench, 0)
	n := &Network{
		WiFiRates: make([][]float64, numUsers),
		PLCCaps:   make([]float64, numExt),
	}
	for j := range n.PLCCaps {
		n.PLCCaps[j] = 40 + rng.Float64()*160
	}
	a := make(Assignment, numUsers)
	for i := range n.WiFiRates {
		row := make([]float64, numExt)
		for j := range row {
			row[j] = 2 + rng.Float64()*70
		}
		n.WiFiRates[i] = row
		a[i] = rng.Intn(numExt)
	}
	return n, a
}

const (
	benchDeltaUsers = 2000
	benchDeltaExt   = 32
)

// BenchmarkDeltaProbe measures one single-move what-if through the
// delta evaluator: O(cell + active) work and zero allocations.
func BenchmarkDeltaProbe(b *testing.B) {
	n, assign := benchDeltaInstance(benchDeltaUsers, benchDeltaExt)
	opts := Options{Redistribute: true}
	var d DeltaEval
	if err := d.Attach(n, assign, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		user := i % benchDeltaUsers
		from := assign[user]
		to := (from + 1 + i%(benchDeltaExt-1)) % benchDeltaExt
		d.ProbeMove(user, from, to)
	}
}

// BenchmarkDeltaFullProbe answers the identical what-if questions with a
// full EvaluateWith over the mutated assignment (validation hoisted via
// SkipValidate, buffers reused) — the cost every probe loop paid before
// the delta evaluator existed.
func BenchmarkDeltaFullProbe(b *testing.B) {
	n, assign := benchDeltaInstance(benchDeltaUsers, benchDeltaExt)
	opts := Options{Redistribute: true, SkipValidate: true}
	if err := validateAssignment(n, assign); err != nil {
		b.Fatal(err)
	}
	var s EvalScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		user := i % benchDeltaUsers
		from := assign[user]
		to := (from + 1 + i%(benchDeltaExt-1)) % benchDeltaExt
		assign[user] = to
		if _, err := EvaluateWith(&s, n, assign, opts); err != nil {
			b.Fatal(err)
		}
		assign[user] = from
	}
}

// BenchmarkDeltaProbeScore measures the lexicographic-score probe under
// a non-trivial utility (proportional fair): the per-cell utility terms
// ride the same single water-fill pass, so the probe stays O(Δ) and
// zero-alloc like the plain aggregate probe.
func BenchmarkDeltaProbeScore(b *testing.B) {
	n, assign := benchDeltaInstance(benchDeltaUsers, benchDeltaExt)
	opts := Options{Redistribute: true, Utility: AlphaFair(1)}
	var d DeltaEval
	if err := d.Attach(n, assign, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		user := i % benchDeltaUsers
		from := assign[user]
		to := (from + 1 + i%(benchDeltaExt-1)) % benchDeltaExt
		d.ProbeMoveScore(user, from, to)
	}
}

// TestProbeMoveScoreAllocs pins the acceptance criterion directly:
// utility-scored probes allocate nothing, for every utility member.
func TestProbeMoveScoreAllocs(t *testing.T) {
	n, assign := benchDeltaInstance(200, 16)
	for _, u := range deltaUtilities {
		var d DeltaEval
		if err := d.Attach(n, assign, Options{Redistribute: true, Utility: u}); err != nil {
			t.Fatal(err)
		}
		user := 0
		allocs := testing.AllocsPerRun(200, func() {
			from := assign[user]
			to := (from + 1) % 16
			d.ProbeMoveScore(user, from, to)
			user = (user + 1) % 200
		})
		if allocs != 0 {
			t.Errorf("utility %v: ProbeMoveScore allocates %v per probe, want 0", u, allocs)
		}
	}
}

// TestDeltaCommitAllocs pins the warm Commit path at zero allocations:
// once a cell's member, reciprocal and prefix lists have grown to hold a
// user, moving it out and back in again reuses their capacity.
func TestDeltaCommitAllocs(t *testing.T) {
	n, assign := benchDeltaInstance(200, 16)
	var d DeltaEval
	if err := d.Attach(n, assign, Options{Redistribute: true}); err != nil {
		t.Fatal(err)
	}
	user := 0
	cycle := func() {
		from := assign[user]
		to := (from + 1) % 16
		d.Commit(user, from, to)
		d.Commit(user, to, from)
		user = (user + 1) % 200
	}
	for k := 0; k < 200; k++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Errorf("warm Commit allocates %v per move pair, want 0", allocs)
	}
}

// BenchmarkDeltaCommit measures a committed move (member-list edit, two
// cell recomputations and the water-fill re-run).
func BenchmarkDeltaCommit(b *testing.B) {
	n, assign := benchDeltaInstance(benchDeltaUsers, benchDeltaExt)
	opts := Options{Redistribute: true}
	var d DeltaEval
	if err := d.Attach(n, assign, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		user := i % benchDeltaUsers
		from := assign[user]
		to := (from + 1 + i%(benchDeltaExt-1)) % benchDeltaExt
		d.Commit(user, from, to)
		assign[user] = to
	}
}
