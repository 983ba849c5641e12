package model

import (
	"strings"
	"testing"

	"github.com/plcwifi/wolt/internal/seed"
)

// deltaInstance builds a random network (with unreachable links) and a
// random partial assignment from the DeltaFuzz stream of base.
func deltaInstance(base int64, numExt, numUsers int) (*Network, Assignment) {
	rng := seed.Rand(base, seed.DeltaFuzz, 0)
	n := &Network{
		WiFiRates: make([][]float64, numUsers),
		PLCCaps:   make([]float64, numExt),
	}
	for j := range n.PLCCaps {
		n.PLCCaps[j] = 10 + rng.Float64()*150
	}
	a := make(Assignment, numUsers)
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
			a[i] = Unassigned
		} else {
			a[i] = reach[rng.Intn(len(reach))]
		}
	}
	return n, a
}

// checkDeltaAgainstFull attaches a DeltaEval to a random instance and
// replays a random move sequence (moves to and from Unassigned
// included), asserting after every probe and commit that the delta
// evaluator agrees bit-for-bit — aggregate and per-user throughputs —
// with a fresh full EvaluateWith of the same assignment.
func checkDeltaAgainstFull(t *testing.T, base int64, numExt, numUsers, numMoves int, opts Options) {
	t.Helper()
	n, assign := deltaInstance(base, numExt, numUsers)
	rng := seed.Rand(base, seed.DeltaFuzz, 1)

	var d DeltaEval
	if err := d.Attach(n, assign, opts); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	var full, fast EvalScratch
	compare := func(step string) {
		t.Helper()
		res, err := EvaluateWith(&full, n, assign, opts)
		if err != nil {
			t.Fatalf("%s: full evaluate: %v", step, err)
		}
		if d.Aggregate() != res.Aggregate {
			t.Fatalf("%s: aggregate %v != full %v", step, d.Aggregate(), res.Aggregate)
		}
		if d.Utility() != res.Utility {
			t.Fatalf("%s: utility %v != full %v (utility %v)", step, d.Utility(), res.Utility, opts.Utility)
		}
		if sc := d.Score(); sc != res.Score() {
			t.Fatalf("%s: score %v != full %v", step, sc, res.Score())
		}
		if opts.Utility.IsSumRate() && res.Utility != res.Aggregate {
			t.Fatalf("%s: sum-rate utility %v != aggregate %v", step, res.Utility, res.Aggregate)
		}
		for i := range assign {
			if d.PerUser(i) != res.PerUser[i] {
				t.Fatalf("%s: user %d throughput %v != full %v", step, i, d.PerUser(i), res.PerUser[i])
			}
		}
		// The SkipValidate fast path must be bit-identical too: this
		// (network, assignment) pair was just validated above.
		fastOpts := opts
		fastOpts.SkipValidate = true
		res2, err := EvaluateWith(&fast, n, assign, fastOpts)
		if err != nil {
			t.Fatalf("%s: fast evaluate: %v", step, err)
		}
		if res2.Aggregate != res.Aggregate {
			t.Fatalf("%s: SkipValidate aggregate %v != %v", step, res2.Aggregate, res.Aggregate)
		}
	}
	compare("attach")
	if !d.Matches(n, assign, opts) {
		t.Fatal("Matches = false for committed state")
	}

	probe := assign.Clone()
	for m := 0; m < numMoves; m++ {
		i := rng.Intn(numUsers)
		var targets []int
		for j, r := range n.WiFiRates[i] {
			if r > 0 {
				targets = append(targets, j)
			}
		}
		targets = append(targets, Unassigned)
		to := targets[rng.Intn(len(targets))]
		from := assign[i]

		agg, own := d.ProbeMoveUser(i, from, to)
		sc := d.ProbeMoveScore(i, from, to)
		copy(probe, assign)
		probe[i] = to
		res, err := EvaluateWith(&full, n, probe, opts)
		if err != nil {
			t.Fatalf("move %d: full evaluate: %v", m, err)
		}
		if agg != res.Aggregate {
			t.Fatalf("move %d (%d: %d→%d): probe aggregate %v != full %v",
				m, i, from, to, agg, res.Aggregate)
		}
		if own != res.PerUser[i] {
			t.Fatalf("move %d (%d: %d→%d): probe own %v != full %v",
				m, i, from, to, own, res.PerUser[i])
		}
		if sc != res.Score() {
			t.Fatalf("move %d (%d: %d→%d): probe score %v != full %v",
				m, i, from, to, sc, res.Score())
		}

		d.Commit(i, from, to)
		assign[i] = to
		compare("commit")
	}
}

// deltaOptions enumerates the four Redistribute × FixedShare combos.
var deltaOptions = []Options{
	{},
	{Redistribute: true},
	{FixedShare: true},
	{Redistribute: true, FixedShare: true},
}

// deltaUtilities is the utility dimension of the differential sweep:
// the zero sum-rate member plus one representative of every non-trivial
// branch (log, the α=2 fast path, fractional α, max-min).
var deltaUtilities = []Utility{
	{},
	AlphaFair(1),
	AlphaFair(2),
	AlphaFair(0.5),
	MaxMinFairness(),
}

func TestDeltaMatchesFull(t *testing.T) {
	for _, opts := range deltaOptions {
		for base := int64(0); base < 8; base++ {
			checkDeltaAgainstFull(t, base, int(base%5)+1, int(base*3)%17+1, 40, opts)
		}
	}
}

// TestDeltaMatchesFullUtilities replays the differential move sequences
// with every utility member: probe/commit utilities and Scores must
// agree bit-for-bit (==) with fresh full evaluations.
func TestDeltaMatchesFullUtilities(t *testing.T) {
	for _, u := range deltaUtilities {
		for _, opts := range deltaOptions {
			opts.Utility = u
			for base := int64(0); base < 4; base++ {
				checkDeltaAgainstFull(t, base, int(base%5)+2, int(base*5)%17+2, 30, opts)
			}
		}
	}
}

// FuzzDeltaVsFull is the differential fuzz harness: DeltaEval's probes
// and commits must agree bit-for-bit with a fresh EvaluateWith across
// random networks, moves to/from Unassigned, and every
// Redistribute/FixedShare combination.
func FuzzDeltaVsFull(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(10), uint8(0), uint8(0))
	f.Add(int64(2), uint8(1), uint8(6), uint8(1), uint8(1))
	f.Add(int64(3), uint8(5), uint8(20), uint8(2), uint8(2))
	f.Add(int64(4), uint8(2), uint8(15), uint8(3), uint8(3))
	f.Add(int64(5), uint8(4), uint8(18), uint8(1), uint8(4))
	f.Fuzz(func(t *testing.T, base int64, ext, users, optBits, utilSel uint8) {
		numExt := int(ext%6) + 1
		numUsers := int(users%24) + 1
		opts := Options{
			Redistribute: optBits&1 != 0,
			FixedShare:   optBits&2 != 0,
			Utility:      deltaUtilities[int(utilSel)%len(deltaUtilities)],
		}
		checkDeltaAgainstFull(t, base, numExt, numUsers, 24, opts)
	})
}

func TestDeltaGenerationGuard(t *testing.T) {
	n, assign := deltaInstance(11, 3, 8)
	var d DeltaEval
	if err := d.Attach(n, assign, Options{Redistribute: true}); err != nil {
		t.Fatal(err)
	}
	n.Invalidate()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("probe after Invalidate did not panic")
		}
		if !strings.Contains(r.(string), "mutated") {
			t.Fatalf("unexpected panic %v", r)
		}
	}()
	d.Aggregate()
}

func TestDeltaAttachValidates(t *testing.T) {
	n, assign := deltaInstance(12, 3, 8)
	var d DeltaEval
	bad := assign.Clone()
	bad[0] = 99
	if err := d.Attach(n, bad, Options{}); err == nil {
		t.Error("out-of-range extender: want error")
	}
	if err := d.Attach(n, assign[:4], Options{}); err == nil {
		t.Error("short assignment: want error")
	}
}

func TestDeltaMatchesDetectsDrift(t *testing.T) {
	n, assign := deltaInstance(13, 4, 10)
	var d DeltaEval
	opts := Options{Redistribute: true}
	if err := d.Attach(n, assign, opts); err != nil {
		t.Fatal(err)
	}
	if !d.Matches(n, assign, opts) {
		t.Error("Matches = false right after Attach")
	}
	if d.Matches(n, assign, Options{}) {
		t.Error("Matches = true under different options")
	}
	ext := assign.Clone()
	var moved int
	for i, j := range ext {
		if j != Unassigned {
			ext[i] = Unassigned
			moved = i
			break
		}
	}
	if d.Matches(n, ext, opts) {
		t.Errorf("Matches = true after external move of user %d", moved)
	}
	n.Invalidate()
	if d.Matches(n, assign, opts) {
		t.Error("Matches = true after Invalidate")
	}
}

func TestDeltaCommitNoOp(t *testing.T) {
	n, assign := deltaInstance(14, 3, 9)
	var d DeltaEval
	if err := d.Attach(n, assign, Options{Redistribute: true}); err != nil {
		t.Fatal(err)
	}
	before := d.Aggregate()
	for i, j := range assign {
		d.Commit(i, j, j)
	}
	if got := d.Aggregate(); got != before {
		t.Fatalf("no-op commits changed aggregate: %v != %v", got, before)
	}
}

// TestDeltaPrefixProbeSequence is the differential check of the
// prefix/tail probe and its per-(user, from-cell) memo. A seeded random
// sequence probes every target of one user, commits a move of another
// user into or out of that user's cell (or re-attaches after an in-place
// rate edit of one of its cell-mates), and probes the same (user, from)
// pairs again: a stale memo or prefix would show up as a probe that
// differs from a fresh EvaluateWith of the hypothetical assignment.
func TestDeltaPrefixProbeSequence(t *testing.T) {
	for _, opts := range deltaOptions {
		for base := int64(0); base < 6; base++ {
			n, assign := deltaInstance(100+base, 3, 40)
			rng := seed.Rand(base, seed.DeltaFuzz, 2)
			var d DeltaEval
			if err := d.Attach(n, assign, opts); err != nil {
				t.Fatal(err)
			}
			var full EvalScratch
			hyp := assign.Clone()
			probeAll := func(step, i int) {
				t.Helper()
				from := assign[i]
				for to := Unassigned; to < n.NumExtenders(); to++ {
					if to != Unassigned && n.WiFiRates[i][to] <= 0 {
						continue
					}
					agg, own := d.ProbeMoveUser(i, from, to)
					sc := d.ProbeMoveScore(i, from, to)
					copy(hyp, assign)
					hyp[i] = to
					res, err := EvaluateWith(&full, n, hyp, opts)
					if err != nil {
						t.Fatal(err)
					}
					if agg != res.Aggregate || own != res.PerUser[i] || sc != res.Score() {
						t.Fatalf("opts %+v base %d step %d: probe (%d: %d→%d) = (%v, %v, %v), full (%v, %v, %v)",
							opts, base, step, i, from, to, agg, own, sc, res.Aggregate, res.PerUser[i], res.Score())
					}
				}
			}
			for step := 0; step < 60; step++ {
				i := rng.Intn(len(assign))
				probeAll(step, i)
				cell := assign[i]
				// A cell-mate or an outsider of i's cell (a random user
				// when i is unassigned), moved into or out of it.
				j := rng.Intn(len(assign))
				if j == i {
					continue
				}
				switch {
				case cell != Unassigned && rng.Intn(4) == 0:
					// Re-attach after editing a rate of the cell in place.
					for u := range assign {
						if u != i && assign[u] == cell {
							n.WiFiRates[u][cell] = 1 + rng.Float64()*60
							break
						}
					}
					n.Invalidate()
					if err := d.Attach(n, assign, opts); err != nil {
						t.Fatal(err)
					}
				case assign[j] == cell || cell == Unassigned || n.WiFiRates[j][cell] <= 0:
					d.Commit(j, assign[j], Unassigned)
					assign[j] = Unassigned
				default:
					d.Commit(j, assign[j], cell)
					assign[j] = cell
				}
				probeAll(step, i)
			}
		}
	}
}
