package localsearch

import (
	"context"
	"math"
	"slices"
	"sort"
	"testing"

	"github.com/plcwifi/wolt/internal/model"
	"github.com/plcwifi/wolt/internal/seed"
)

// eagerCandidates is the reference the lazy cache must reproduce: every
// reachable extender of user i, stably sorted by descending rate (so
// equal rates keep ascending index order), truncated to m (m <= 0 or
// beyond the extender count meaning all).
func eagerCandidates(n *model.Network, i, m int) []int32 {
	var out []int32
	for j, r := range n.WiFiRates[i] {
		if r > 0 {
			out = append(out, int32(j))
		}
	}
	row := n.WiFiRates[i]
	sort.SliceStable(out, func(a, b int) bool { return row[out[a]] > row[out[b]] })
	if m > 0 && len(out) > m {
		out = out[:m]
	}
	return out
}

// TestCandidatesLazyMatchesEager drives the lazily built cache through
// random networks, neighborhood sizes, in-place rate edits with
// Invalidate and user-count changes, querying users in random order
// (some twice, some never), and holds every answer — and every sweep
// head — equal to an eager build. Rates are drawn from a small set so
// ties are common.
func TestCandidatesLazyMatchesEager(t *testing.T) {
	rng := seed.Rand(1, seed.LocalSearchFuzz, 7)
	row := func(numExt int) []float64 {
		r := make([]float64, numExt)
		for j := range r {
			if rng.Intn(4) != 0 {
				r[j] = float64(5 * (1 + rng.Intn(6)))
			}
		}
		return r
	}
	var c Candidates
	for round := 0; round < 40; round++ {
		numExt := 1 + rng.Intn(9)
		n := &model.Network{PLCCaps: make([]float64, numExt)}
		for u := 1 + rng.Intn(30); u > 0; u-- {
			n.WiFiRates = append(n.WiFiRates, row(numExt))
		}
		for step := 0; step < 6; step++ {
			m := rng.Intn(numExt+3) - 1
			c.Ensure(n, m)
			for q := 0; q < 2*n.NumUsers(); q++ {
				i := rng.Intn(n.NumUsers())
				if got, want := c.For(i), eagerCandidates(n, i, m); !slices.Equal(got, want) {
					t.Fatalf("round %d step %d m=%d: For(%d) = %v, want %v (rates %v)",
						round, step, m, i, got, want, n.WiFiRates[i])
				}
			}
			heads := c.Heads()
			if len(heads) != n.NumUsers() {
				t.Fatalf("round %d step %d: %d heads for %d users", round, step, len(heads), n.NumUsers())
			}
			for i, got := range heads {
				want := int32(-1)
				if all := eagerCandidates(n, i, 0); len(all) >= 2 {
					want = all[0]
				}
				if got != want {
					t.Fatalf("round %d step %d: Heads()[%d] = %d, want %d (rates %v)",
						round, step, i, got, want, n.WiFiRates[i])
				}
			}
			switch rng.Intn(3) {
			case 0: // in-place rate edit
				n.WiFiRates[rng.Intn(n.NumUsers())] = row(numExt)
			case 1: // a user arrives
				n.WiFiRates = append(n.WiFiRates, row(numExt))
			default: // a user departs
				if n.NumUsers() > 1 {
					k := rng.Intn(n.NumUsers())
					n.WiFiRates = append(n.WiFiRates[:k], n.WiFiRates[k+1:]...)
				}
			}
			n.Invalidate()
		}
	}
}

// TestDeficitHeapMatchesSort holds the sweep heap's pop sequence equal
// to a full sort by (deficit desc, index asc) — ties, ±Inf deficits and
// user subsets (the sweep leaves some users out) included — so the
// heap-ordered climb visits users exactly as a sorted sweep would.
func TestDeficitHeapMatchesSort(t *testing.T) {
	rng := seed.Rand(2, seed.LocalSearchFuzz, 7)
	values := []float64{math.Inf(-1), -3, 0, 0.5, 2, 7, math.Inf(1)}
	var h deficitHeap
	for round := 0; round < 200; round++ {
		h = h[:0]
		for i := rng.Intn(64); i > 0; i-- {
			if rng.Intn(5) != 0 { // a subset of users, as the sweep builds
				h = append(h, sweepEntry{values[rng.Intn(len(values))], i})
			}
		}
		rng.Shuffle(len(h), func(a, b int) { h[a], h[b] = h[b], h[a] })
		want := slices.Clone(h)
		sort.Slice(want, func(a, b int) bool {
			if want[a].deficit != want[b].deficit {
				return want[a].deficit > want[b].deficit
			}
			return want[a].user < want[b].user
		})
		h.init()
		var got []sweepEntry
		for len(h) > 0 {
			top := h[0]
			i, _ := h.pop()
			if i != top.user {
				t.Fatalf("round %d: pop returned %d, heap top was %d", round, i, top.user)
			}
			got = append(got, top)
		}
		if _, ok := h.pop(); ok {
			t.Fatalf("round %d: pop on an empty heap reported a user", round)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("round %d: heap pops %v, sorted order %v", round, got, want)
		}
	}
}

// TestWarmPathAllocs pins the warm repair path at zero allocations: once
// a Searcher has run on a network, re-attaching after an Invalidate,
// lazily rebuilding candidate lists through For, and one budgeted
// hill-climb pass (probes and commits included) allocate nothing. Only
// the caller-owned Result that Search returns costs memory.
func TestWarmPathAllocs(t *testing.T) {
	n, start := searchInstance(11, 6, 300)
	opts := Options{Model: model.Options{Redistribute: true}, Budget: Budget{Probes: 200}}
	var s Searcher
	if _, err := s.Search(context.Background(), n, start, opts); err != nil {
		t.Fatal(err)
	}
	var climbs int
	pass := func() {
		n.Invalidate()
		r := run{ctx: context.Background(), probesLeft: opts.Budget.Probes, movesLeft: -1}
		if err := s.begin(n, start, opts, &r); err != nil {
			t.Fatal(err)
		}
		s.hillClimb(&r)
		climbs += s.commits
	}
	pass()
	if allocs := testing.AllocsPerRun(20, pass); allocs != 0 {
		t.Errorf("warm begin + hill-climb pass allocates %v, want 0", allocs)
	}
	if climbs == 0 {
		t.Error("the guarded passes committed nothing; the guard would not cover Commit")
	}

	n.Invalidate()
	s.cands.Ensure(n, DefaultNeighborhood)
	user := 0
	if allocs := testing.AllocsPerRun(100, func() {
		s.cands.For(user)
		user = (user + 1) % n.NumUsers()
	}); allocs != 0 {
		t.Errorf("Candidates.For allocates %v per lazy build, want 0", allocs)
	}
	if got, want := s.cands.For(0), eagerCandidates(n, 0, DefaultNeighborhood); !slices.Equal(got, want) {
		t.Errorf("For(0) = %v, want %v", got, want)
	}
}
