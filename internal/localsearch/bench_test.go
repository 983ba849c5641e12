// Benchmarks for the warm re-solve path, in package localsearch_test so
// they can price the anytime search against the full two-phase solve in
// internal/core without an import cycle. scripts/bench-anytime.sh runs
// these and records the numbers in BENCH_anytime.json.
package localsearch_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/plcwifi/wolt/internal/core"
	"github.com/plcwifi/wolt/internal/localsearch"
	"github.com/plcwifi/wolt/internal/model"
	"github.com/plcwifi/wolt/internal/seed"
)

// warmBenchNetwork mirrors internal/core's benchNetwork (unexported
// there): the 2000×32 enterprise instance of BenchmarkLargeSolve, with
// one deliberate change — PLC capacities are scaled 10×. The stock
// instance is PLC-saturated under the redistribute model (Σ demand/cap
// ≈ 3.5 > 1), where water-filling hands every active cell time 1/|A|
// and the aggregate collapses to Σcaps/|A| for ANY assignment — a
// degenerate quality reference. The scaled caps put the instance in the
// WiFi-bound regime (Σ need ≈ 0.35) where the objective actually
// responds to association choices, so the gap metric means something.
// Wall-clock comparability with BenchmarkLargeSolve is unaffected: the
// solve and probe costs depend on instance shape, not cap magnitude.
func warmBenchNetwork(users, extenders int) *model.Network {
	rng := seed.Root(2020)
	steps := []float64{6, 9, 12, 18, 24, 36, 48, 54}
	n := &model.Network{
		WiFiRates: make([][]float64, users),
		PLCCaps:   make([]float64, extenders),
	}
	for j := range n.PLCCaps {
		n.PLCCaps[j] = 10 * (300 + 500*rng.Float64())
	}
	for i := range n.WiFiRates {
		n.WiFiRates[i] = make([]float64, extenders)
		reachable := false
		for j := range n.WiFiRates[i] {
			if rng.Float64() < 0.5 {
				n.WiFiRates[i][j] = steps[rng.Intn(len(steps))]
				reachable = true
			}
		}
		if !reachable {
			n.WiFiRates[i][rng.Intn(extenders)] = steps[rng.Intn(len(steps))]
		}
	}
	return n
}

// warmFixture is the shared benchmark state: the instance, the full
// WOLT solve (the quality reference), and a churned copy of that
// solution — the "previous association" a warm re-solve starts from.
type warmFixture struct {
	net     *model.Network
	full    model.Assignment
	fullAgg float64
	churned model.Assignment
}

var (
	warmOnce sync.Once
	warm     warmFixture
	warmErr  error
)

// warmSetup solves the 2000×32 instance once with the full two-phase
// pipeline, then applies a deterministic churn burst: 16 users hop to a
// random reachable extender and 4 depart-and-rejoin (arrive
// unassigned). Every benchmark iteration repairs this same start, so
// ns/op is the latency of one warm re-solve under that churn.
func warmSetup() {
	warm.net = warmBenchNetwork(2000, 32)
	var ws core.Scratch
	res, err := core.AssignWith(&ws, warm.net, core.Options{})
	if err != nil {
		warmErr = err
		return
	}
	warm.full = res.Assign
	warm.fullAgg = model.Aggregate(warm.net, warm.full, model.Options{Redistribute: true})

	warm.churned = append(model.Assignment(nil), warm.full...)
	rng := seed.Rand(2020, seed.AnytimeBench, 0)
	users := warm.net.NumUsers()
	for k := 0; k < 16; k++ {
		i := rng.Intn(users)
		for {
			j := rng.Intn(warm.net.NumExtenders())
			if warm.net.WiFiRates[i][j] > 0 {
				warm.churned[i] = j
				break
			}
		}
	}
	for k := 0; k < 4; k++ {
		warm.churned[rng.Intn(users)] = model.Unassigned
	}
}

// benchWarmResolve measures one warm re-solve at the given probe
// budget, reporting the objective gap vs the full solve as "gap_pct"
// (the acceptance target is ≤ 3%).
func benchWarmResolve(b *testing.B, probes int) {
	warmOnce.Do(warmSetup)
	if warmErr != nil {
		b.Fatal(warmErr)
	}
	opts := localsearch.Options{
		Model:  model.Options{Redistribute: true},
		Budget: localsearch.Budget{Probes: probes},
	}
	ctx := context.Background()
	var s localsearch.Searcher
	var last *localsearch.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Search(ctx, warm.net, warm.churned, opts)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.StopTimer()
	gap := 100 * (warm.fullAgg - last.Aggregate) / warm.fullAgg
	b.ReportMetric(gap, "gap_pct")
	b.ReportMetric(100*(warm.fullAgg-last.Start)/warm.fullAgg, "startgap_pct")
	b.ReportMetric(float64(last.Probes), "probes/op")
}

// BenchmarkWarmResolve is the headline number: hill-climbing repair of
// a churn burst on the BenchmarkLargeSolve instance. Compare ns/op
// against BenchmarkLargeSolve in internal/core — the full solve this
// path replaces.
func BenchmarkWarmResolve(b *testing.B) {
	for _, probes := range []int{100, 500, 1000, 2000, 10000} {
		b.Run(fmt.Sprintf("hillclimb/probes=%d", probes), func(b *testing.B) {
			benchWarmResolve(b, probes)
		})
	}
}
