package experiments

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// fastOpts keeps experiment tests quick: fewer trials, shorter MAC runs
// and emulation windows. The seed is chosen so the paper's qualitative
// shapes hold at these small trial counts under the seed.Derive streams.
func fastOpts() Options {
	return Options{
		Seed:        2027,
		Trials:      4,
		MACDuration: 5,
		EmuDuration: 120 * time.Millisecond,
		Users:       24,
		Extenders:   8,
	}
}

func TestFig2aShape(t *testing.T) {
	res, err := Fig2a(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Locations) != 3 {
		t.Fatalf("got %d locations", len(res.Locations))
	}
	for _, loc := range res.Locations {
		// Throughput-fair: both users within 10% of each other.
		if rel := math.Abs(loc.User1Mbps-loc.User2Mbps) / loc.User1Mbps; rel > 0.1 {
			t.Errorf("%s: users differ %.0f%%", loc.Name, rel*100)
		}
	}
	// Anomaly: the stationary user's throughput decreases monotonically
	// as the other user moves away.
	if !(res.Locations[0].User1Mbps > res.Locations[1].User1Mbps &&
		res.Locations[1].User1Mbps > res.Locations[2].User1Mbps) {
		t.Errorf("anomaly shape broken: %v, %v, %v",
			res.Locations[0].User1Mbps, res.Locations[1].User1Mbps, res.Locations[2].User1Mbps)
	}
	assertRenders(t, res)
}

func TestFig2bShape(t *testing.T) {
	res, err := Fig2b(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Links) != 4 || len(res.Estimated) != 4 {
		t.Fatalf("got %d links, %d estimates", len(res.Links), len(res.Estimated))
	}
	// Capacities spread over a meaningful range and estimation tracks
	// truth.
	for k, link := range res.Links {
		if link.CapacityMbps <= 0 {
			t.Errorf("link %d capacity %v", k, link.CapacityMbps)
		}
		if rel := math.Abs(res.Estimated[k]-link.CapacityMbps) / link.CapacityMbps; rel > 0.15 {
			t.Errorf("link %d estimate %.0f%% off", k, rel*100)
		}
	}
	if res.Links[0].CapacityMbps <= res.Links[3].CapacityMbps {
		t.Error("short clean path should beat long branched path")
	}
	assertRenders(t, res)
}

func TestFig2cShape(t *testing.T) {
	res, err := Fig2c(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Shared) != 4 {
		t.Fatalf("got %d active-set sizes", len(res.Shared))
	}
	for a, row := range res.Shared {
		active := a + 1
		for j, tp := range row {
			want := res.Solo[j] / float64(active)
			if rel := math.Abs(tp-want) / want; rel > 0.25 {
				t.Errorf("A=%d extender %d: %v, want ≈ solo/%d = %v", active, j, tp, active, want)
			}
		}
	}
	assertRenders(t, res)
}

func TestFig3GoldenNumbers(t *testing.T) {
	res, err := Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.RSSIMbps-240.0/11.0) > 1e-9 {
		t.Errorf("RSSI = %v, want 240/11 ≈ 21.8", res.RSSIMbps)
	}
	if math.Abs(res.GreedyMbps-30) > 1e-9 {
		t.Errorf("Greedy = %v, want 30", res.GreedyMbps)
	}
	if math.Abs(res.OptimalMbps-40) > 1e-9 {
		t.Errorf("Optimal = %v, want 40", res.OptimalMbps)
	}
	if math.Abs(res.WOLTMbps-40) > 1e-9 {
		t.Errorf("WOLT = %v, want 40 (matches optimal)", res.WOLTMbps)
	}
	assertRenders(t, res)
}

func TestFig4Shape(t *testing.T) {
	res, err := Fig4(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Policies) != 3 {
		t.Fatalf("got %d policies", len(res.Policies))
	}
	if res.ImprovementOverRSSI <= 0 {
		t.Errorf("WOLT improvement over RSSI = %v, want positive", res.ImprovementOverRSSI)
	}
	// Fractions are sane.
	for _, v := range []float64{res.BetterVsGreedy, res.WorseVsGreedy, res.BetterVsRSSI, res.WorseVsRSSI} {
		if v < 0 || v > 1 {
			t.Errorf("fraction %v outside [0,1]", v)
		}
	}
	// Fidelity (Fig 4c): measured tracks model within 30% on every
	// topology.
	for k := range res.Policies[0].ModelMbps {
		m, meas := res.Policies[0].ModelMbps[k], res.Policies[0].MeasuredMbps[k]
		if rel := math.Abs(meas-m) / m; rel > 0.3 {
			t.Errorf("topology %d: measured %v vs model %v (%.0f%%)", k, meas, m, rel*100)
		}
	}
	assertRenders(t, res)
}

func TestFig5Shape(t *testing.T) {
	res, err := Fig5(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Worst) != 3 || len(res.Best) != 3 {
		t.Fatalf("got %d worst, %d best", len(res.Worst), len(res.Best))
	}
	// The best WOLT users outperform the worst (by construction of the
	// sort) and the net effect favors the best group, the paper's story.
	if res.Best[0].WOLTMbps < res.Worst[2].WOLTMbps {
		t.Error("best/worst ordering broken")
	}
	assertRenders(t, res)
}

func TestFig6aShape(t *testing.T) {
	res, err := Fig6a(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 4 {
		t.Fatalf("got %d policies", len(res.Results))
	}
	if res.Results[0].Policy != "WOLT" {
		t.Fatalf("first policy %q", res.Results[0].Policy)
	}
	// WOLT improves on every baseline on average.
	for name, ratio := range res.MeanImprovement {
		if ratio <= 1 {
			t.Errorf("WOLT/%s mean ratio = %v, want > 1", name, ratio)
		}
	}
	for _, points := range res.CDFs {
		if len(points) == 0 {
			t.Error("empty CDF")
		}
	}
	assertRenders(t, res)
}

func TestFig6bcShape(t *testing.T) {
	res, err := Fig6bc(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.WOLT) != 3 || len(res.Greedy) != 3 {
		t.Fatalf("got %d/%d epochs", len(res.WOLT), len(res.Greedy))
	}
	var woltTotal, greedyTotal float64
	for k := range res.WOLT {
		woltTotal += res.WOLT[k].Aggregate
		greedyTotal += res.Greedy[k].Aggregate
		if res.Greedy[k].Reassignments != 0 {
			t.Errorf("greedy reassigned in epoch %d", k)
		}
	}
	if woltTotal <= greedyTotal {
		t.Errorf("WOLT total %v not above Greedy %v", woltTotal, greedyTotal)
	}
	// Population grows under the paper's churn rates.
	if res.WOLT[2].Users <= res.WOLT[0].Users {
		t.Errorf("population did not grow: %d -> %d", res.WOLT[0].Users, res.WOLT[2].Users)
	}
	assertRenders(t, res)
}

func TestFairnessShape(t *testing.T) {
	res, err := Fairness(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	wolt := res.MeanJain("WOLT")
	greedy := res.MeanJain("Greedy")
	if wolt <= 0 || wolt > 1 {
		t.Errorf("WOLT Jain = %v", wolt)
	}
	// The paper's §V-E finding: WOLT's fairness is at least comparable to
	// (in their runs, better than) Greedy's.
	if wolt < greedy*0.9 {
		t.Errorf("WOLT Jain %v far below Greedy %v", wolt, greedy)
	}
	if res.MeanJain("nope") != 0 {
		t.Error("unknown policy should report 0")
	}
	assertRenders(t, res)
}

func TestNPHardAgreement(t *testing.T) {
	res, err := NPHard(Options{Seed: 7, Trials: 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.Agreed != res.Instances {
		t.Errorf("reduction agreed on %d/%d instances", res.Agreed, res.Instances)
	}
	if res.Positives == 0 || res.Positives == res.Instances {
		t.Errorf("degenerate instance mix: %d/%d positive", res.Positives, res.Instances)
	}
	assertRenders(t, res)
}

func TestGapNearOptimal(t *testing.T) {
	res, err := Gap(Options{Seed: 3, Trials: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instances != 10 {
		t.Fatalf("ran %d instances", res.Instances)
	}
	for k, ratio := range res.Ratios {
		if ratio > 1+1e-9 {
			t.Errorf("instance %d: WOLT ratio %v exceeds optimal", k, ratio)
		}
		if ratio < 0.5 {
			t.Errorf("instance %d: WOLT ratio %v below 0.5", k, ratio)
		}
	}
	assertRenders(t, res)
}

// assertRenders checks the Tabler output is well-formed.
func assertRenders(t *testing.T, r Tabler) {
	t.Helper()
	tables := r.Tables()
	if len(tables) == 0 {
		t.Fatal("no tables")
	}
	for _, tab := range tables {
		s := tab.String()
		if !strings.Contains(s, tab.Header[0]) {
			t.Errorf("table missing header: %q", s)
		}
		for _, row := range tab.Rows {
			if len(row) != len(tab.Header) {
				t.Errorf("row width %d != header width %d in %q", len(row), len(tab.Header), tab.Caption)
			}
		}
	}
}

func TestSweepShape(t *testing.T) {
	res, err := Sweep(Options{Seed: 11, Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 18 { // 3 extenders × 3 users × 2 capacity classes
		t.Fatalf("got %d sweep points, want 18", len(res.Results))
	}
	for _, r := range res.Results {
		if r.WOLT <= 0 {
			t.Errorf("point %+v: non-positive WOLT aggregate", r.Point)
		}
	}
	assertRenders(t, res)
}

func TestMobilityShape(t *testing.T) {
	res, err := Mobility(Options{Seed: 5, Trials: 6, Users: 18, Extenders: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ticks) != 6 {
		t.Fatalf("got %d ticks", len(res.Ticks))
	}
	_, _, full, budgeted := res.Means()
	staticMean, _, _, _ := res.Means()
	// Re-associating must not lose to never re-associating under motion.
	if full < staticMean*0.98 {
		t.Errorf("full recompute mean %v below static %v", full, staticMean)
	}
	// The budgeted variant should track the full recompute closely.
	if budgeted < 0.85*full {
		t.Errorf("budgeted mean %v far below full %v", budgeted, full)
	}
	_, fullMoves, budgetMoves := res.TotalMoves()
	if budgetMoves > res.Budget*len(res.Ticks) {
		t.Errorf("budget violated: %d moves over %d ticks", budgetMoves, len(res.Ticks))
	}
	if fullMoves < budgetMoves {
		t.Errorf("full recompute moved less (%d) than budgeted (%d)?", fullMoves, budgetMoves)
	}
	assertRenders(t, res)
}

func TestChannelsShape(t *testing.T) {
	res, err := Channels(Options{Seed: 13, Trials: 2, Users: 18, Extenders: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 5 {
		t.Fatalf("got %d channel points", len(res.Points))
	}
	// More channels → fewer contenders and at least as much throughput.
	for k := 1; k < len(res.Points); k++ {
		if res.Points[k].MeanContenders > res.Points[k-1].MeanContenders+1e-9 {
			t.Errorf("contenders increased with more channels: %+v", res.Points)
		}
		if res.Points[k].AggregateMbps < res.Points[k-1].AggregateMbps-1e-9 {
			t.Errorf("aggregate decreased with more channels: %+v", res.Points)
		}
	}
	// Unlimited channels restore the interference-free assumption.
	last := res.Points[len(res.Points)-1]
	if last.MeanContenders != 1 {
		t.Errorf("unlimited channels still contended: %v", last.MeanContenders)
	}
	assertRenders(t, res)
}

func TestVerifyAllClaimsHold(t *testing.T) {
	res, err := Verify(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(Claims()) {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Err != nil {
			t.Errorf("claim %s errored: %v", row.Claim.ID, row.Err)
		}
		if !row.OK {
			t.Errorf("claim %s deviates: %s (paper: %s)", row.Claim.ID, row.Measured, row.Claim.Paper)
		}
	}
	if res.Passed() != len(res.Rows) {
		t.Errorf("passed %d/%d", res.Passed(), len(res.Rows))
	}
	assertRenders(t, res)
}

func TestQoSShape(t *testing.T) {
	res, err := QoS(Options{Seed: 3, Trials: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 5 {
		t.Fatalf("got %d points", len(res.Points))
	}
	prevAdmitted := 1.1
	for _, p := range res.Points {
		if p.Admitted < 0 || p.Admitted > 1 {
			t.Errorf("admitted %v outside [0,1]", p.Admitted)
		}
		// Admission can only get harder as guarantees grow.
		if p.Admitted > prevAdmitted+1e-9 {
			t.Errorf("admission grew with demand: %+v", res.Points)
		}
		prevAdmitted = p.Admitted
		if p.Admitted > 0 && p.TotalMbps <= 0 {
			t.Errorf("admitted level %v with no throughput", p.GuaranteeMbps)
		}
	}
	// Small guarantees are admitted at least sometimes (a priority user
	// out of WiFi range of every extender — floor rate 1 Mbps — is
	// legitimately inadmissible even at 2 Mbps).
	if res.Points[0].Admitted == 0 {
		t.Errorf("2 Mbps guarantees never admitted: %+v", res.Points[0])
	}
	assertRenders(t, res)
}

// TestAnytimeCurve runs the quality-vs-probe-budget experiment on an
// instance small enough to enumerate, so the optimal column is live:
// no budgeted run may beat the exhaustive optimum, and the
// deterministic climb must be monotone in budget.
func TestAnytimeCurve(t *testing.T) {
	res, err := Anytime(Options{Seed: 7, Users: 8, Extenders: 4})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(anytimeBudgets); len(res.Runs) != want {
		t.Fatalf("got %d runs, want %d", len(res.Runs), want)
	}
	if res.WOLT <= 0 {
		t.Fatal("non-positive WOLT reference")
	}
	if res.Optimal <= 0 {
		t.Fatal("8 users x 4 extenders should be enumerable")
	}
	prev := 0.0
	for _, run := range res.Runs {
		if run.Aggregate <= 0 {
			t.Errorf("@ %d: non-positive aggregate", run.Budget)
		}
		if run.Aggregate > res.Optimal+1e-9 {
			t.Errorf("@ %d: aggregate %v beats optimal %v", run.Budget, run.Aggregate, res.Optimal)
		}
		if run.Probes > run.Budget {
			t.Errorf("@ %d: %d probes exceed the budget", run.Budget, run.Probes)
		}
		if run.Stop == "" {
			t.Errorf("@ %d: empty stop reason", run.Budget)
		}
		// The climb follows one deterministic trajectory; a larger
		// budget only ever extends it.
		if run.Aggregate < prev-1e-9 {
			t.Errorf("@ %d: aggregate %v below smaller budget's %v", run.Budget, run.Aggregate, prev)
		}
		prev = run.Aggregate
	}
	// At the top budget the climb should have converged close to the
	// WOLT reference on an instance this small.
	if top := res.Runs[len(res.Runs)-1]; top.Aggregate < 0.9*res.WOLT {
		t.Errorf("@ %d: aggregate %v below 0.9x WOLT %v", top.Budget, top.Aggregate, res.WOLT)
	}
	assertRenders(t, res)
}

// TestAnytimeHillClimbPinned pins the hill-climb curve of the 120-user
// × 16-extender enterprise instance at seed 1 exactly: aggregate (==,
// not ≈), probes, commits, improving moves and stop reason at every
// budget. Any change to the climb's visit order, move acceptance or
// budget accounting shows up here.
func TestAnytimeHillClimbPinned(t *testing.T) {
	res, err := Anytime(Options{Seed: 1, Users: 120, Extenders: 16})
	if err != nil {
		t.Fatal(err)
	}
	want := []AnytimeRun{
		{Budget: 100, Aggregate: 480.386418657454, Probes: 100, Commits: 13, Improving: 0, Stop: "probes"},
		{Budget: 1_000, Aggregate: 567.212195255239, Probes: 1000, Commits: 120, Improving: 0, Stop: "probes"},
		{Budget: 10_000, Aggregate: 581.0401600848314, Probes: 4320, Commits: 176, Improving: 56, Stop: "optimum"},
		{Budget: 100_000, Aggregate: 581.0401600848314, Probes: 4320, Commits: 176, Improving: 56, Stop: "optimum"},
		{Budget: 1_000_000, Aggregate: 581.0401600848314, Probes: 4320, Commits: 176, Improving: 56, Stop: "optimum"},
	}
	if !reflect.DeepEqual(res.Runs, want) {
		t.Fatalf("hill-climb curve drifted:\n got %+v\nwant %+v", res.Runs, want)
	}
}
