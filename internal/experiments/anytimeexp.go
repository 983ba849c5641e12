package experiments

import (
	"fmt"
	"strconv"

	"github.com/plcwifi/wolt/internal/model"
	"github.com/plcwifi/wolt/internal/netsim"
	"github.com/plcwifi/wolt/internal/parallel"
	"github.com/plcwifi/wolt/internal/stats"
	"github.com/plcwifi/wolt/internal/strategy"
	"github.com/plcwifi/wolt/internal/topology"
)

// anytimeBudgets is the probe-budget sweep: 10^2 … 10^6 single-move
// probes per cold solve.
var anytimeBudgets = []int{100, 1_000, 10_000, 100_000, 1_000_000}

// AnytimeRun is one probe-budget point of the curve. All fields are
// deterministic for any worker count (wall-clock timings are
// deliberately absent; bench-anytime.sh measures latency separately).
type AnytimeRun struct {
	// Budget is the probe cap handed to strategy.Config.Budget.Probes.
	Budget int
	// Aggregate is the achieved objective, re-scored by the full
	// evaluator (bit-identical to the search's own bookkeeping).
	Aggregate float64
	// Probes/Commits/Improving are the search's own counters.
	Probes, Commits, Improving int
	// Stop is the anytime stop reason ("optimum", "probes", …).
	Stop string
}

// AnytimeResult is the quality-vs-probe-budget curve of the anytime
// hill climb (wolt-hillclimb) on one enterprise instance: the climb
// solves cold at each budget, and the achieved aggregate is compared
// against the full two-phase WOLT solve (and the exhaustive optimum
// when the instance is small enough to enumerate).
type AnytimeResult struct {
	Users, Extenders int
	// WOLT is the full two-phase solve's aggregate — the quality
	// reference every budgeted run is gapped against.
	WOLT float64
	// Optimal is the exhaustive optimum, or 0 when the instance exceeds
	// the optimal strategy's size guard (the default 36-user enterprise
	// instance does; small test instances do not).
	Optimal float64
	Runs    []AnytimeRun
}

// Anytime runs the quality-vs-probe-budget experiment: one enterprise
// instance (Options.Users × Options.Extenders), the full WOLT reference
// solve, then the budget points fanned over Options.Workers goroutines.
// Each point owns a fresh strategy instance, so results are
// bit-identical for any worker count (DESIGN.md §7; time budgets are
// never used here).
func Anytime(opts Options) (*AnytimeResult, error) {
	opts = opts.withDefaults(1)
	scen := NewEnterpriseScenario(opts.Extenders, opts.Users, opts.Seed)
	topo, err := topology.Generate(scen.Topology)
	if err != nil {
		return nil, err
	}
	inst := netsim.Build(topo, scen.Radio)

	res := &AnytimeResult{
		Users:     inst.Net.NumUsers(),
		Extenders: inst.Net.NumExtenders(),
	}

	wolt, err := strategy.New("wolt", strategy.Config{ModelOpts: Redistribute, Workers: opts.Workers})
	if err != nil {
		return nil, err
	}
	refAssign, err := wolt.Solve(inst.Net)
	if err != nil {
		return nil, err
	}
	res.WOLT = model.Aggregate(inst.Net, refAssign, Redistribute)

	// The exhaustive reference only exists when |A|^|U| is enumerable.
	// The optimal strategy's own size guard decides: a rejection means
	// the curve is gapped against WOLT alone (the default 36-user
	// enterprise instance; small test instances get the extra column).
	optimal, err := strategy.New("optimal", strategy.Config{ModelOpts: Redistribute})
	if err != nil {
		return nil, err
	}
	if optAssign, err := optimal.Solve(inst.Net); err == nil {
		res.Optimal = model.Aggregate(inst.Net, optAssign, Redistribute)
	}

	runs, err := parallel.Map(opts.context(), len(anytimeBudgets), opts.Workers, func(c int) (AnytimeRun, error) {
		budget := anytimeBudgets[c]
		var got []strategy.Stats
		st, err := strategy.New("wolt-hillclimb", strategy.Config{
			ModelOpts: Redistribute,
			Budget:    strategy.Budget{Probes: budget},
			Observer:  func(s strategy.Stats) { got = append(got, s) },
		})
		if err != nil {
			return AnytimeRun{}, err
		}
		assign, err := st.Solve(inst.Net)
		if err != nil {
			return AnytimeRun{}, fmt.Errorf("wolt-hillclimb @ %d probes: %w", budget, err)
		}
		if len(got) == 0 {
			return AnytimeRun{}, fmt.Errorf("experiments: wolt-hillclimb emitted no stats")
		}
		s := got[len(got)-1]
		return AnytimeRun{
			Budget:    budget,
			Aggregate: model.Aggregate(inst.Net, assign, Redistribute),
			Probes:    s.DeltaProbes,
			Commits:   s.Commits,
			Improving: s.Improving,
			Stop:      s.Stop,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	res.Runs = runs
	return res, nil
}

// Tables implements Tabler.
func (r *AnytimeResult) Tables() []Table {
	optCaption := "instance too large to enumerate"
	if r.Optimal > 0 {
		optCaption = "optimal " + f1(r.Optimal) + " Mbps"
	}
	t := Table{
		Caption: fmt.Sprintf(
			"Anytime hill climb — quality vs probe budget (%d users × %d extenders; WOLT %s Mbps; %s)",
			r.Users, r.Extenders, f1(r.WOLT), optCaption),
		Header: []string{"probe budget", "aggregate Mbps",
			"vs WOLT", "vs optimal", "probes", "commits", "improving", "stop"},
	}
	for _, run := range r.Runs {
		vsOpt := "-"
		if r.Optimal > 0 {
			vsOpt = f2(stats.Ratio(run.Aggregate, r.Optimal))
		}
		t.Rows = append(t.Rows, []string{
			strconv.Itoa(run.Budget), f1(run.Aggregate),
			f2(stats.Ratio(run.Aggregate, r.WOLT)), vsOpt,
			strconv.Itoa(run.Probes), strconv.Itoa(run.Commits),
			strconv.Itoa(run.Improving), run.Stop,
		})
	}
	return []Table{t}
}
