package strategy

import (
	"time"

	"github.com/plcwifi/wolt/internal/core"
	"github.com/plcwifi/wolt/internal/localsearch"
	"github.com/plcwifi/wolt/internal/model"
)

func init() {
	Register("wolt", newWOLT("wolt", core.Phase2ProjectedGradient, model.Utility{}))
	Register("wolt-coordinate", newWOLT("wolt-coordinate", core.Phase2Coordinate, model.Utility{}))
	// The utility family: wolt-pf is the α=1 (proportional-fair) member,
	// wolt-alpha the parameterized one (Config.Alpha; 0 reproduces wolt
	// bit-for-bit, math.Inf(1) is max-min via its smooth Phase II
	// surrogate). Both run the full two-phase machinery — Phase I
	// coverage seeding, then the α-fair projected-gradient Phase II —
	// and emit the same per-solve Stats as every other variant.
	Register("wolt-pf", newWOLT("wolt-pf", 0, model.ProportionalFairness()))
	Register("wolt-alpha", func(cfg Config) Strategy {
		return newWOLT("wolt-alpha", 0, model.AlphaFair(cfg.Alpha))(cfg)
	})
	Register("wolt-incremental", func(cfg Config) Strategy {
		budget := cfg.Budget.Moves
		switch {
		case budget == 0:
			budget = -1 // core's "unlimited"
		case budget < 0:
			budget = 0 // placement only
		}
		s := &incrementalStrategy{cfg: cfg, opts: coreOptions(cfg, 0), budget: budget}
		// A probe or time budget opts Reassign into the warm path: the
		// previous assignment seeds an anytime hill climb instead of a
		// fresh two-phase target solve (core.WarmOptions).
		if cfg.Budget.Probes > 0 || cfg.Budget.Time > 0 {
			s.opts.Warm = &core.WarmOptions{
				Search: localsearch.Options{Budget: cfg.Budget},
				Ctx:    cfg.Ctx,
			}
		}
		return s
	})
}

// coreOptions derives the two-phase solver options of a WOLT variant:
// the named variant's Phase II engine overrides Config.Core.Solver, and
// Config.Workers flows into the NLP solver unless the caller tuned
// NLP.Workers explicitly.
func coreOptions(cfg Config, solver core.Phase2Solver) core.Options {
	opts := cfg.Core
	if solver != 0 {
		opts.Solver = solver
	}
	if opts.NLP.Workers == 0 {
		opts.NLP.Workers = cfg.Workers
	}
	return opts
}

// woltStats builds the Stats record of one two-phase solve.
func woltStats(name string, n *model.Network, res *core.Result, total time.Duration, evals int) Stats {
	st := Stats{
		Strategy:               name,
		Users:                  n.NumUsers(),
		Extenders:              n.NumExtenders(),
		Phase1:                 res.Phase1Time,
		Phase2:                 res.Phase2Time,
		Total:                  total,
		Phase1Users:            len(res.PhaseIUsers),
		HungarianAugmentations: res.Phase1Augmentations,
		Evaluations:            evals,
	}
	if res.Phase2 != nil {
		st.Phase2Iterations = res.Phase2.Iterations
		st.PolishSweeps = res.Phase2.PolishSweeps
	}
	return st
}

// woltStrategy runs the full two-phase algorithm (projected-gradient or
// coordinate Phase II) under a fixed utility member; epochs recompute
// from scratch.
type woltStrategy struct {
	name    string
	cfg     Config
	opts    core.Options
	scratch core.Scratch
	eval    model.EvalScratch
}

// newWOLT builds the factory of a two-phase variant. A zero solver
// keeps Config.Core.Solver (defaulting to projected gradient); a zero
// utility keeps Config.Core.Utility, so the plain variants stay
// bit-identical to the pre-utility registry.
func newWOLT(name string, solver core.Phase2Solver, utility model.Utility) Factory {
	return func(cfg Config) Strategy {
		opts := coreOptions(cfg, solver)
		if !utility.IsSumRate() {
			opts.Utility = utility
		}
		return &woltStrategy{name: name, cfg: cfg, opts: opts}
	}
}

// Name implements Strategy.
func (w *woltStrategy) Name() string { return w.name }

// Solve implements Strategy.
func (w *woltStrategy) Solve(n *model.Network) (model.Assignment, error) {
	start := time.Now()
	res, err := core.AssignWith(&w.scratch, n, w.opts)
	if err != nil {
		return nil, err
	}
	st := woltStats(w.name, n, res, time.Since(start), 0)
	if w.cfg.Observer != nil {
		// One full evaluation per observed solve prices the result in
		// the caller's model (and its utility member) — the common
		// stats path every variant, including the fairness members,
		// now reports through.
		evalOpts := w.cfg.ModelOpts
		evalOpts.Utility = w.opts.Utility
		if ev, everr := model.EvaluateWith(&w.eval, n, res.Assign, evalOpts); everr == nil {
			st.Aggregate = ev.Aggregate
			st.Utility = ev.Utility
		}
	}
	w.cfg.emit(st)
	return res.Assign, nil
}

// Reassign implements Reassigner: WOLT's controller recomputes the full
// association at every epoch; the previous assignment is ignored.
func (w *woltStrategy) Reassign(n *model.Network, _ model.Assignment) (model.Assignment, error) {
	return w.Solve(n)
}

// incrementalStrategy is the budgeted re-association extension: Reassign
// steers the previous association toward the full WOLT target while
// moving at most Config.Budget.Moves existing users; Solve (no previous
// state) is a plain two-phase solve.
type incrementalStrategy struct {
	cfg     Config
	opts    core.Options
	budget  int
	scratch core.Scratch
}

// Name implements Strategy.
func (s *incrementalStrategy) Name() string { return "wolt-incremental" }

// Solve implements Strategy.
func (s *incrementalStrategy) Solve(n *model.Network) (model.Assignment, error) {
	start := time.Now()
	res, err := core.AssignWith(&s.scratch, n, s.opts)
	if err != nil {
		return nil, err
	}
	s.cfg.emit(woltStats("wolt-incremental", n, res, time.Since(start), 0))
	return res.Assign, nil
}

// Reassign implements Reassigner.
func (s *incrementalStrategy) Reassign(n *model.Network, prev model.Assignment) (model.Assignment, error) {
	start := time.Now()
	res, err := core.AssignIncrementalWith(&s.scratch, n, prev, s.budget, s.opts, s.cfg.ModelOpts)
	if err != nil {
		return nil, err
	}
	var st Stats
	if res.Target != nil {
		st = woltStats("wolt-incremental", n, res.Target, time.Since(start), res.Evals)
	} else {
		// Warm path: no target solve ran, so there are no phase
		// diagnostics — only the local search's anytime record.
		st = Stats{
			Strategy:    "wolt-incremental",
			Users:       n.NumUsers(),
			Extenders:   n.NumExtenders(),
			Total:       time.Since(start),
			Evaluations: res.Evals,
		}
	}
	if res.Search != nil {
		st.Commits = res.Search.Commits
		st.Improving = res.Search.Improving
		st.Aggregate = res.Search.Aggregate
		st.Utility = res.Search.Utility
		st.Trajectory = res.Search.Trajectory
		st.Stop = res.Search.Stop.String()
	}
	st.DeltaProbes = res.DeltaProbes
	s.cfg.emit(st)
	return res.Assign, nil
}
