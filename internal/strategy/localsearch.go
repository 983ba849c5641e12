package strategy

import (
	"time"

	"github.com/plcwifi/wolt/internal/localsearch"
	"github.com/plcwifi/wolt/internal/model"
)

const hillClimbName = "wolt-hillclimb"

func init() {
	Register(hillClimbName, newLocalSearch)
}

// lsStrategy adapts the internal/localsearch hill climb to the registry:
// Solve searches from an empty association (placement seeds it),
// Reassign searches from the previous one — the warm path that makes
// per-epoch re-solves sub-millisecond — and Add places one arrival
// through the evaluator's Matches fast path. All three forms honor
// Config.Budget and Config.Ctx under the anytime contract (DESIGN.md
// §11): they always return the best-so-far valid association.
type lsStrategy struct {
	cfg    Config
	opts   localsearch.Options
	search localsearch.Searcher
	empty  model.Assignment
}

func newLocalSearch(cfg Config) Strategy {
	opts := localsearch.Options{Model: cfg.ModelOpts, Budget: cfg.Budget}
	if cfg.Alpha != 0 {
		// Config.Alpha re-aims the search at the α-fair objective:
		// deficit ordering and move acceptance both follow the
		// utility's Score.
		opts.Model.Utility = model.AlphaFair(cfg.Alpha)
	}
	return &lsStrategy{cfg: cfg, opts: opts}
}

// Name implements Strategy.
func (s *lsStrategy) Name() string { return hillClimbName }

// lsStats builds the Stats record of one search.
func lsStats(n *model.Network, res *localsearch.Result, total time.Duration) Stats {
	return Stats{
		Strategy:    hillClimbName,
		Users:       n.NumUsers(),
		Extenders:   n.NumExtenders(),
		Total:       total,
		Evaluations: res.Attaches,
		DeltaProbes: res.Probes,
		Commits:     res.Commits,
		Improving:   res.Improving,
		Aggregate:   res.Aggregate,
		Utility:     res.Utility,
		Trajectory:  res.Trajectory,
		Stop:        res.Stop.String(),
	}
}

// Solve implements Strategy: the cold form seeds from an all-unassigned
// association (the free placement pass greedily builds one) and then
// searches. It is not meant to rival the two-phase solve on quality —
// register it for completeness and for the budget-vs-quality curve of
// the anytime experiment.
func (s *lsStrategy) Solve(n *model.Network) (model.Assignment, error) {
	if cap(s.empty) < n.NumUsers() {
		s.empty = make(model.Assignment, n.NumUsers())
	}
	s.empty = s.empty[:n.NumUsers()]
	for i := range s.empty {
		s.empty[i] = model.Unassigned
	}
	return s.run(n, s.empty)
}

// Reassign implements Reassigner: the warm path. The previous
// association seeds the search, arrivals (Unassigned entries) are
// placed for free, and the budgeted climb repairs the rest.
func (s *lsStrategy) Reassign(n *model.Network, prev model.Assignment) (model.Assignment, error) {
	return s.run(n, prev)
}

func (s *lsStrategy) run(n *model.Network, start model.Assignment) (model.Assignment, error) {
	t0 := time.Now()
	res, err := s.search.Search(s.cfg.Ctx, n, start, s.opts)
	if err != nil {
		return nil, err
	}
	s.cfg.emit(lsStats(n, res, time.Since(t0)))
	return res.Assign, nil
}

// Add implements Online: one arrival, placed on the candidate extender
// that maximizes the aggregate. Returns the chosen extender (or
// model.Unassigned when the user has no reachable candidate, matching
// the greedy baseline's convention).
func (s *lsStrategy) Add(n *model.Network, assign model.Assignment, user int) (int, error) {
	j, err := s.search.Place(n, assign, user, s.opts)
	if err != nil {
		return model.Unassigned, err
	}
	assign[user] = j
	return j, nil
}
