// Package localsearch implements the delta-native anytime warm search:
// deficit-ordered best-move hill climbing over user→extender
// associations, built on model.DeltaEval's O(Δ) ProbeMove/Commit
// primitives (DESIGN.md §10).
//
// The package exists for the warm path. A full WOLT solve (Hungarian
// Phase I + NLP Phase II) costs ~1.25s at enterprise scale; a single
// delta probe costs a few hundred nanoseconds (BenchmarkDeltaProbe,
// BENCH_delta.json) and zero allocations. When the network changes by
// one join, leave, or rate update, the previous assignment is already
// near-optimal, so a few thousand probes of local search recover almost
// all of the objective in well under a millisecond — the regime
// BENCH_anytime.json measures. The per-search overhead around the
// probes is kept proportional to the work done too: candidate lists are
// built only for users a search visits, and the hill climb's visit
// order is a heap popped lazily rather than a full sort.
//
// # Anytime contract
//
// Every search honors this contract (DESIGN.md §11):
//
//   - It is interruptible at probe granularity: a context cancellation,
//     an expired time budget, or an exhausted probe/move budget stops
//     the search at the next checkpoint.
//   - It always returns the best valid assignment found so far — never
//     an error for running out of budget.
//   - The returned aggregate is the committed evaluator state, which is
//     bit-identical to a fresh model.EvaluateWith of the returned
//     assignment (the differential tests assert ==, not ≈).
//
// Determinism: with a probe/move budget the result is a pure function
// of (network, start, Options) for any context; only Budget.Time trades
// that away, since wall-clock checkpoints depend on machine speed.
// Deterministic pipelines (experiments, tests) must budget in probes.
package localsearch

import (
	"context"
	"fmt"
	"math"
	"time"

	"github.com/plcwifi/wolt/internal/model"
)

// improveEps matches the strict-improvement threshold of
// core.AssignIncrementalWith: a move must beat the incumbent aggregate
// by more than this to count, so floating-point noise can never drive
// an endless improve/undo cycle.
const improveEps = 1e-12

// checkEvery is how many probes pass between context/deadline
// checkpoints: at a few hundred ns per probe that is one check every
// ~50-100µs, cheap enough to keep cancellation latency invisible while
// keeping the select off the hot loop.
const checkEvery = 128

// DefaultNeighborhood is the candidate-cache size M: each user may move
// only among its 8 best-rate extenders.
const DefaultNeighborhood = 8

// StopReason records why a search returned.
type StopReason int

const (
	// StopOptimum: no candidate move improves (the climb exhausted
	// its neighborhoods; the natural end state).
	StopOptimum StopReason = iota
	// StopProbes: the probe budget ran out.
	StopProbes
	// StopMoves: the move budget ran out.
	StopMoves
	// StopTime: the wall-clock budget expired.
	StopTime
	// StopCtx: the context was cancelled.
	StopCtx
)

// String names the stop reason for stats and logs.
func (r StopReason) String() string {
	switch r {
	case StopOptimum:
		return "optimum"
	case StopProbes:
		return "probes"
	case StopMoves:
		return "moves"
	case StopTime:
		return "time"
	case StopCtx:
		return "ctx"
	}
	return "unknown"
}

// Budget bounds a search. Zero or negative fields mean unlimited; an
// all-zero Budget runs to the natural end, a single-move local optimum.
// This is the one budget vocabulary shared with strategy.Config.
type Budget struct {
	// Probes caps ProbeMove evaluations, the search's unit of work and
	// the deterministic way to bound it.
	Probes int
	// Moves caps committed re-associations of already-placed users.
	// Placing a previously unassigned user is free, mirroring the
	// arrivals-are-free rule of core.AssignIncrementalWith. A negative
	// value forbids re-associations entirely (placement only), the
	// warm-path encoding of that rule's "budget 0".
	Moves int
	// Time caps wall clock. Results under a time budget depend on
	// machine speed; use Probes where determinism matters.
	Time time.Duration
}

// Unlimited reports whether no dimension of the budget binds.
func (b Budget) Unlimited() bool {
	return b.Probes <= 0 && b.Moves == 0 && b.Time <= 0
}

// Options configures a search.
type Options struct {
	// Model selects the throughput model the committed states are
	// evaluated under (must match what the caller compares against).
	Model model.Options
	// Budget bounds the search; see the anytime contract above.
	Budget Budget
}

// Result reports a finished search. All slices are caller-owned copies.
type Result struct {
	// Assign is the best assignment found (a copy; always valid).
	Assign model.Assignment
	// Aggregate is Assign's total throughput, bit-identical to a fresh
	// model.EvaluateWith under the same model options.
	Aggregate float64
	// Utility is Assign's value under Options.Model.Utility — the
	// quantity the search actually maximized (equal to Aggregate for
	// the zero sum-rate utility), bit-identical to a fresh
	// model.EvaluateWith's Result.Utility.
	Utility float64
	// Start is the utility of the seed assignment after free placement
	// of unassigned users, the baseline the search improved (the
	// aggregate under the zero utility).
	Start float64
	// Placed counts previously unassigned users the seeding pass
	// placed (they do not consume the move budget).
	Placed int
	// Probes counts delta probes actually evaluated, including the
	// seeding pass.
	Probes int
	// Attaches counts full evaluator rebuilds: 1 when the search had to
	// attach to (network, start), 0 when the Matches fast path reused
	// the committed state of the previous search.
	Attaches int
	// Commits counts Commit operations applied: placements plus
	// re-associations.
	Commits int
	// Improving counts strict improvements of the best-so-far
	// score; Improving/Commits is the improving-move ratio
	// surfaced in strategy.Stats.
	Improving int
	// Trajectory is the best-so-far utility after seeding and after
	// each improvement (the aggregate under the zero sum-rate
	// utility): the anytime quality curve.
	Trajectory []float64
	// Stop records why the search returned.
	Stop StopReason
}

// run carries one search's interruption state: remaining budgets, the
// context, the deadline, and the first reason anything tripped.
type run struct {
	ctx        context.Context
	deadline   time.Time
	timed      bool
	probesLeft int // -1 = unlimited
	movesLeft  int // -1 = unlimited
	sinceCheck int
	stop       StopReason
	halted     bool
}

func newRun(ctx context.Context, b Budget) *run {
	if ctx == nil {
		ctx = context.Background()
	}
	r := &run{ctx: ctx, probesLeft: -1, movesLeft: -1}
	if b.Probes > 0 {
		r.probesLeft = b.Probes
	}
	if b.Moves > 0 {
		r.movesLeft = b.Moves
	} else if b.Moves < 0 {
		r.movesLeft = 0 // placement only
	}
	if b.Time > 0 {
		r.deadline = time.Now().Add(b.Time)
		r.timed = true
	}
	r.interrupted() // an already-cancelled ctx halts before any work
	return r
}

// takeProbe reserves one probe evaluation; false means the search must
// stop (budget exhausted or interrupted at a checkpoint).
func (r *run) takeProbe() bool {
	if r.halted {
		return false
	}
	if r.probesLeft == 0 {
		r.haltWith(StopProbes)
		return false
	}
	if r.probesLeft > 0 {
		r.probesLeft--
	}
	r.sinceCheck++
	if r.sinceCheck >= checkEvery {
		r.sinceCheck = 0
		if r.interrupted() {
			return false
		}
	}
	return true
}

// takeMove reserves one budgeted re-association.
func (r *run) takeMove() bool {
	if r.halted {
		return false
	}
	if r.movesLeft == 0 {
		r.haltWith(StopMoves)
		return false
	}
	if r.movesLeft > 0 {
		r.movesLeft--
	}
	return true
}

func (r *run) interrupted() bool {
	select {
	case <-r.ctx.Done():
		r.haltWith(StopCtx)
		return true
	default:
	}
	if r.timed && !time.Now().Before(r.deadline) {
		r.haltWith(StopTime)
		return true
	}
	return false
}

func (r *run) haltWith(reason StopReason) {
	if !r.halted {
		r.halted = true
		r.stop = reason
	}
}

// Searcher owns the reusable state of the search: the delta evaluator,
// the neighborhood cache, and the best-so-far buffers. Like
// core.Scratch, a Searcher is not safe for concurrent use but amortizes
// every allocation across repeated searches — the warm re-solve loop
// runs allocation-free after the first call on a given network size.
type Searcher struct {
	delta model.DeltaEval
	cands Candidates

	best      model.Assignment
	bestScore model.Score
	util      model.Utility
	traj      []float64

	placed, commits, improving int

	// sweep is the deficit-ordered visit heap of the current pass.
	sweep deficitHeap
}

// deficitHeap yields users in descending rate deficit, ties by
// ascending index. That is a strict total order (no deficit is NaN), so
// the pop sequence is exactly the sorted permutation; a heap makes the
// ordering O(users) to build and O(log users) per visited user, and a
// budgeted climb that stops after a few dozen users never pays for
// ordering the rest. Entries carry their deficit, so sifting compares
// neighbors in one array. It lives in the Searcher, so repeated passes
// stay allocation-free.
type deficitHeap []sweepEntry

type sweepEntry struct {
	deficit float64
	user    int
}

// before reports whether e is visited before o.
func (e sweepEntry) before(o sweepEntry) bool {
	if e.deficit != o.deficit {
		return e.deficit > o.deficit
	}
	return e.user < o.user
}

// init heapifies h in place.
func (h deficitHeap) init() {
	for k := len(h)/2 - 1; k >= 0; k-- {
		h.down(k)
	}
}

// pop removes and returns the next user to visit; ok is false once the
// heap is empty.
func (h *deficitHeap) pop() (user int, ok bool) {
	o := *h
	n := len(o) - 1
	if n < 0 {
		return 0, false
	}
	user = o[0].user
	o[0] = o[n]
	*h = o[:n]
	h.down(0)
	return user, true
}

func (h deficitHeap) down(k int) {
	for {
		c := 2*k + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(h[k]) {
			return
		}
		h[k], h[c] = h[c], h[k]
		k = c
	}
}

// Search hill-climbs from the start assignment and returns the best
// state found. The start may contain Unassigned entries (arrivals);
// they are placed greedily first, free of the move budget. The error is
// non-nil only for an invalid input (start fails validation against n)
// — budget exhaustion and cancellation are normal returns per the
// anytime contract.
func (s *Searcher) Search(ctx context.Context, n *model.Network, start model.Assignment, opts Options) (*Result, error) {
	r := newRun(ctx, opts.Budget)
	probesBefore, evalsBefore := s.delta.Probes, s.delta.Evals
	if err := s.begin(n, start, opts, r); err != nil {
		return nil, err
	}
	if !r.halted {
		s.hillClimb(r)
		if !r.halted {
			r.stop = StopOptimum
		}
	}
	res := s.finish(r)
	res.Probes = s.delta.Probes - probesBefore
	res.Attaches = s.delta.Evals - evalsBefore
	return res, nil
}

// Place assigns a single unassigned user to the candidate extender
// that maximizes the aggregate, committing the choice into the
// searcher's evaluator — the online-arrival form behind the strategy
// layer's Add. It returns the chosen extender, or model.Unassigned
// when the user has no reachable candidate. Repeated Places against
// the same evolving assignment hit the Matches fast path, so a stream
// of arrivals costs O(M) probes each, not O(users) rebuilds.
func (s *Searcher) Place(n *model.Network, assign model.Assignment, user int, opts Options) (int, error) {
	if !s.delta.Matches(n, assign, opts.Model) {
		if err := s.delta.Attach(n, assign, opts.Model); err != nil {
			return model.Unassigned, err
		}
	}
	s.cands.Ensure(n, DefaultNeighborhood)
	if got := s.delta.Assigned(user); got != model.Unassigned {
		return model.Unassigned, fmt.Errorf("localsearch: Place(user %d): already assigned to %d", user, got)
	}
	bestTo := -1
	bestSc := model.Score{Primary: math.Inf(-1), Tie: math.Inf(-1)}
	for _, to := range s.cands.For(user) {
		to := int(to)
		if sc := s.delta.ProbeMoveScore(user, model.Unassigned, to); sc.Better(bestSc) {
			bestTo, bestSc = to, sc
		}
	}
	if bestTo < 0 {
		return model.Unassigned, nil
	}
	s.delta.Commit(user, model.Unassigned, bestTo)
	return bestTo, nil
}

// begin attaches the evaluator to (n, start), refreshes the candidate
// cache, places unassigned users, and snapshots the post-placement
// state as the initial best.
func (s *Searcher) begin(n *model.Network, start model.Assignment, opts Options, r *run) error {
	if !s.delta.Matches(n, start, opts.Model) {
		if err := s.delta.Attach(n, start, opts.Model); err != nil {
			return err
		}
	}
	s.cands.Ensure(n, DefaultNeighborhood)
	s.util = opts.Model.Utility
	s.placed, s.commits, s.improving = 0, 0, 0
	s.place(n, r)
	s.bestScore = s.delta.Score()
	s.best = s.delta.AppendAssignment(s.best)
	s.traj = append(s.traj[:0], s.bestScore.Primary)
	return nil
}

// place greedily assigns every Unassigned user to the candidate that
// maximizes the score (the aggregate, under the zero utility) — the
// same arrivals-are-free rule as core.AssignIncrementalWith, so the
// move budget is untouched. Probes still count (they are real work),
// and an exhausted budget leaves the remaining users unassigned, which
// is still a valid state.
func (s *Searcher) place(n *model.Network, r *run) {
	for i := 0; i < n.NumUsers(); i++ {
		if s.delta.Assigned(i) != model.Unassigned {
			continue
		}
		bestTo := -1
		bestSc := model.Score{Primary: math.Inf(-1), Tie: math.Inf(-1)}
		for _, to := range s.cands.For(i) {
			to := int(to)
			if !r.takeProbe() {
				break
			}
			if sc := s.delta.ProbeMoveScore(i, model.Unassigned, to); sc.Better(bestSc) {
				bestTo, bestSc = to, sc
			}
		}
		if bestTo >= 0 {
			s.delta.Commit(i, model.Unassigned, bestTo)
			s.commits++
			s.placed++
		}
		if r.halted {
			return
		}
	}
}

// noteBest snapshots the committed state as the new best.
func (s *Searcher) noteBest() {
	s.bestScore = s.delta.Score()
	s.best = s.delta.AppendAssignment(s.best)
	s.traj = append(s.traj, s.bestScore.Primary)
	s.improving++
}

// hillClimb runs deficit-ordered greedy sweeps: each pass visits users
// in descending rate deficit (the user's best candidate rate minus its
// current rate — plain arithmetic over the candidate cache, no probes)
// and commits each user's best improving move the moment it is found.
// The ordering is what makes warm re-solves sub-millisecond: users
// parked far below their best link — churned arrivals, roamed users —
// are examined within the first few hundred probes, so a tight budget
// repairs the damage long before a full pass would finish. The
// local-optimum certificate is unchanged: only a complete pass that
// commits nothing (and therefore probed every candidate of every user)
// ends the climb. Each commit strictly increases the aggregate by more
// than improveEps, so the loop terminates; the visit order is a pure
// function of the committed state, so trajectories are deterministic
// and a larger probe budget only ever extends a smaller one's.
func (s *Searcher) hillClimb(r *run) {
	for {
		s.sweepOrder()
		committed := false
		for {
			i, ok := s.sweep.pop()
			if !ok {
				break
			}
			from := s.delta.Assigned(i)
			if from == model.Unassigned {
				continue // unplaced only when placement ran out of budget
			}
			bestTo, bestSc := -1, s.bestScore
			for _, to := range s.cands.For(i) {
				to := int(to)
				if to == from {
					continue
				}
				if !r.takeProbe() {
					break
				}
				if sc := s.delta.ProbeMoveScore(i, from, to); sc.BetterEps(bestSc, improveEps) {
					bestTo, bestSc = to, sc
				}
			}
			if bestTo >= 0 && r.takeMove() {
				s.delta.Commit(i, from, bestTo)
				s.commits++
				s.noteBest()
				committed = true
			}
			if r.halted {
				return
			}
		}
		if !committed {
			return // a full clean pass: single-move local optimum
		}
	}
}

// sweepOrder rebuilds the pass heap, keyed by descending rate deficit
// in the utility's own units (model.Utility.Deficit of the best
// reachable rate vs the current rate — plain arithmetic over the rate
// rows and the cached heads, no probes and no candidate lists). The
// zero sum-rate utility keeps the raw rate difference bit-for-bit;
// fairness-hungry members send users at or near zero throughput to the
// front. Unassigned users keep their full best rate as the deficit (+∞
// under finite α > 0), so any user the placement pass could not afford
// pops first.
//
// Users reaching fewer than two extenders are left out: such a user is
// either unassigned (skipped by the climb) or sits on its only
// candidate, so its visit would never probe, commit or consume budget,
// and dropping it leaves the rest of the visit order unchanged.
func (s *Searcher) sweepOrder() {
	s.sweep = resize(s.sweep, len(s.best))[:0]
	rates := s.cands.net.WiFiRates
	for i, head := range s.cands.Heads() {
		if head < 0 {
			continue
		}
		cur := 0.0
		if from := s.delta.Assigned(i); from != model.Unassigned {
			cur = rates[i][from]
		}
		s.sweep = append(s.sweep, sweepEntry{s.util.Deficit(rates[i][head], cur), i})
	}
	s.sweep.init()
}

// finish assembles the caller-owned Result from the search state. The
// Start entry is trajectory[0] (the post-placement baseline).
func (s *Searcher) finish(r *run) *Result {
	res := &Result{
		Assign:     append(model.Assignment(nil), s.best...),
		Aggregate:  s.bestScore.Tie,
		Utility:    s.bestScore.Primary,
		Placed:     s.placed,
		Commits:    s.commits,
		Improving:  s.improving,
		Trajectory: append([]float64(nil), s.traj...),
		Stop:       r.stop,
	}
	if len(s.traj) > 0 {
		res.Start = s.traj[0]
	}
	return res
}
