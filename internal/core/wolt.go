// Package core implements WOLT's user-association algorithm (Algorithm 1
// in the paper), the paper's primary contribution.
//
// The full problem (Problem 1) — maximize Σ_j min(T_WiFi_j, T_PLC_j) over
// all associations — is NP-hard (Theorem 1, reduction from PARTITION).
// WOLT therefore solves it in two polynomial phases:
//
//	Phase I: relax "every user must connect" and require "every extender
//	serves ≥1 user". Lemma 2 shows an optimum then assigns exactly one
//	user per extender, and Theorem 2 shows the relaxed problem is exactly
//	an assignment problem with utilities u_ij = min(c_j/|A|, r_ij) —
//	solved optimally by the Hungarian algorithm in O(|A|³).
//
//	Phase II: pin the Phase I users and place the remaining users to
//	maximize the total WiFi throughput (Problem 2), a nonlinear program
//	with provably integral optima (Theorem 3), solved by internal/nlp.
package core

import (
	"context"
	"fmt"
	"time"

	"github.com/plcwifi/wolt/internal/hungarian"
	"github.com/plcwifi/wolt/internal/localsearch"
	"github.com/plcwifi/wolt/internal/model"
	"github.com/plcwifi/wolt/internal/nlp"
)

// unreachableUtility marks user-extender pairs with no WiFi connectivity
// in the Phase I utility matrix. It is finite (the Hungarian solver
// rejects infinities) but dominated by any real pairing, so such a pair is
// only matched when a user or extender has no alternative; those matches
// are discarded afterwards.
const unreachableUtility = -1e12

// Phase2Solver selects the Phase II engine.
type Phase2Solver int

const (
	// Phase2ProjectedGradient solves the continuous relaxation with
	// projected gradient ascent and extracts an integral solution
	// (the paper's approach). The default.
	Phase2ProjectedGradient Phase2Solver = iota + 1
	// Phase2Coordinate uses the discrete best-response solver.
	Phase2Coordinate
)

// Phase1Solver selects the assignment-problem engine for Phase I.
type Phase1Solver int

const (
	// Phase1Hungarian is the O(|A|³) shortest-augmenting-path solver the
	// paper specifies. The default.
	Phase1Hungarian Phase1Solver = iota + 1
	// Phase1Auction uses Bertsekas' auction algorithm with ε-scaling —
	// an alternative with different practical scaling and a natural
	// distributed implementation.
	Phase1Auction
)

// Options configures Assign.
type Options struct {
	// Phase1 selects the assignment engine (default Hungarian).
	Phase1 Phase1Solver
	// Solver selects the Phase II engine (default projected gradient).
	Solver Phase2Solver
	// NLP tunes the projected-gradient solver.
	NLP nlp.Options
	// Utility selects the Phase II objective family (the zero value is
	// the paper's sum-throughput, bit-identical to the pre-utility
	// solver). It overrides NLP.Utility when non-zero and drives the
	// coordinate solver's cell objective; Phase I is utility-agnostic
	// (its Lemma 2 seeding is about coverage, not the objective).
	Utility model.Utility
	// Warm, when non-nil, switches AssignIncrementalWith to the warm
	// local-search path: the previous assignment seeds an anytime
	// search (internal/localsearch) instead of re-running the two-phase
	// solve for a target. Sub-millisecond at enterprise scale, at a
	// small objective gap (BENCH_anytime.json). AssignWith ignores it.
	Warm *WarmOptions
}

// WarmOptions configures the warm incremental path.
type WarmOptions struct {
	// Search carries the hill climb's probe/time budget.
	// Search.Model is overwritten with the evalOpts of the
	// AssignIncrementalWith call, and Search.Budget.Moves with its
	// budget argument, so the move cap stays a single knob across both
	// paths.
	Search localsearch.Options
	// Ctx makes the re-solve interruptible under the anytime contract;
	// nil means context.Background().
	Ctx context.Context
}

// Result is a complete WOLT association.
type Result struct {
	// Assign maps every user to an extender.
	Assign model.Assignment
	// PhaseIUsers lists the users selected in Phase I (the set U1),
	// one per extender where possible.
	PhaseIUsers []int
	// PhaseIUtility is the total assignment utility Σ u_ij of Phase I.
	PhaseIUtility float64
	// Phase2 carries the Phase II solver diagnostics (nil when every
	// user was already placed in Phase I).
	Phase2 *nlp.Solution
	// Phase1Time and Phase2Time are the wall-clock durations of the two
	// phases (utility build + matching, and the NLP solve).
	Phase1Time time.Duration
	Phase2Time time.Duration
	// Phase1Augmentations counts the Hungarian solver's shortest-
	// augmenting-path steps; zero when the auction solver ran.
	Phase1Augmentations int
}

// Scratch holds reusable buffers for repeated WOLT solves: the Phase I
// utility matrix and the Hungarian solver's workspace. The zero value is
// ready to use; buffers grow to the largest network seen and are
// retained. A Scratch is not safe for concurrent use; give each worker
// goroutine its own.
type Scratch struct {
	util    [][]float64
	utilBuf []float64
	hung    hungarian.Workspace
	// delta backs AssignIncrementalWith's candidate-move probes; it is
	// re-attached per call and its buffers persist across calls.
	delta model.DeltaEval
	// warm backs the warm incremental path's local search; its
	// evaluator, neighborhood cache and best-so-far buffers persist
	// across re-solves, which is what keeps the steady state
	// allocation-free.
	warm localsearch.Searcher
}

// matrix shapes the scratch's utility buffer to rows×cols.
func (s *Scratch) matrix(rows, cols int) [][]float64 {
	if cap(s.utilBuf) < rows*cols {
		s.utilBuf = make([]float64, rows*cols)
	}
	s.utilBuf = s.utilBuf[:rows*cols]
	if cap(s.util) < rows {
		s.util = make([][]float64, rows)
	}
	s.util = s.util[:rows]
	for i := 0; i < rows; i++ {
		s.util[i] = s.utilBuf[i*cols : (i+1)*cols]
	}
	return s.util
}

// Utilities returns the Phase I utility matrix u_ij = min(c_j/|A|, r_ij)
// (Algorithm 1 lines 1–3). Unreachable pairs get unreachableUtility.
func Utilities(n *model.Network) [][]float64 {
	return UtilitiesWith(nil, n)
}

// UtilitiesWith is Utilities with an optional caller-provided scratch.
// When s is non-nil the returned matrix is owned by the scratch and is
// overwritten by the next UtilitiesWith/AssignWith call on it; a nil
// scratch allocates a caller-owned matrix, exactly like Utilities.
func UtilitiesWith(s *Scratch, n *model.Network) [][]float64 {
	numExt := float64(n.NumExtenders())
	var u [][]float64
	if s != nil {
		u = s.matrix(n.NumUsers(), n.NumExtenders())
	} else {
		u = make([][]float64, n.NumUsers())
		for i := range u {
			u[i] = make([]float64, n.NumExtenders())
		}
	}
	for i, row := range n.WiFiRates {
		ui := u[i]
		for j, r := range row {
			if r <= 0 {
				ui[j] = unreachableUtility
				continue
			}
			fair := n.PLCCaps[j] / numExt
			if r < fair {
				ui[j] = r
			} else {
				ui[j] = fair
			}
		}
	}
	return u
}

// Assign runs the full two-phase WOLT algorithm on a network.
func Assign(n *model.Network, opts Options) (*Result, error) {
	return AssignWith(nil, n, opts)
}

// AssignWith is Assign with an optional caller-provided Scratch, reusing
// the Phase I utility matrix and the Hungarian workspace across calls.
// The returned Result is always caller-owned; only the intermediate
// solver state lives in the scratch. A nil scratch behaves exactly like
// Assign.
func AssignWith(s *Scratch, n *model.Network, opts Options) (*Result, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	if n.NumUsers() == 0 {
		return &Result{Assign: model.Assignment{}}, nil
	}
	switch opts.Solver {
	case 0:
		opts.Solver = Phase2ProjectedGradient
	case Phase2ProjectedGradient, Phase2Coordinate:
	default:
		return nil, fmt.Errorf("core: unknown phase II solver %d", opts.Solver)
	}
	switch opts.Phase1 {
	case 0:
		opts.Phase1 = Phase1Hungarian
	case Phase1Hungarian, Phase1Auction:
	default:
		return nil, fmt.Errorf("core: unknown phase I solver %d", opts.Phase1)
	}

	// Phase I: assignment problem over u_ij.
	phase1Start := time.Now()
	var local Scratch
	if s == nil {
		s = &local
	}
	utilities := UtilitiesWith(s, n)
	// The solver's total is not used directly: forced unreachable
	// pairings are discarded below, so the utility is re-summed over the
	// retained pairs only.
	var (
		match         []int
		err           error
		augmentations int
	)
	if opts.Phase1 == Phase1Auction {
		match, _, err = hungarian.AuctionMaximize(utilities)
	} else {
		match, _, err = s.hung.Maximize(utilities)
		augmentations = s.hung.Augmentations()
	}
	if err != nil {
		return nil, fmt.Errorf("phase I: %w", err)
	}

	fixed := make(model.Assignment, n.NumUsers())
	var phase1 []int
	phase1Utility := 0.0
	for i, j := range match {
		if j == hungarian.Unmatched || n.WiFiRates[i][j] <= 0 {
			// Either more users than extenders (left for Phase II) or a
			// forced unreachable pairing (discarded).
			fixed[i] = model.Unassigned
			continue
		}
		fixed[i] = j
		phase1 = append(phase1, i)
		phase1Utility += utilities[i][j]
	}

	res := &Result{
		PhaseIUsers:         phase1,
		PhaseIUtility:       phase1Utility,
		Phase1Time:          time.Since(phase1Start),
		Phase1Augmentations: augmentations,
	}

	// Phase II: place the remaining users.
	if len(phase1) == n.NumUsers() {
		res.Assign = fixed
		return res, nil
	}
	phase2Start := time.Now()
	problem := nlp.Problem{Rates: n.WiFiRates, Fixed: fixed}
	utility := opts.Utility
	if utility.IsSumRate() {
		utility = opts.NLP.Utility
	}
	var sol *nlp.Solution
	switch opts.Solver {
	case Phase2ProjectedGradient:
		nlpOpts := opts.NLP
		nlpOpts.Utility = utility
		sol, err = nlp.SolveProjectedGradient(problem, nlpOpts)
	case Phase2Coordinate:
		// AlphaFairCell of the zero utility is SumThroughput itself, so
		// the default path is exactly the old SolveCoordinate.
		sol, err = nlp.SolveCoordinateWith(problem, nlp.AlphaFairCell(utility))
	default:
		return nil, fmt.Errorf("core: unknown phase II solver %d", opts.Solver)
	}
	if err != nil {
		return nil, fmt.Errorf("phase II: %w", err)
	}
	res.Assign = sol.Assign
	res.Phase2 = sol
	res.Phase2Time = time.Since(phase2Start)
	return res, nil
}

// Lemma1Improves reports whether, per Lemma 1, connecting a user with WiFi
// rate r to a cell whose current members have the given rates increases
// (or preserves) the cell's aggregate WiFi throughput. The condition is
// that the user's inverse rate does not exceed the cell's mean inverse
// rate: 1/r ≤ (1/|N|)·Σ 1/r_i.
func Lemma1Improves(memberRates []float64, r float64) bool {
	if r <= 0 {
		return false
	}
	if len(memberRates) == 0 {
		return true
	}
	var invSum float64
	for _, m := range memberRates {
		if m <= 0 {
			return false
		}
		invSum += 1 / m
	}
	return 1/r <= invSum/float64(len(memberRates))
}
