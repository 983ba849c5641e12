// Package strategy is the unified association-strategy layer: every
// algorithm that maps a network to a user→extender assignment — WOLT and
// its variants as well as the paper's baselines — registers here under a
// stable name, and every consumer (the flow-level simulator, the theory
// and measurement experiments, the mobility experiment, the control
// plane and cmd/woltsim) resolves strategies through this registry
// instead of importing the algorithm packages directly.
//
// A Strategy instance carries its own reusable scratch buffers and, when
// it needs randomness, its own rng derived from Config.Seed — so
// instances are cheap to call repeatedly, never allocate steady-state,
// and remain bit-deterministic when fanned out per-worker under
// internal/parallel (one instance per goroutine; see DESIGN.md §7–§8).
//
// Every Solve/Reassign emits a Stats record through the optional
// Config.Observer hook: phase wall-clock timings, Hungarian
// augmentations, Phase II iterations and polish sweeps, and model
// evaluations — the per-solve instrumentation behind the "solve"
// experiment and BENCH_solve.json.
package strategy

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"github.com/plcwifi/wolt/internal/baseline"
	"github.com/plcwifi/wolt/internal/core"
	"github.com/plcwifi/wolt/internal/localsearch"
	"github.com/plcwifi/wolt/internal/model"
	"github.com/plcwifi/wolt/internal/seed"
)

// Budget is the one budget vocabulary shared by every budget-aware
// strategy (an alias of localsearch.Budget): Probes caps O(Δ) delta
// probes, Moves caps committed re-associations of already-placed users
// (arrivals are always free; negative Moves means placement only), Time
// caps wall clock. Zero fields are unlimited, so the zero Budget
// preserves every strategy's full-effort behavior. Only Probes and
// Moves are deterministic; Budget.Time depends on machine speed
// (DESIGN.md §7, §11).
type Budget = localsearch.Budget

// Strategy computes a complete association for a network. Instances are
// stateful (scratch buffers, rng) and not safe for concurrent use; give
// each worker goroutine its own instance via New.
type Strategy interface {
	// Name returns the registry name the instance was created under.
	Name() string
	// Solve computes an association from scratch.
	Solve(n *model.Network) (model.Assignment, error)
}

// Online is implemented by strategies with an online arrival form: Add
// places a single new user into an existing partial assignment, mutating
// assign in place, and returns the chosen extender.
type Online interface {
	Strategy
	Add(n *model.Network, assign model.Assignment, user int) (int, error)
}

// Reassigner is implemented by strategies whose operational mode is
// epoch recomputation: Reassign computes a new association given the
// previous one (which full-recompute strategies ignore and the budgeted
// incremental strategy steers from).
type Reassigner interface {
	Strategy
	Reassign(n *model.Network, prev model.Assignment) (model.Assignment, error)
}

// Stats is the per-solve instrumentation record emitted through
// Config.Observer after every Solve or Reassign.
type Stats struct {
	// Strategy is the registry name; Users/Extenders the instance size.
	Strategy  string
	Users     int
	Extenders int
	// Phase1/Phase2 are the wall-clock durations of WOLT's two phases
	// (zero for single-phase baselines); Total is the whole solve.
	Phase1 time.Duration
	Phase2 time.Duration
	Total  time.Duration
	// Phase1Users is the number of users pinned by Phase I.
	Phase1Users int
	// HungarianAugmentations counts Phase I's shortest-augmenting-path
	// steps (zero for the auction solver and the baselines).
	HungarianAugmentations int
	// Phase2Iterations and PolishSweeps are the projected-gradient
	// iteration count and the discrete polish sweep count of Phase II.
	Phase2Iterations int
	PolishSweeps     int
	// Evaluations counts full model evaluations performed through the
	// strategy's evaluation state — since the delta-evaluation rewire,
	// that is the number of DeltaEval attaches (full accumulator
	// builds), typically one per solve.
	Evaluations int
	// DeltaProbes counts O(Δ) single-move probes through the strategy's
	// delta evaluator (greedy/selfish candidate probes, exhaustive
	// search leaves, incremental candidate moves, local-search scans).
	// Probes replace the full evaluations the probe loops performed
	// before the rewire.
	DeltaProbes int
	// Commits counts committed delta moves of the hill climb
	// (placements plus re-associations); Improving counts strict
	// improvements of the best-so-far aggregate. Improving/Commits is
	// the improving-move ratio.
	Commits   int
	Improving int
	// Aggregate is the solve's final total throughput (Mbps) and
	// Utility its value under the solve's utility family (equal to
	// Aggregate for sum-rate); Trajectory is the hill climb's
	// best-so-far curve — entry 0 after seeding, then one entry per
	// improvement. Nil for strategies that do not track it.
	Aggregate  float64
	Utility    float64
	Trajectory []float64
	// Stop records why an anytime solve returned ("optimum", "probes",
	// "moves", "time", "ctx", "frozen"); empty for non-anytime
	// strategies.
	Stop string
}

// Observer receives a Stats record after each solve. Observers run
// synchronously on the solving goroutine; keep them cheap.
type Observer func(Stats)

// Config parameterizes a strategy instance. The zero value is valid for
// every strategy.
type Config struct {
	// ModelOpts selects the evaluation model used by evaluation-driven
	// strategies (greedy, selfish, optimal, incremental candidates).
	ModelOpts model.Options
	// Core tunes the WOLT variants' two-phase solver.
	Core core.Options
	// Workers bounds intra-solve parallelism of WOLT's Phase II; <= 0 or
	// 1 solves sequentially. Results are bit-identical for every value
	// (DESIGN.md §7). It is deliberately NOT defaulted to NumCPU: under
	// per-trial fan-out the trials already saturate the cores.
	Workers int
	// Alpha is the fairness exponent consumed by the parameterized
	// utility strategies: wolt-alpha solves under model.AlphaFair(Alpha)
	// (0 = sum-rate, 1 = proportional fair, math.Inf(1) = max-min), and
	// wolt-hillclimb adopts it as ModelOpts.Utility when non-zero.
	// Fixed-utility strategies (wolt, wolt-pf) ignore it.
	Alpha float64
	// Seed derives the instance's private rng when Rng is nil.
	Seed int64
	// Rng, when non-nil, is used directly by randomized strategies.
	// Sharing one rng across instances serializes them (draw order then
	// depends on call order); prefer Seed for parallel use.
	Rng *rand.Rand
	// Budget bounds the work of budget-aware strategies:
	// wolt-hillclimb honors all three dimensions per Solve/Reassign, and
	// wolt-incremental honors Budget.Moves as its per-Reassign move
	// cap. The zero Budget is unlimited. (This replaces the former
	// wolt-incremental-only MoveBudget knob.)
	Budget Budget
	// Ctx, when non-nil, makes wolt-hillclimb interruptible:
	// cancellation stops a solve at the next probe checkpoint and the
	// best-so-far valid assignment is returned (the anytime contract,
	// DESIGN.md §11). Other strategies ignore it.
	Ctx context.Context
	// Optimal bounds the exhaustive strategy's instance sizes; zero
	// fields use baseline.DefaultOptimalLimits.
	Optimal baseline.OptimalLimits
	// Observer receives per-solve Stats; nil disables instrumentation.
	Observer Observer
}

// rng returns the instance's random source: Config.Rng when set, else a
// private rng on the dedicated StrategyRand stream of Config.Seed.
func (c Config) rng() *rand.Rand {
	if c.Rng != nil {
		return c.Rng
	}
	return seed.Rand(c.Seed, seed.StrategyRand, 0)
}

// emit forwards a Stats record to the observer, if any.
func (c Config) emit(s Stats) {
	if c.Observer != nil {
		c.Observer(s)
	}
}

// Factory builds a configured strategy instance.
type Factory func(cfg Config) Strategy

// ErrUnknown is wrapped by New when the name is not registered.
var ErrUnknown = errors.New("strategy: unknown strategy")

// ErrNoOnlineForm is the sentinel for strategies that cannot place a
// single arriving user (they implement neither Online nor Reassigner —
// e.g. the exhaustive "optimal" strategy, which only solves offline).
// Consumers wrap it rather than silently falling back to another policy.
var ErrNoOnlineForm = errors.New("strategy: no online form")

var registry = map[string]Factory{}

// Register adds a named factory; registering a duplicate or empty name
// panics (registration is an init-time programming act, not user input).
func Register(name string, f Factory) {
	if name == "" || f == nil {
		panic("strategy: empty registration")
	}
	if _, dup := registry[name]; dup {
		panic("strategy: duplicate registration of " + name)
	}
	registry[name] = f
}

// New builds a configured instance of the named strategy. The error
// wraps ErrUnknown for unregistered names and lists the valid ones.
func New(name string, cfg Config) (Strategy, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("%w %q (want one of: %v)", ErrUnknown, name, Names())
	}
	return f(cfg), nil
}

// Names returns the registered strategy names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
