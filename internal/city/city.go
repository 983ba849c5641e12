// Package city is the event-driven enterprise-campus harness: it drives
// a sharded WOLT control plane with open-loop arrival/departure/mobility
// streams at the scale the ROADMAP north star names (10^5–10^6 users
// over tens to hundreds of shards).
//
// The harness composes the repo's existing substrates instead of
// inventing new ones: internal/workload generates the churn trace
// (M/M/∞ dwell departures, optional diurnal arrival shaping),
// internal/eventsim schedules the roaming scan updates that interleave
// with it, and internal/seed derives every draw — per-user randomness is
// counter-mode (one int64 counter per user, draws hashed on demand), so
// a million users cost eight bytes of RNG state each instead of a live
// *rand.Rand. The plane under test is anything with the control-plane
// operation surface: a shard.Coordinator or a bare control.Engine
// (which is how the differential test replays one stream against both).
//
// Layering (enforced by scripts/lint-imports.sh): city drives the plane
// only through internal/shard and internal/control — never internal/model
// or the algorithm layers directly. DESIGN.md §12 documents the event
// model and the measurement contract.
package city

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/plcwifi/wolt/internal/control"
	"github.com/plcwifi/wolt/internal/seed"
	"github.com/plcwifi/wolt/internal/shard"
	"github.com/plcwifi/wolt/internal/stats"
	"github.com/plcwifi/wolt/internal/strategy"
	"github.com/plcwifi/wolt/internal/workload"
)

// Plane is the control-plane operation surface the harness drives.
// *shard.Coordinator, *control.Engine and *TCPPlane all satisfy it (the
// last drives real sockets and the binary wire codec; see tcpplane.go).
type Plane interface {
	Join(userID int, rates, rssi []float64) ([]control.Directive, error)
	Update(userID int, rates, rssi []float64) ([]control.Directive, error)
	Leave(userID int) ([]control.Directive, bool)
}

// Deployment geometry: extenders sit on a square grid with cellSize
// meter spacing (a dense enterprise deployment); the WiFi PHY rate
// follows a smooth distance falloff calibrated so a user mid-cell sees
// several hundred Mbps and coverage dies out within ~2 cells.
const (
	cellSize = 60.0 // meters between neighboring extenders
	rateAt0  = 866.0
	rateHalf = 25.0 // distance (m) where the rate halves... roughly
	rateMin  = 5.0  // below this the extender is out of reach
)

// Config parameterizes one city run.
type Config struct {
	// Shards is the member count of the sharded plane (>= 1).
	Shards int
	// ExtendersPerShard sizes the deployment: the grid holds
	// Shards*ExtendersPerShard extenders (default 4).
	ExtendersPerShard int
	// TargetUsers is the steady-state population the open-loop streams
	// aim for: the arrival rate is TargetUsers/DwellMean (M/M/∞).
	TargetUsers int
	// InitialFill is the fraction of TargetUsers present at time 0
	// (default 0.9 — the run starts near steady state instead of
	// spending the horizon ramping up).
	InitialFill float64
	// Horizon is the simulated duration in seconds (default
	// 2*DwellMean).
	Horizon float64
	// DwellMean is a user's mean dwell time in seconds (default 60).
	DwellMean float64
	// UpdateMean is a user's mean time between roaming scan updates in
	// seconds; 0 disables mobility.
	UpdateMean float64
	// StepFrac is the roam step length as a fraction of the extender
	// grid spacing (default 0.5): each update moves the user a uniform
	// step up to StepFrac*cellSize in a uniform direction.
	StepFrac float64
	// DiurnalFloor, when positive, shapes arrivals with
	// workload.Diurnal(DiurnalPeriod, DiurnalFloor): the arrival rate
	// swings between floor*peak at the period boundaries and the peak
	// mid-period.
	DiurnalFloor float64
	// DiurnalPeriod is the diurnal cycle length (default Horizon).
	DiurnalPeriod float64
	// Policy is the member engines' association policy (default
	// wolt-hillclimb — the anytime solver the harness was built to
	// exercise).
	Policy string
	// Budget bounds each member's per-event re-solve (default
	// 200 probes when the policy is budget-aware and no budget is set).
	Budget strategy.Budget
	// ReassignOnLeave lets departures trigger warm repairs.
	ReassignOnLeave bool
	// Workers bounds each member's intra-solve parallelism
	// (bit-identical results for any value).
	Workers int
	// Seed roots every stream of the run: trace, user draws, extender
	// capacities, ring positions.
	Seed int64
	// Concurrency is the worker-lane count plane operations are
	// dispatched on (<= 1 = sequential, bit-identical to previous
	// releases). Operations of one user always land on the same lane
	// (hash user→lane), preserving the per-user join→update→leave order;
	// different users' operations interleave freely, which is exactly the
	// concurrency the lock-striped coordinator admits. Deterministic
	// Result fields stay deterministic (the event stream is generated
	// before dispatch); Directives/Reassociations counts under
	// re-solving policies become interleaving-dependent.
	Concurrency int
	// PlacementOnlyJoins routes member-engine joins through the policy's
	// online placement form (control.EngineConfig.PlacementOnlyJoins) —
	// the O(budget) warm path instead of a full per-join re-solve.
	PlacementOnlyJoins bool
	// FullResolveEvery, under PlacementOnlyJoins, forces a full re-solve
	// on every Nth join per member engine.
	FullResolveEvery int
	// SkipFinalAssignment leaves Result.FinalAssignment nil: at 10^6
	// users the merged map is an O(n) stop-the-world copy the sustained
	// benchmarks don't want to price.
	SkipFinalAssignment bool
}

func (cfg Config) withDefaults() Config {
	if cfg.ExtendersPerShard <= 0 {
		cfg.ExtendersPerShard = 4
	}
	if cfg.InitialFill == 0 {
		cfg.InitialFill = 0.9
	}
	if cfg.DwellMean <= 0 {
		cfg.DwellMean = 60
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = 2 * cfg.DwellMean
	}
	if cfg.StepFrac <= 0 {
		cfg.StepFrac = 0.5
	}
	if cfg.DiurnalPeriod <= 0 {
		cfg.DiurnalPeriod = cfg.Horizon
	}
	if cfg.Policy == "" {
		cfg.Policy = "wolt-hillclimb"
	}
	if cfg.Budget == (strategy.Budget{}) {
		switch cfg.Policy {
		case "wolt-hillclimb", "wolt-incremental":
			cfg.Budget = strategy.Budget{Probes: 200}
		}
	}
	return cfg
}

func (cfg Config) validate() error {
	if cfg.Shards < 1 {
		return fmt.Errorf("city: need at least 1 shard, got %d", cfg.Shards)
	}
	if cfg.TargetUsers < 1 {
		return fmt.Errorf("city: need a positive user target, got %d", cfg.TargetUsers)
	}
	if cfg.InitialFill < 0 || cfg.InitialFill > 1 {
		return fmt.Errorf("city: initial fill %v outside [0,1]", cfg.InitialFill)
	}
	if cfg.DiurnalFloor < 0 || cfg.DiurnalFloor > 1 {
		return fmt.Errorf("city: diurnal floor %v outside [0,1]", cfg.DiurnalFloor)
	}
	return nil
}

// Result is one run's outcome. The counter and assignment fields are
// bit-identical for a given Config regardless of Workers or wall-clock
// conditions; the latency/throughput fields (Elapsed, JoinsPerSec,
// P50Latency, P99Latency) are measurements of this host and must be
// excluded from determinism comparisons.
type Result struct {
	// Extenders/Users describe the instance: deployment size, peak and
	// final population.
	Extenders  int
	PeakUsers  int
	FinalUsers int

	// Events is the total operation count driven into the plane
	// (joins + leaves + updates); Directives the total directives it
	// returned.
	Events     int
	Joins      int
	Leaves     int
	Updates    int
	Directives int

	// Handoffs/Reassociations/DroppedReassigns are the plane's own
	// counters (zero when driving a bare engine, which has no handoffs).
	Handoffs         int
	Reassociations   int
	DroppedReassigns int
	// Redirects counts cross-member redirect hops agents followed (TCP
	// plane only; 0 when client-side routing dialed every owner
	// directly).
	Redirects int
	// DroppedPushes counts directives the members' bounded outbound
	// queues shed at stalled connections (TCP plane only; a host-load
	// measurement, not a deterministic counter).
	DroppedPushes int
	// HandoffRate is Handoffs per mobility update (0 when mobility is
	// off) — the cross-shard cost of roaming.
	HandoffRate float64

	// FinalAssignment is the plane's final user→extender map.
	FinalAssignment map[int]int

	// Wall-clock measurements (non-deterministic).
	Elapsed     time.Duration
	JoinsPerSec float64
	P50Latency  time.Duration
	P99Latency  time.Duration
}

// ScrubHostMetrics zeroes the fields that measure this host rather than
// the simulated system — Elapsed, JoinsPerSec and the latency
// percentiles. Determinism comparisons (tests, the replay harness) call
// it instead of hand-maintaining the field list; everything left is
// bit-identical for a given Config in sequential mode.
func (r *Result) ScrubHostMetrics() {
	r.Elapsed = 0
	r.JoinsPerSec = 0
	r.P50Latency = 0
	r.P99Latency = 0
	r.DroppedPushes = 0
}

// City is a prepared run: deployment, churn trace and per-user streams,
// reusable across planes (the differential test replays one City against
// a sharded and a single-engine plane).
type City struct {
	cfg   Config
	caps  []float64 // per-extender PLC capacities
	extX  []float64 // extender grid positions
	extY  []float64
	trace []workload.Event
	// users is indexed by user ID (workload IDs are dense ascending).
	users []userState
	// rates is the per-event scan scratch; planes copy what they keep.
	rates []float64
	side  int // grid side length (extenders per row)
}

// userState is the harness's own view of one user: position and the
// counter-mode randomness cursor. Presence is tracked by the run loop.
type userState struct {
	x, y    float64
	present bool
	ctr     int64
	nextUpd float64 // next scheduled roam time (mobility bookkeeping)
}

// New prepares a city: extender grid, PLC capacities and the churn
// trace. The returned City is reusable — each Run replays the same
// streams from scratch.
func New(cfg Config) (*City, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	numExt := cfg.Shards * cfg.ExtendersPerShard
	side := int(math.Ceil(math.Sqrt(float64(numExt))))

	c := &City{
		cfg:  cfg,
		caps: make([]float64, numExt),
		extX: make([]float64, numExt),
		extY: make([]float64, numExt),
		side: side,
	}
	for j := 0; j < numExt; j++ {
		// PLC capacities in 300–800 Mbps: realistic spread for in-wall
		// powerline backhaul, seeded per extender.
		u := u01(seed.Derive(cfg.Seed, seed.CityExtender, int64(j)))
		c.caps[j] = 300 + 500*u
		c.extX[j] = float64(j%side) * cellSize
		c.extY[j] = float64(j/side) * cellSize
	}

	wcfg := workload.Config{
		ArrivalRate:  float64(cfg.TargetUsers) / cfg.DwellMean,
		DwellRate:    1 / cfg.DwellMean,
		Horizon:      cfg.Horizon,
		InitialUsers: int(math.Round(cfg.InitialFill * float64(cfg.TargetUsers))),
		Seed:         seed.Derive(cfg.Seed, seed.CityTrace, 0),
	}
	if cfg.DiurnalFloor > 0 {
		wcfg.RateShape = workload.Diurnal(cfg.DiurnalPeriod, cfg.DiurnalFloor)
	}
	trace, err := workload.Generate(wcfg)
	if err != nil {
		return nil, fmt.Errorf("city: %w", err)
	}
	c.trace = trace

	maxID := wcfg.InitialUsers
	for _, ev := range trace {
		if ev.UserID >= maxID {
			maxID = ev.UserID + 1
		}
	}
	c.users = make([]userState, maxID)
	c.rates = make([]float64, numExt)
	return c, nil
}

// NumExtenders returns the deployment size.
func (c *City) NumExtenders() int { return len(c.caps) }

// PLCCaps returns the deployment's per-extender PLC capacities (shared
// slice; callers must not mutate).
func (c *City) PLCCaps() []float64 { return c.caps }

// InitialUsers returns the population present at time 0.
func (c *City) InitialUsers() int {
	n := int(math.Round(c.cfg.InitialFill * float64(c.cfg.TargetUsers)))
	return n
}

// TraceLen returns the churn trace's event count.
func (c *City) TraceLen() int { return len(c.trace) }

// NewCoordinator builds the sharded plane this city was sized for.
func (c *City) NewCoordinator() (*shard.Coordinator, error) {
	return shard.NewCoordinator(shard.Config{
		Shards:             c.cfg.Shards,
		PLCCaps:            c.caps,
		Policy:             c.cfg.Policy,
		Workers:            c.cfg.Workers,
		Seed:               c.cfg.Seed,
		Budget:             c.cfg.Budget,
		ReassignOnLeave:    c.cfg.ReassignOnLeave,
		PlacementOnlyJoins: c.cfg.PlacementOnlyJoins,
		FullResolveEvery:   c.cfg.FullResolveEvery,
	})
}

// NewEngine builds an unsharded single-CC plane over the same deployment
// and policy — the differential-test reference.
func (c *City) NewEngine() (*control.Engine, error) {
	return control.NewEngine(control.EngineConfig{
		PLCCaps:            c.caps,
		Policy:             c.cfg.Policy,
		Workers:            c.cfg.Workers,
		Seed:               c.cfg.Seed,
		Budget:             c.cfg.Budget,
		ReassignOnLeave:    c.cfg.ReassignOnLeave,
		PlacementOnlyJoins: c.cfg.PlacementOnlyJoins,
		FullResolveEvery:   c.cfg.FullResolveEvery,
	})
}

// u01 maps a derived seed to a uniform float64 in [0,1) (the standard
// 53-bit mantissa construction).
func u01(z int64) float64 {
	return float64(uint64(z)>>11) / (1 << 53)
}

// draw returns user id's next uniform [0,1) variate, advancing its
// counter. Pure function of (seed, id, counter): replays and worker
// counts cannot perturb it.
func (c *City) draw(id int) float64 {
	base := seed.Derive(c.cfg.Seed, seed.CityUser, int64(id))
	u := c.users[id]
	v := u01(seed.Derive(base, seed.CityDraw, u.ctr))
	c.users[id].ctr++
	return v
}

// placeNew samples user id's initial position uniformly over the grid's
// bounding box.
func (c *City) placeNew(id int) {
	w := float64(c.side-1) * cellSize
	if w <= 0 {
		w = cellSize // single-extender degenerate grid: a small cell
	}
	c.users[id].x = c.draw(id) * w
	c.users[id].y = c.draw(id) * w
}

// roam moves user id one mobility step: a uniform direction, a uniform
// step length up to StepFrac*cellSize, clamped to the grid.
func (c *City) roam(id int) {
	theta := 2 * math.Pi * c.draw(id)
	r := c.cfg.StepFrac * cellSize * c.draw(id)
	w := float64(c.side-1) * cellSize
	if w <= 0 {
		w = cellSize
	}
	u := &c.users[id]
	u.x = clamp(u.x+r*math.Cos(theta), 0, w)
	u.y = clamp(u.y+r*math.Sin(theta), 0, w)
}

func clamp(v, lo, hi float64) float64 {
	return math.Min(hi, math.Max(lo, v))
}

// scanRates fills the shared rate scratch with user id's current PHY
// rates: smooth distance falloff, zeroed out of reach.
func (c *City) scanRates(id int) []float64 {
	u := &c.users[id]
	for j := range c.caps {
		dx, dy := u.x-c.extX[j], u.y-c.extY[j]
		d := math.Sqrt(dx*dx + dy*dy)
		r := rateAt0 / (1 + math.Pow(d/rateHalf, 3))
		if r < rateMin {
			r = 0
		}
		c.rates[j] = r
	}
	return c.rates
}

// expDraw turns user id's next uniform draw into an Exp(1/mean) delay.
func (c *City) expDraw(id int, mean float64) float64 {
	return -mean * math.Log(1-c.draw(id))
}

// opKind tags one plane operation in flight between the event generator
// and the dispatch path.
type opKind uint8

const (
	opJoin opKind = iota
	opUpdate
	opLeave
)

// planeOp is one generated operation. rates aliases the generator's
// shared scan scratch; a dispatch path that outlives the emit call must
// copy it (the concurrent lanes do).
type planeOp struct {
	kind  opKind
	id    int
	rates []float64
}

// applyOp drives one operation into the plane and returns its
// directives.
func applyOp(plane Plane, op planeOp) ([]control.Directive, error) {
	switch op.kind {
	case opJoin:
		dirs, err := plane.Join(op.id, op.rates, nil)
		if err != nil {
			return nil, fmt.Errorf("city: join user %d: %w", op.id, err)
		}
		return dirs, nil
	case opUpdate:
		dirs, err := plane.Update(op.id, op.rates, nil)
		if err != nil {
			return nil, fmt.Errorf("city: update user %d: %w", op.id, err)
		}
		return dirs, nil
	default:
		dirs, ok := plane.Leave(op.id)
		if !ok {
			return nil, fmt.Errorf("city: leave of absent user %d", op.id)
		}
		return dirs, nil
	}
}

// generate replays the churn trace merged with the roam queue, doing
// every per-user draw itself — placement, roam steps, scan rates,
// update scheduling, presence — so the operation stream handed to emit
// is bit-identical whether the operations execute inline (sequential
// mode) or on worker lanes. All deterministic Result counters (Joins,
// Leaves, Updates, Events, PeakUsers) are the generator's; only
// Directives and the latency sketches belong to the dispatch path.
//
// Mobility is a time-ordered queue of pending roam updates. Instead of
// a closure per event (allocation per roam), the eventsim kernel is
// bypassed for updates: users store their own nextUpd time and a binary
// heap of IDs orders them. A plain slice-heap keyed by (time, id) keeps
// scheduling allocation-free after warm-up.
func (c *City) generate(res *Result, emit func(planeOp) error) (present int, err error) {
	cfg := c.cfg
	heap := roamHeap{city: c}
	apply := func(id int, kind workload.EventKind, now float64) error {
		switch kind {
		case workload.Arrival:
			c.placeNew(id)
			c.users[id].present = true
			res.Joins++
			present++
			if present > res.PeakUsers {
				res.PeakUsers = present
			}
			if err := emit(planeOp{kind: opJoin, id: id, rates: c.scanRates(id)}); err != nil {
				return err
			}
			if cfg.UpdateMean > 0 {
				c.users[id].nextUpd = now + c.expDraw(id, cfg.UpdateMean)
				heap.push(id)
			}
		case workload.Departure:
			c.users[id].present = false
			res.Leaves++
			present--
			if err := emit(planeOp{kind: opLeave, id: id}); err != nil {
				return err
			}
		}
		res.Events++
		return nil
	}
	update := func(id int, now float64) error {
		u := &c.users[id]
		if !u.present {
			return nil // departed between schedule and fire
		}
		c.roam(id)
		res.Updates++
		res.Events++
		if err := emit(planeOp{kind: opUpdate, id: id, rates: c.scanRates(id)}); err != nil {
			return err
		}
		u.nextUpd = now + c.expDraw(id, cfg.UpdateMean)
		heap.push(id)
		return nil
	}

	// The trace only carries churn; the initial population joins at
	// time 0, in ID order.
	for id := 0; id < c.InitialUsers(); id++ {
		if err := apply(id, workload.Arrival, 0); err != nil {
			return present, err
		}
	}

	// Merge the churn trace with the roam queue in time order (FIFO on
	// ties: trace first, matching eventsim's arrival-before-roam seq
	// order at equal times).
	for _, ev := range c.trace {
		for {
			id, at, ok := heap.peek()
			if !ok || at > ev.Time {
				break
			}
			heap.pop()
			if err := update(id, at); err != nil {
				return present, err
			}
		}
		if err := apply(ev.UserID, ev.Kind, ev.Time); err != nil {
			return present, err
		}
	}
	for {
		id, at, ok := heap.peek()
		if !ok || at > cfg.Horizon {
			break
		}
		heap.pop()
		if err := update(id, at); err != nil {
			return present, err
		}
	}
	return present, nil
}

// Run replays the city's streams against a plane and measures it. The
// same City may be Run multiple times (against different planes or the
// same one rebuilt); each run resets the per-user streams so the event
// sequences are identical.
func (c *City) Run(plane Plane) (Result, error) {
	cfg := c.cfg
	for i := range c.users {
		c.users[i] = userState{}
	}

	res := Result{Extenders: len(c.caps)}
	// Fixed-memory latency accounting: one P² sketch per reported
	// percentile — O(1) state however many events the run drives, where
	// the old per-operation sample slice held millions of float64s at
	// city scale.
	p50, p99 := stats.MustQuantile(0.50), stats.MustQuantile(0.99)

	start := time.Now()
	var present int
	var err error
	if cfg.Concurrency > 1 {
		present, err = c.runConcurrent(plane, &res, p50, p99)
	} else {
		present, err = c.runSequential(plane, &res, p50, p99)
	}
	res.Elapsed = time.Since(start)
	res.FinalUsers = present
	if err != nil {
		return res, err
	}

	switch p := plane.(type) {
	case *shard.Coordinator:
		st := p.Stats()
		res.Handoffs = st.Handoffs
		res.Reassociations = st.Reassociations
		res.DroppedReassigns = st.DroppedReassigns
		if !cfg.SkipFinalAssignment {
			res.FinalAssignment = p.StatsWithAssignment().Assignment
		}
	case *control.Engine:
		st := p.StatsLite()
		res.Reassociations = st.Reassociations
		res.DroppedReassigns = st.DroppedReassigns
		if !cfg.SkipFinalAssignment {
			res.FinalAssignment = p.Stats().Assignment
		}
	case *TCPPlane:
		st, serr := p.Stats()
		if serr != nil {
			return res, serr
		}
		res.Reassociations = st.Reassociations
		res.DroppedReassigns = st.DroppedReassigns
		res.DroppedPushes = st.DroppedPushes
		res.Redirects = p.RedirectsSeen()
		// Join replies are the only directives the dispatch path sees
		// over TCP; the delivered count (async pushes included) is what
		// the agents metered.
		res.Directives = p.DirectivesSeen()
		if !cfg.SkipFinalAssignment {
			res.FinalAssignment = st.Assignment
		}
	}
	if res.Updates > 0 {
		res.HandoffRate = float64(res.Handoffs) / float64(res.Updates)
	}
	if sec := res.Elapsed.Seconds(); sec > 0 {
		res.JoinsPerSec = float64(res.Joins) / sec
	}
	res.P50Latency = time.Duration(p50.Value() * 1e3)
	res.P99Latency = time.Duration(p99.Value() * 1e3)
	return res, nil
}

// runSequential executes every generated operation inline — today's
// single-threaded path, bit-identical to previous releases.
func (c *City) runSequential(plane Plane, res *Result, p50, p99 *stats.Quantile) (int, error) {
	return c.generate(res, func(op planeOp) error {
		t0 := time.Now()
		dirs, err := applyOp(plane, op)
		lat := float64(time.Since(t0).Nanoseconds()) / 1e3
		p50.Add(lat)
		p99.Add(lat)
		if err != nil {
			return err
		}
		res.Directives += len(dirs)
		return nil
	})
}

// errCityAborted is the generator's stop signal once a lane worker has
// already captured the real failure.
var errCityAborted = errors.New("city: run aborted by worker error")

// runConcurrent fans generated operations out over cfg.Concurrency
// bounded worker lanes, hashing each user to a fixed lane so its
// join→update→leave order is preserved while different users'
// operations interleave — the load shape the lock-striped coordinator
// is built for. The first worker error aborts the generator; remaining
// queued operations are drained without effect.
func (c *City) runConcurrent(plane Plane, res *Result, p50, p99 *stats.Quantile) (int, error) {
	lanes := c.cfg.Concurrency
	const laneDepth = 64
	chans := make([]chan planeOp, lanes)
	for i := range chans {
		chans[i] = make(chan planeOp, laneDepth)
	}
	// Pooled scan-vector copies: the generator's scratch is reused per
	// event, so each dispatched op carries its own buffer, recycled
	// through a free channel once the worker is done with it.
	free := make(chan []float64, lanes*laneDepth+lanes)

	var (
		wg       sync.WaitGroup
		aborted  atomic.Bool
		errMu    sync.Mutex
		firstErr error
		latMu    sync.Mutex
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		aborted.Store(true)
	}
	release := func(op planeOp) {
		if op.rates == nil {
			return
		}
		select {
		case free <- op.rates:
		default:
		}
	}
	dirCounts := make([]int, lanes)
	for i := 0; i < lanes; i++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for op := range chans[lane] {
				if aborted.Load() {
					release(op)
					continue
				}
				t0 := time.Now()
				dirs, err := applyOp(plane, op)
				lat := float64(time.Since(t0).Nanoseconds()) / 1e3
				latMu.Lock()
				p50.Add(lat)
				p99.Add(lat)
				latMu.Unlock()
				release(op)
				if err != nil {
					fail(err)
					continue
				}
				dirCounts[lane] += len(dirs)
			}
		}(i)
	}

	present, genErr := c.generate(res, func(op planeOp) error {
		if aborted.Load() {
			return errCityAborted
		}
		if op.rates != nil {
			var buf []float64
			select {
			case buf = <-free:
			default:
				buf = make([]float64, len(c.caps))
			}
			copy(buf, op.rates)
			op.rates = buf
		}
		chans[uint(op.id)%uint(lanes)] <- op
		return nil
	})
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()
	for _, n := range dirCounts {
		res.Directives += n
	}
	errMu.Lock()
	err := firstErr
	errMu.Unlock()
	if err == nil && genErr != nil && !errors.Is(genErr, errCityAborted) {
		err = genErr
	}
	return present, err
}

// Run prepares and runs a city on its sharded plane in one call.
func Run(cfg Config) (Result, error) {
	c, err := New(cfg)
	if err != nil {
		return Result{}, err
	}
	coord, err := c.NewCoordinator()
	if err != nil {
		return Result{}, err
	}
	return c.Run(coord)
}

// roamHeap is a binary min-heap of user IDs ordered by their nextUpd
// times (ties by ID, so replays are order-stable). IDs live in a plain
// slice: no container/heap interface, no per-push allocation.
type roamHeap struct {
	city *City
	ids  []int
}

func (h *roamHeap) less(a, b int) bool {
	ua, ub := h.city.users[a], h.city.users[b]
	if ua.nextUpd != ub.nextUpd {
		return ua.nextUpd < ub.nextUpd
	}
	return a < b
}

func (h *roamHeap) push(id int) {
	h.ids = append(h.ids, id)
	i := len(h.ids) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.ids[i], h.ids[parent]) {
			break
		}
		h.ids[i], h.ids[parent] = h.ids[parent], h.ids[i]
		i = parent
	}
}

func (h *roamHeap) peek() (id int, at float64, ok bool) {
	if len(h.ids) == 0 {
		return 0, 0, false
	}
	id = h.ids[0]
	return id, h.city.users[id].nextUpd, true
}

func (h *roamHeap) pop() {
	n := len(h.ids)
	h.ids[0] = h.ids[n-1]
	h.ids = h.ids[:n-1]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.ids) && h.less(h.ids[l], h.ids[smallest]) {
			smallest = l
		}
		if r < len(h.ids) && h.less(h.ids[r], h.ids[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.ids[i], h.ids[smallest] = h.ids[smallest], h.ids[i]
		i = smallest
	}
}
