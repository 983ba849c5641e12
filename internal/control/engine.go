package control

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/plcwifi/wolt/internal/model"
	"github.com/plcwifi/wolt/internal/strategy"
)

// Common controller policies. A policy is any name from the
// internal/strategy registry, validated at NewEngine/NewServer time;
// PolicyRSSI additionally uses the agents' reported RSSI values (the
// registry's rates-based "rssi" strategy never sees them).
const (
	PolicyWOLT   = "wolt"
	PolicyGreedy = "greedy"
	PolicyRSSI   = "rssi"
)

// EngineConfig configures a policy engine.
type EngineConfig struct {
	// PLCCaps are the offline-estimated PLC isolation capacities c_j,
	// indexed by GLOBAL extender ID (§V-A: measured by saturating each
	// link). Every scan report the engine sees is this wide.
	PLCCaps []float64
	// Owned restricts the engine to a subset of global extender IDs (a
	// shard member's share of the consistent-hash ring). The engine only
	// ever assigns users to owned extenders; directives still carry
	// global IDs. Empty means the engine owns every extender.
	Owned []int
	// Policy is the association policy: a strategy-registry name
	// (default PolicyWOLT). The name is validated against the registry
	// at construction, so the control plane cannot drift from
	// internal/strategy.
	Policy string
	// ModelOpts selects the evaluation model used by evaluation-driven
	// policies (greedy, selfish, incremental candidates).
	ModelOpts model.Options
	// Workers bounds WOLT's intra-solve Phase II parallelism; results
	// are bit-identical for every value (DESIGN.md §7).
	Workers int
	// Seed derives the policy instance's private randomness (e.g. the
	// random baseline's draws).
	Seed int64
	// Budget bounds budget-aware policies per operation (the anytime
	// local-search family and wolt-incremental): a probe budget makes
	// every per-join/leave re-solve an O(budget) warm repair instead of
	// a full two-phase solve. Zero is unlimited (DESIGN.md §11).
	Budget strategy.Budget
	// ReassignOnLeave lets reassigning policies re-solve when a user
	// departs, returning rebalancing directives from Leave. The paper's
	// CC only recomputes on joins — departures free capacity silently —
	// so this is off by default; it exists for the anytime policies,
	// whose leave-time repair costs microseconds, not a full solve.
	ReassignOnLeave bool
	// PlacementOnlyJoins routes joins through the policy's online form
	// (strategy.Online.Add) when it has one: the arriving user is placed
	// on its best candidate extender and nobody else moves — the
	// engine-level encoding of the §11 anytime contract's
	// Budget.Moves < 0 ("arrivals are free, re-associations forbidden").
	// Setting Budget.Moves < 0 directly implies it. At city scale this
	// turns each join from a budgeted hill-climb (which still pays a
	// deficit-ordered sweep over the whole user table) into an O(M)
	// candidate probe, and emits exactly one directive per join.
	// Updates and leave-time repairs still use the configured budget's
	// full re-solve path. Policies without an online form fall back to
	// their re-solve form unchanged.
	PlacementOnlyJoins bool
	// FullResolveEvery, under PlacementOnlyJoins, runs the full
	// recompute path on every Nth join anyway (counting from the first),
	// so placement drift is periodically repaired by a real re-solve
	// under the configured Budget. Zero never forces one — the periodic
	// repair is an explicit knob, not a default.
	FullResolveEvery int
}

// Engine is the transport-free policy/state core of a central
// controller: it owns the user table, applies the configured association
// strategy on joins and scan updates, and reports the directives each
// operation produced. The TCP Server, the in-process tests and the
// internal/shard members all drive the same Engine; none of them carry
// policy logic of their own.
//
// The user table is a flat, ID-sorted row slice with pooled per-row
// buffers rather than a map of heap nodes: a departed user's rate
// vectors park at the slice tail and the next arrival reuses them, and
// the recompute path replays the table into a persistent model.Network
// scratch instead of rebuilding slices. The steady-state per-event path
// (join, update, leave under an anytime policy) performs O(1)
// allocations regardless of table size — the discipline the million-user
// city harness depends on (DESIGN.md §12).
//
// All methods are safe for concurrent use; each operation runs under the
// engine's lock (strategy instances are not safe for concurrent solves).
type Engine struct {
	cfg    EngineConfig
	policy string
	// owned lists the global extender IDs this engine may assign, in
	// increasing order; localOf inverts it (indexed by global ID,
	// model.Unassigned where not owned).
	owned     []int
	localOf   []int
	ownedCaps []float64
	// strategy is the policy instance (nil for PolicyRSSI, which places
	// users by their reported signal instead). Only used under mu.
	strategy strategy.Strategy
	// identity is true when the engine owns every extender in order
	// (the common single-CC case), which lets recompute point the
	// network rows at per-user rate slices without projection.
	identity bool
	// placementJoins routes joins through the online placement form
	// (EngineConfig.PlacementOnlyJoins, or Budget.Moves < 0).
	placementJoins bool

	mu sync.Mutex
	// rows is the user table, sorted by ascending user ID. Rows beyond
	// len(rows) (up to cap) hold pooled buffers from departed users.
	rows           []userRow
	joins          int
	leaves         int
	reassociations int
	// droppedReassigns counts departures under ReassignOnLeave whose
	// re-solve failed: the departure stands, but the rebalancing the
	// operator asked for was silently impossible. Surfaced via Stats so
	// a misconfigured policy cannot hide behind successful leaves.
	droppedReassigns int

	// recompute scratch, reused across operations: the network the
	// strategy sees (rows aliased, generation bumped per recompute) and
	// the working assignment in local extender indices.
	net    model.Network
	assign model.Assignment
	// prevRates/prevRSSI snapshot a row's report across Update so a
	// failed re-solve can restore it atomically.
	prevRates, prevRSSI []float64
}

// userRow is one user's slot in the flat table. The slices keep their
// capacity across occupants: global-width rates/rssi plus, for shard
// members, the owned-subset projection the network rows alias.
type userRow struct {
	id int
	// extender is the user's current association as a GLOBAL extender ID
	// (model.Unassigned before the first directive).
	extender int
	rates    []float64 // global width
	rssi     []float64 // global width or empty
	local    []float64 // owned-width projection (nil in identity mode)
}

// Directive is one association order produced by an engine operation:
// user UserID moves to (global) extender Extender. The transport layer
// forwards directives to agents as MsgAssociate messages.
type Directive struct {
	UserID        int
	Extender      int
	Reassociation bool
}

// NewEngine builds a policy engine. The policy name is validated against
// the strategy registry; unknown names fail here, not at first join.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	if len(cfg.PLCCaps) == 0 {
		return nil, errors.New("control: no PLC capacities configured")
	}
	for j, c := range cfg.PLCCaps {
		if c <= 0 {
			return nil, fmt.Errorf("control: extender %d has non-positive capacity %v", j, c)
		}
	}
	if cfg.Policy == "" {
		cfg.Policy = PolicyWOLT
	}
	// Every policy name — including "rssi" — must exist in the registry:
	// the registry is the single catalogue of association policies, and
	// validating here keeps the control plane from drifting from it.
	st, err := strategy.New(cfg.Policy, strategy.Config{
		ModelOpts: cfg.ModelOpts,
		Workers:   cfg.Workers,
		Seed:      cfg.Seed,
		Budget:    cfg.Budget,
	})
	if err != nil {
		return nil, fmt.Errorf("control: %w", err)
	}
	if cfg.Policy == PolicyRSSI {
		// The controller's RSSI policy places users by their REPORTED
		// signal strengths; the registry's rates-based instance is only
		// used to validate the name.
		st = nil
	}

	e := &Engine{
		cfg:            cfg,
		policy:         cfg.Policy,
		strategy:       st,
		placementJoins: cfg.PlacementOnlyJoins || cfg.Budget.Moves < 0,
	}
	if err := e.resolveOwned(cfg.Owned); err != nil {
		return nil, err
	}
	return e, nil
}

// resolveOwned normalizes the owned-extender subset (sorted, unique,
// in range) and precomputes the local projection tables.
func (e *Engine) resolveOwned(owned []int) error {
	numExt := len(e.cfg.PLCCaps)
	if len(owned) == 0 {
		e.owned = make([]int, numExt)
		for j := range e.owned {
			e.owned[j] = j
		}
	} else {
		e.owned = append([]int(nil), owned...)
		sort.Ints(e.owned)
	}
	e.localOf = make([]int, numExt)
	for g := range e.localOf {
		e.localOf[g] = model.Unassigned
	}
	e.ownedCaps = make([]float64, len(e.owned))
	for l, g := range e.owned {
		if g < 0 || g >= numExt {
			return fmt.Errorf("control: owned extender %d out of range [0,%d)", g, numExt)
		}
		if e.localOf[g] != model.Unassigned {
			return fmt.Errorf("control: extender %d owned twice", g)
		}
		e.localOf[g] = l
		e.ownedCaps[l] = e.cfg.PLCCaps[g]
	}
	e.identity = len(e.owned) == numExt
	return nil
}

// Policy returns the engine's policy name.
func (e *Engine) Policy() string { return e.policy }

// NumExtenders returns the GLOBAL extender count (scan-report width).
func (e *Engine) NumExtenders() int { return len(e.cfg.PLCCaps) }

// Owned returns a copy of the global extender IDs this engine assigns.
func (e *Engine) Owned() []int { return append([]int(nil), e.owned...) }

// validateScan checks a scan report's shape and that the user reaches at
// least one extender this engine owns.
func (e *Engine) validateScan(userID int, rates, rssi []float64) error {
	numExt := len(e.cfg.PLCCaps)
	if len(rates) != numExt {
		return fmt.Errorf("scan report has %d rates, controller manages %d extenders",
			len(rates), numExt)
	}
	if len(rssi) != 0 && len(rssi) != numExt {
		return fmt.Errorf("scan report has %d RSSI entries, want %d", len(rssi), numExt)
	}
	for _, g := range e.owned {
		if rates[g] > 0 {
			return nil
		}
	}
	if e.identity {
		return fmt.Errorf("user %d reaches no extender", userID)
	}
	return fmt.Errorf("user %d reaches no extender owned by this shard", userID)
}

// rowIndex locates userID in the sorted table: (insertion position,
// whether the user is present).
func (e *Engine) rowIndex(userID int) (int, bool) {
	pos := sort.Search(len(e.rows), func(i int) bool { return e.rows[i].id >= userID })
	return pos, pos < len(e.rows) && e.rows[pos].id == userID
}

// setReport copies a scan report into a row's pooled buffers and
// refreshes the owned-subset projection.
func (e *Engine) setReport(r *userRow, rates, rssi []float64) {
	r.rates = append(r.rates[:0], rates...)
	r.rssi = append(r.rssi[:0], rssi...)
	e.project(r)
}

// project refreshes a row's owned-width rate projection (no-op for
// identity engines, whose network rows alias the global vector).
func (e *Engine) project(r *userRow) {
	if e.identity {
		return
	}
	if cap(r.local) < len(e.owned) {
		r.local = make([]float64, len(e.owned))
	}
	r.local = r.local[:len(e.owned)]
	for l, g := range e.owned {
		r.local[l] = r.rates[g]
	}
}

// insertRow opens the sorted slot pos for a new user, reusing the pooled
// buffers parked at the slice tail by earlier departures.
func (e *Engine) insertRow(pos, userID int) *userRow {
	n := len(e.rows)
	if cap(e.rows) > n {
		e.rows = e.rows[:n+1]
	} else {
		e.rows = append(e.rows, userRow{})
	}
	spare := e.rows[n] // pooled buffers (or zero row) past the old end
	copy(e.rows[pos+1:n+1], e.rows[pos:n])
	spare.id = userID
	spare.extender = model.Unassigned
	e.rows[pos] = spare
	return &e.rows[pos]
}

// removeRow closes the slot pos, parking its buffers at the tail for the
// next arrival to reuse.
func (e *Engine) removeRow(pos int) {
	n := len(e.rows)
	spare := e.rows[pos]
	copy(e.rows[pos:n-1], e.rows[pos+1:n])
	e.rows[n-1] = spare
	e.rows = e.rows[:n-1]
}

// Join admits a user with its scan report, runs the policy and returns
// the directives it produced (always including one for the new user on
// success). A failed join leaves the engine unchanged.
func (e *Engine) Join(userID int, rates, rssi []float64) ([]Directive, error) {
	if err := e.validateScan(userID, rates, rssi); err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	pos, present := e.rowIndex(userID)
	if present {
		return nil, fmt.Errorf("user %d already joined", userID)
	}
	r := e.insertRow(pos, userID)
	e.setReport(r, rates, rssi)
	e.joins++
	// Placement-only joins skip the full re-solve unless this is a
	// scheduled periodic repair (FullResolveEvery counts joins from 1).
	placementOnly := e.placementJoins &&
		!(e.cfg.FullResolveEvery > 0 && e.joins%e.cfg.FullResolveEvery == 0)
	dirs, err := e.recomputeLocked(pos, placementOnly)
	if err != nil {
		e.removeRow(pos)
		e.joins--
		return nil, err
	}
	return dirs, nil
}

// Update refreshes an associated user's scan report and lets the policy
// react: WOLT recomputes the full association (it may move anyone), RSSI
// re-places just the reporting user (client roaming), and arrival-only
// strategies (greedy, selfish, random) never reassign — the refreshed
// report only affects placements of future arrivals.
//
// Update is atomic: when the policy's re-solve fails, the prior scan
// report is restored, so the engine never holds fresh rates with a stale
// assignment (the failure mode Join already rolled back cleanly).
func (e *Engine) Update(userID int, rates, rssi []float64) ([]Directive, error) {
	if err := e.validateScan(userID, rates, rssi); err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	pos, present := e.rowIndex(userID)
	if !present {
		return nil, fmt.Errorf("user %d not joined", userID)
	}
	r := &e.rows[pos]
	recompute := false
	if e.policy == PolicyRSSI {
		// Client roaming: re-place just the reporting user.
		recompute = true
	} else if _, ok := e.strategy.(strategy.Reassigner); ok {
		// Recomputing strategies (the WOLT variants) may move anyone.
		recompute = true
	}
	if !recompute {
		e.setReport(r, rates, rssi)
		return nil, nil
	}
	e.prevRates = append(e.prevRates[:0], r.rates...)
	e.prevRSSI = append(e.prevRSSI[:0], r.rssi...)
	e.setReport(r, rates, rssi)
	dirs, err := e.recomputeLocked(pos, false)
	if err != nil {
		e.setReport(r, e.prevRates, e.prevRSSI)
		return nil, err
	}
	return dirs, nil
}

// Leave removes a user (explicit leave or dropped connection) and
// reports whether it was present. The paper's CC recomputes on joins
// (directives accompany new associations) and departures simply free
// capacity — unless EngineConfig.ReassignOnLeave is set and the policy
// can reassign, in which case the departure triggers a re-solve (an
// anytime warm repair under EngineConfig.Budget) and the rebalancing
// directives are returned. A failed re-solve must not resurrect the
// user: the departure stands, and the dropped rebalance is counted in
// Stats.DroppedReassigns.
func (e *Engine) Leave(userID int) ([]Directive, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	pos, present := e.rowIndex(userID)
	if !present {
		return nil, false
	}
	e.removeRow(pos)
	e.leaves++
	if e.cfg.ReassignOnLeave && len(e.rows) > 0 {
		if _, ok := e.strategy.(strategy.Reassigner); ok {
			// recomputeLocked tolerates the no-new-user form (-1) only
			// on the Reassigner path, which never dereferences the new
			// row.
			dirs, err := e.recomputeLocked(-1, false)
			if err == nil {
				return dirs, true
			}
			e.droppedReassigns++
		}
	}
	return nil, true
}

// Extender returns the user's current global extender assignment.
func (e *Engine) Extender(userID int) (int, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	pos, present := e.rowIndex(userID)
	if !present {
		return model.Unassigned, false
	}
	return e.rows[pos].extender, true
}

// Stats returns the engine's counters and current assignment (global
// extender IDs).
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	assignment := make(map[int]int, len(e.rows))
	for i := range e.rows {
		assignment[e.rows[i].id] = e.rows[i].extender
	}
	return Stats{
		Policy:           e.policy,
		Users:            len(e.rows),
		Joins:            e.joins,
		Leaves:           e.leaves,
		Reassociations:   e.reassociations,
		DroppedReassigns: e.droppedReassigns,
		Assignment:       assignment,
	}
}

// StatsLite returns the engine's counters without materializing the
// assignment map — Stats.Assignment is nil. At city scale the full map
// copy is an O(n) allocation per poll; callers that only want counters
// (the sharded coordinator's merged stats, progress reporting) use this
// form.
func (e *Engine) StatsLite() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return Stats{
		Policy:           e.policy,
		Users:            len(e.rows),
		Joins:            e.joins,
		Leaves:           e.leaves,
		Reassociations:   e.reassociations,
		DroppedReassigns: e.droppedReassigns,
	}
}

// recomputeLocked runs the policy after the user at row newRow joined or
// reported fresh rates, updates the user table and returns the resulting
// directives. newRow may be -1 (a departure under ReassignOnLeave) only
// when the policy is a Reassigner, which never dereferences the new row.
// placementOnly asks applyStrategy for the online placement form instead
// of the full re-solve when the policy has one (join path under
// PlacementOnlyJoins). Callers hold e.mu.
//
// The network the strategy sees is persistent scratch: its rows alias
// the user table's pooled rate vectors and its generation is bumped per
// recompute, so delta evaluators and candidate caches re-attach instead
// of trusting stale state (DESIGN.md §10). Steady state this path
// allocates only the returned directive slice.
func (e *Engine) recomputeLocked(newRow int, placementOnly bool) ([]Directive, error) {
	n := len(e.rows)
	e.assign = growAssign(e.assign, n)

	if e.policy == PolicyRSSI {
		// Signal-strength placement touches only the reporting user; no
		// network build, no strategy call.
		for i := range e.rows {
			e.assign[i] = e.localIndex(e.rows[i].extender)
		}
		u := &e.rows[newRow]
		best, bestSig := model.Unassigned, -1e18
		for l, g := range e.owned {
			r := u.rates[g]
			if r <= 0 {
				continue
			}
			sig := r
			if len(u.rssi) == len(u.rates) {
				sig = u.rssi[g]
			}
			if sig > bestSig {
				best, bestSig = l, sig
			}
		}
		e.assign[newRow] = best
		return e.emitLocked(e.assign), nil
	}

	if cap(e.net.WiFiRates) < n {
		e.net.WiFiRates = make([][]float64, n, 2*n)
	}
	e.net.WiFiRates = e.net.WiFiRates[:n]
	e.net.PLCCaps = e.ownedCaps
	for i := range e.rows {
		r := &e.rows[i]
		if e.identity {
			e.net.WiFiRates[i] = r.rates
		} else {
			e.net.WiFiRates[i] = r.local
		}
		e.assign[i] = e.localIndex(r.extender)
	}
	// A roamed scan can leave the reporting user's current extender out
	// of reach. Seed it as an arrival instead: the strategy's free
	// placement pass re-places it, and emitLocked reports the move as a
	// reassociation.
	if newRow >= 0 {
		if l := e.assign[newRow]; l != model.Unassigned && e.net.WiFiRates[newRow][l] <= 0 {
			e.assign[newRow] = model.Unassigned
		}
	}
	e.net.Invalidate()

	assign, err := e.applyStrategy(&e.net, e.assign, newRow, placementOnly)
	if err != nil {
		return nil, err
	}
	return e.emitLocked(assign), nil
}

// emitLocked folds a solved assignment (local extender indices, row
// order) back into the user table and returns the changed users'
// directives — exactly one allocation, sized to the change set.
func (e *Engine) emitLocked(assign model.Assignment) []Directive {
	changed := 0
	for i := range e.rows {
		if e.globalOf(assign[i]) != e.rows[i].extender {
			changed++
		}
	}
	if changed == 0 {
		return nil
	}
	dirs := make([]Directive, 0, changed)
	for i := range e.rows {
		r := &e.rows[i]
		globalExt := e.globalOf(assign[i])
		if globalExt == r.extender {
			continue
		}
		reassoc := r.extender != model.Unassigned
		r.extender = globalExt
		if reassoc {
			e.reassociations++
		}
		dirs = append(dirs, Directive{UserID: r.id, Extender: globalExt, Reassociation: reassoc})
	}
	return dirs
}

// globalOf maps a local extender index to its global ID
// (model.Unassigned passes through).
func (e *Engine) globalOf(local int) int {
	if local == model.Unassigned {
		return model.Unassigned
	}
	return e.owned[local]
}

// localIndex maps a global extender ID to this engine's local index
// (model.Unassigned passes through, and so does an extender this engine
// does not own).
func (e *Engine) localIndex(globalExt int) int {
	if globalExt == model.Unassigned {
		return model.Unassigned
	}
	return e.localOf[globalExt]
}

// growAssign resizes an assignment scratch slice, preserving capacity.
func growAssign(a model.Assignment, n int) model.Assignment {
	if cap(a) < n {
		return make(model.Assignment, n, 2*n)
	}
	return a[:n]
}

// applyStrategy runs the configured strategy after newRow joined (or
// reported fresh rates): recomputing strategies may move anyone, online
// strategies place just the new user, and offline-only strategies (the
// exhaustive "optimal") are rejected with a typed error wrapping
// strategy.ErrNoOnlineForm — the controller never silently falls back
// to a different policy than the one configured.
//
// With placementOnly set the preference inverts: a policy with an online
// form places just the arriving user (O(budget) probes, no full sweep),
// falling back to its re-solve form only when it has no online one. The
// placement repair honours the §11 anytime contract — it is exactly what
// Budget.Moves < 0 buys on the solver side, surfaced here as the join
// fast path.
func (e *Engine) applyStrategy(n *model.Network, assign model.Assignment, newRow int, placementOnly bool) (model.Assignment, error) {
	if placementOnly && newRow >= 0 {
		if on, ok := e.strategy.(strategy.Online); ok {
			if _, err := on.Add(n, assign, newRow); err != nil {
				return nil, err
			}
			return assign, nil
		}
	}
	if re, ok := e.strategy.(strategy.Reassigner); ok {
		return re.Reassign(n, assign)
	}
	if on, ok := e.strategy.(strategy.Online); ok {
		if _, err := on.Add(n, assign, newRow); err != nil {
			return nil, err
		}
		return assign, nil
	}
	return nil, fmt.Errorf("control: policy %q cannot place an arriving user: %w",
		e.policy, strategy.ErrNoOnlineForm)
}
