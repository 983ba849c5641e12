package model

import (
	"fmt"
	"math"
)

// DeltaEval is a stateful evaluator for single-move what-if probes. It
// holds a validated (network, assignment) pair together with the
// evaluation's internal accumulators — per-cell harmonic sums and user
// counts, the per-cell sorted member lists, the ascending active set and
// the water-fill scratch — so that "what happens if user i moves from
// extender `from` to extender `to`?" can be answered by recomputing only
// the two affected cells and re-running the water-fill over the active
// set: O(|cell_from| + |cell_to| + active) per probe instead of
// O(users + extenders) for a full EvaluateWith, with zero per-probe
// allocations and no re-validation.
//
// Bit-identity contract (DESIGN.md §10): every aggregate and per-user
// throughput reported by a DeltaEval is bit-for-bit identical to a fresh
// EvaluateWith of the same assignment. EvaluateWith accumulates each
// cell's Σ 1/r in ascending user-index order, walks the active set in
// ascending extender order through the water-fill, and sums the
// aggregate in that same order; DeltaEval maintains each cell's member
// list sorted ascending, caches each member's 1/r beside it together
// with the running (prefix) sums of those reciprocals, and evaluates an
// affected cell's hypothetical harmonic sum as a prefix plus a
// left-to-right tail — the exact addition sequence of a re-sum in
// ascending member order, so the floating-point operation sequence —
// and therefore every rounding — matches the full evaluator's.
// Probe-driven search loops rewired from EvaluateWith to DeltaEval make
// identical decisions, keeping the §7 determinism contracts intact.
//
// Validation happens once, at Attach. The network's generation counter
// is recorded there; a network mutated in place afterwards (which must
// call Network.Invalidate) makes every subsequent probe panic instead of
// answering from stale accumulators. A DeltaEval is not safe for
// concurrent use; give each worker goroutine its own, exactly like
// EvalScratch.
type DeltaEval struct {
	// Evals counts Attach rebuilds and Probes counts ProbeMove /
	// ProbeMoveUser calls since the caller last reset them — the work
	// metrics behind strategy.Stats.Evaluations and Stats.DeltaProbes.
	// Neither counter influences results.
	Evals  int
	Probes int

	net  *Network
	opts Options
	gen  uint64

	assign  Assignment  // private copy, updated by Commit
	members [][]int     // per-cell user indices, ascending
	recip   [][]float64 // recip[j][k] = 1/WiFiRates[members[j][k]][j]
	prefix  [][]float64 // prefix[j][k] = Σ recip[j][:k], added left to right
	count   []int       // len(members[j])
	demand  []float64   // T_WiFi_j = count/Σ 1/r (0 for empty cells)
	active  []int       // cells with count > 0, ascending

	perExt    []float64 // committed per-extender delivered throughput
	aggregate float64   // committed Σ perExt over active, ascending
	utility   float64   // committed Options.Utility value (== aggregate for sum-rate)

	// epoch counts Attach and Commit calls; the from-cell memo below is
	// valid only while it matches. A search loop probes every candidate
	// of one user from the same cell in a row, so the cell-without-i
	// demand is computed once per user visit instead of once per probe.
	epoch              uint64
	memoEpoch          uint64
	memoUser, memoFrom int
	memoFromDem        float64

	// probe scratch, sized to the active set of the hypothesis
	pActive    []int
	pNeed      []float64
	pShares    []float64
	pSatisfied []bool
}

// Attach validates the (network, assignment) pair once, copies the
// assignment, and (re)builds every accumulator. It must be called before
// probing and again after the network reports Invalidate or the caller's
// assignment diverges from the committed one.
func (d *DeltaEval) Attach(n *Network, a Assignment, opts Options) error {
	if err := validateAssignment(n, a); err != nil {
		return err
	}
	d.net = n
	d.opts = opts
	d.gen = n.gen
	d.Evals++
	d.epoch++

	numExt := n.NumExtenders()
	d.assign = append(d.assign[:0], a...)
	d.members = growCells(d.members, numExt)
	d.recip = growCells(d.recip, numExt)
	d.prefix = growCells(d.prefix, numExt)
	// Appending users in ascending index order keeps every member list
	// sorted — the invariant all delta recomputation relies on.
	for i, j := range a {
		if j != Unassigned {
			d.members[j] = append(d.members[j], i)
			d.recip[j] = append(d.recip[j], 1/n.WiFiRates[i][j])
		}
	}
	d.count = growZeroInts(d.count, numExt)
	d.demand = growZeroFloats(d.demand, numExt)
	d.perExt = growZeroFloats(d.perExt, numExt)
	d.active = d.active[:0]
	for j := 0; j < numExt; j++ {
		pre := append(d.prefix[j], 0)
		for _, r := range d.recip[j] {
			pre = append(pre, pre[len(pre)-1]+r)
		}
		d.prefix[j] = pre
		d.refreshCell(j, len(pre)-1)
		if d.count[j] > 0 {
			d.active = append(d.active, j)
		}
	}
	d.pActive = growInts(d.pActive, numExt)
	d.pNeed = growFloats(d.pNeed, numExt)
	d.pShares = growFloats(d.pShares, numExt)
	d.pSatisfied = growBools(d.pSatisfied, numExt)
	d.recommit()
	return nil
}

// Matches reports whether the evaluator's committed state is exactly the
// given (network, assignment, options) triple, so a caller that may have
// been handed a different assignment between calls can skip a full
// re-Attach when nothing changed.
func (d *DeltaEval) Matches(n *Network, a Assignment, opts Options) bool {
	if d.net != n || d.gen != n.gen || d.opts != opts || len(d.assign) != len(a) {
		return false
	}
	for i, j := range a {
		if d.assign[i] != j {
			return false
		}
	}
	return true
}

// Aggregate returns the committed assignment's total end-to-end
// throughput — bit-identical to EvaluateWith's Result.Aggregate.
func (d *DeltaEval) Aggregate() float64 {
	d.check()
	return d.aggregate
}

// Utility returns the committed assignment's value under the attached
// Options.Utility — bit-identical to EvaluateWith's Result.Utility.
func (d *DeltaEval) Utility() float64 {
	d.check()
	return d.utility
}

// Score returns the committed assignment's lexicographic objective
// (Utility primary, Aggregate tie-break).
func (d *DeltaEval) Score() Score {
	d.check()
	return Score{Primary: d.utility, Tie: d.aggregate}
}

// PerUser returns user i's committed end-to-end throughput —
// bit-identical to EvaluateWith's Result.PerUser[i].
func (d *DeltaEval) PerUser(i int) float64 {
	d.check()
	j := d.assign[i]
	if j == Unassigned {
		return 0
	}
	return d.perExt[j] / float64(d.count[j])
}

// Assigned returns user i's committed extender (or Unassigned).
func (d *DeltaEval) Assigned(i int) int {
	d.check()
	return d.assign[i]
}

// AppendAssignment appends the committed assignment to dst[:0] (reusing
// its capacity) and returns it — the allocation-free way for a search
// loop to snapshot its best-so-far state.
func (d *DeltaEval) AppendAssignment(dst Assignment) Assignment {
	d.check()
	return append(dst[:0], d.assign...)
}

// ProbeMove returns the aggregate throughput the network would have if
// user i moved from extender `from` (its committed cell) to extender
// `to`; either end may be Unassigned. The committed state is untouched
// and nothing is allocated.
func (d *DeltaEval) ProbeMove(i, from, to int) float64 {
	agg, _, _ := d.probe(i, from, to)
	return agg
}

// ProbeMoveUser is ProbeMove also reporting user i's own end-to-end
// throughput under the hypothesis (0 when to == Unassigned) — the
// quantity the selfish baseline maximizes.
func (d *DeltaEval) ProbeMoveUser(i, from, to int) (agg, own float64) {
	agg, own, _ = d.probe(i, from, to)
	return agg, own
}

// ProbeMoveScore returns the lexicographic objective the network would
// have under the (i: from → to) hypothesis — the comparison value of
// every utility-aware search loop. For the zero sum-rate utility both
// components equal ProbeMove's aggregate, so Score comparisons reduce
// bit-for-bit to the old aggregate comparisons.
func (d *DeltaEval) ProbeMoveScore(i, from, to int) Score {
	agg, _, util := d.probe(i, from, to)
	return Score{Primary: util, Tie: agg}
}

// Commit applies the move (i: from → to) to the committed state: the two
// affected member and reciprocal lists are edited in place, their
// prefix sums re-added from the edit point in ascending member order,
// the active set updated, and the water-fill re-run — leaving every
// accumulator bit-identical to a fresh Attach of the moved assignment.
func (d *DeltaEval) Commit(i, from, to int) {
	d.checkMove(i, from, to)
	if from == to {
		return
	}
	d.epoch++
	if from != Unassigned {
		m := d.members[from]
		k := searchMember(m, i)
		d.members[from] = append(m[:k], m[k+1:]...)
		d.recip[from] = append(d.recip[from][:k], d.recip[from][k+1:]...)
		d.prefix[from] = d.prefix[from][:len(d.prefix[from])-1]
		d.refreshCell(from, k)
	}
	if to != Unassigned {
		k := searchMember(d.members[to], i)
		d.members[to] = insertAt(d.members[to], k, i)
		d.recip[to] = insertAt(d.recip[to], k, 1/d.net.WiFiRates[i][to])
		d.prefix[to] = append(d.prefix[to], 0)
		d.refreshCell(to, k)
	}
	d.assign[i] = to

	// Maintain the ascending active list: drop `from` if it emptied,
	// insert `to` if it just lit up.
	if from != Unassigned && d.count[from] == 0 {
		for k, j := range d.active {
			if j == from {
				d.active = append(d.active[:k], d.active[k+1:]...)
				break
			}
		}
		d.perExt[from] = 0
	}
	if to != Unassigned && d.count[to] == 1 {
		a := append(d.active, 0)
		k := len(a) - 1
		for k > 0 && a[k-1] > to {
			a[k] = a[k-1]
			k--
		}
		a[k] = to
		d.active = a
	}
	d.recommit()
}

// refreshCell re-adds cell j's prefix sums from member position k on
// (entries before k are untouched by an edit at k) and refreshes its
// count and WiFi demand. prefix[j] must already have len(members[j])+1
// entries with prefix[j][0] == 0. Members are ascending and each prefix
// entry extends the previous one by a single addition, so the full sum
// prefix[j][c] is exactly the ascending left-to-right accumulation
// EvaluateWith performs — every rounding included.
func (d *DeltaEval) refreshCell(j, k int) {
	rec, pre := d.recip[j], d.prefix[j]
	for ; k < len(rec); k++ {
		pre[k+1] = pre[k] + rec[k]
	}
	c := len(rec)
	d.count[j] = c
	if c > 0 {
		d.demand[j] = float64(c) / pre[c]
	} else {
		d.demand[j] = 0
	}
}

// searchMember returns the position of user i in the ascending member
// list m, or where it would be inserted.
func searchMember(m []int, i int) int {
	lo, hi := 0, len(m)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if m[h] < i {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo
}

// insertAt inserts v at position k of s, reusing its capacity.
func insertAt[T any](s []T, k int, v T) []T {
	s = append(s, v)
	copy(s[k+1:], s[k:])
	s[k] = v
	return s
}

// recommit re-runs the PLC sharing stage over the committed active set,
// refreshing perExt and the aggregate.
func (d *DeltaEval) recommit() {
	agg := 0.0
	act := d.active
	if len(act) > 0 {
		contenders := len(act)
		if d.opts.FixedShare {
			contenders = d.net.NumExtenders()
		}
		if d.opts.Redistribute {
			need := d.pNeed[:len(act)]
			for k, j := range act {
				need[k] = d.demand[j] / d.net.PLCCaps[j]
			}
			shares := d.pShares[:len(act)]
			satisfied := d.pSatisfied[:len(act)]
			waterFillTimeInto(shares, satisfied, need)
			for k, j := range act {
				d.perExt[j] = minf(d.demand[j], shares[k]*d.net.PLCCaps[j])
			}
		} else {
			fair := 1 / float64(contenders)
			for _, j := range act {
				d.perExt[j] = minf(d.demand[j], fair*d.net.PLCCaps[j])
			}
		}
		for _, j := range act {
			agg += d.perExt[j]
		}
	}
	d.aggregate = agg
	if d.opts.Utility.IsSumRate() {
		d.utility = agg
	} else {
		d.utility = utilityOver(d.opts.Utility, act, d.perExt, d.count)
	}
}

// probe evaluates the (i: from → to) hypothesis without touching the
// committed state: the two affected cells' sums are the committed
// prefix up to i's sorted position plus the cached reciprocals of the
// tail (with i skipped or merged in) — the very addition sequence a
// re-sum of the hypothetical member list would perform — and the
// from-cell demand is memoized per (i, from) until the next Commit; the
// hypothetical active set is built ascending, and the water-fill and
// aggregate sum run over it in exactly EvaluateWith's order. The
// utility rides the same single pass: each cell's contribution is
// accumulated (or min-tracked, for max-min) as its delivered
// throughput is produced, so non-sum-rate probes stay O(Δ) and
// allocation-free; the sum-rate utility is the aggregate itself and
// costs nothing extra.
func (d *DeltaEval) probe(i, from, to int) (agg, own, util float64) {
	d.checkMove(i, from, to)
	d.Probes++
	if from == to {
		return d.aggregate, d.PerUser(i), d.utility
	}

	// Hypothetical demands and counts of the two affected cells.
	fromDem, toDem := 0.0, 0.0
	toCount := 0
	if from != Unassigned && d.count[from] > 1 {
		if d.memoEpoch == d.epoch && d.memoUser == i && d.memoFrom == from {
			fromDem = d.memoFromDem
		} else {
			k := searchMember(d.members[from], i)
			inv := d.prefix[from][k]
			for _, r := range d.recip[from][k+1:] {
				inv += r
			}
			fromDem = float64(d.count[from]-1) / inv
			d.memoEpoch, d.memoUser, d.memoFrom, d.memoFromDem = d.epoch, i, from, fromDem
		}
	}
	if to != Unassigned {
		k := searchMember(d.members[to], i)
		inv := d.prefix[to][k] + 1/d.net.WiFiRates[i][to]
		for _, r := range d.recip[to][k:] {
			inv += r
		}
		toCount = d.count[to] + 1
		toDem = float64(toCount) / inv
	}

	// Hypothetical active set, ascending: committed active with `from`
	// dropped when it empties and `to` merged in when it lights up.
	act := d.pActive[:0]
	dropFrom := from != Unassigned && d.count[from] == 1
	addTo := to != Unassigned && d.count[to] == 0
	for _, j := range d.active {
		if dropFrom && j == from {
			continue
		}
		if addTo && to < j {
			act = append(act, to)
			addTo = false
		}
		act = append(act, j)
	}
	if addTo {
		act = append(act, to)
	}
	// act aliases pActive's backing array (capacity numExt bounds every
	// hypothetical active set, so the appends never reallocate).

	if len(act) == 0 {
		return 0, 0, 0
	}
	demandAt := func(j int) float64 {
		switch j {
		case from:
			return fromDem
		case to:
			return toDem
		}
		return d.demand[j]
	}
	countAt := func(j int) int {
		switch j {
		case from:
			return d.count[from] - 1
		case to:
			return toCount
		}
		return d.count[j]
	}
	u := d.opts.Utility
	sumRate := u.IsSumRate()
	minShare := math.Inf(1)
	contenders := len(act)
	if d.opts.FixedShare {
		contenders = d.net.NumExtenders()
	}
	toPer := 0.0
	if d.opts.Redistribute {
		need := d.pNeed[:len(act)]
		for k, j := range act {
			need[k] = demandAt(j) / d.net.PLCCaps[j]
		}
		shares := d.pShares[:len(act)]
		satisfied := d.pSatisfied[:len(act)]
		waterFillTimeInto(shares, satisfied, need)
		for k, j := range act {
			per := minf(demandAt(j), shares[k]*d.net.PLCCaps[j])
			agg += per
			if j == to {
				toPer = per
			}
			if !sumRate {
				if u.MaxMin {
					if share := per / float64(countAt(j)); share < minShare {
						minShare = share
					}
				} else {
					util += u.CellUtility(countAt(j), per)
				}
			}
		}
	} else {
		fair := 1 / float64(contenders)
		for _, j := range act {
			per := minf(demandAt(j), fair*d.net.PLCCaps[j])
			agg += per
			if j == to {
				toPer = per
			}
			if !sumRate {
				if u.MaxMin {
					if share := per / float64(countAt(j)); share < minShare {
						minShare = share
					}
				} else {
					util += u.CellUtility(countAt(j), per)
				}
			}
		}
	}
	if sumRate {
		util = agg
	} else if u.MaxMin {
		util = minShare
	}
	if to != Unassigned {
		own = toPer / float64(toCount)
	}
	return agg, own, util
}

// check panics when the evaluator has no attached state or the network
// was mutated (Invalidate) since Attach — both programmer errors in a
// hot loop, where returning errors would cost more than the probe.
func (d *DeltaEval) check() {
	if d.net == nil {
		panic("model: DeltaEval used before Attach")
	}
	if d.gen != d.net.gen {
		panic("model: network mutated since Attach; re-Attach the DeltaEval")
	}
}

// checkMove is check plus the move's own invariants: i must currently
// sit on `from`, and `to` must be Unassigned or reachable.
func (d *DeltaEval) checkMove(i, from, to int) {
	d.check()
	if i < 0 || i >= len(d.assign) || d.assign[i] != from {
		panic(fmt.Sprintf("model: DeltaEval move of user %d from %d contradicts committed state", i, from))
	}
	if to != Unassigned && (to < 0 || to >= d.net.NumExtenders() || d.net.WiFiRates[i][to] <= 0) {
		panic(fmt.Sprintf("model: DeltaEval move of user %d to invalid or unreachable extender %d", i, to))
	}
}

// growInts returns s resized to n, reallocating only when capacity is
// short; contents are unspecified.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// growCells returns n per-cell lists, each emptied but keeping the
// capacity it had, so a re-Attach refills them without allocating.
func growCells[T any](s [][]T, n int) [][]T {
	if cap(s) < n {
		s = append(s[:cap(s)], make([][]T, n-cap(s))...)
	}
	s = s[:n]
	for j := range s {
		s[j] = s[j][:0]
	}
	return s
}
