package localsearch

import (
	"github.com/plcwifi/wolt/internal/model"
)

// Candidates is the neighborhood cache behind the search loops: for
// every user, the top-M reachable extenders ordered by WiFi PHY rate
// (descending, ties broken by ascending extender index). Restricting
// each user's move set to its M best links turns one improvement pass
// from O(users·extenders) probes into O(users·M) — at enterprise scale
// (2000×32) that is the difference between 64k and 16k probes per pass,
// and the excluded links are exactly the ones the throughput-fair
// objective would never pick anyway (a user joining a cell at a rate
// far below its best link drags the whole cell's harmonic mean down).
//
// The cache is keyed on the network's identity and mutation counter
// (Network.Generation): Ensure only invalidates while either changed,
// mirroring the re-attach discipline of model.DeltaEval. Lists are
// built lazily, the first time For asks for a user after an
// invalidation, so a budgeted warm repair on a network whose
// generation moves on every operation pays only for the users it
// actually visits, not an O(users·extenders) rebuild.
//
// For writes the cache, so a Candidates is not safe for concurrent use
// (the Searcher that owns it is not either).
type Candidates struct {
	net *model.Network
	gen uint64
	m   int

	// epoch is bumped by every invalidating Ensure; user i's list is
	// current only while stamp[i] == epoch. Zero is never a live epoch,
	// so fresh (zeroed) stamps always read as stale.
	epoch uint32
	stamp []uint32
	// flat holds user i's list at flat[i*m : i*m+size[i]]: a fixed
	// stride keeps the lists independent, so building one in place
	// never moves another. Extender indices are stored as int32, which
	// halves the stride the cache keeps for every user.
	flat []int32
	size []int32

	// heads[i] is user i's best-rate reachable extender, or -1 when it
	// reaches fewer than two; all users' heads are current while
	// headEpoch == epoch.
	heads     []int32
	headEpoch uint32
}

// Ensure makes the cache current for network n with neighborhoods of
// size m (m <= 0 or m >= NumExtenders means "all reachable extenders",
// still rate-ordered). It invalidates every list only when the network
// identity, its generation, or m changed since the last call; the lists
// themselves are rebuilt on demand by For.
func (c *Candidates) Ensure(n *model.Network, m int) {
	if m <= 0 || m > n.NumExtenders() {
		m = n.NumExtenders()
	}
	if c.net == n && c.gen == n.Generation() && c.m == m {
		return
	}
	users := n.NumUsers()
	c.net, c.gen, c.m = n, n.Generation(), m
	c.stamp = resize(c.stamp, users)
	if c.epoch++; c.epoch == 0 {
		// The counter wrapped: old stamps could now read as current.
		clear(c.stamp[:cap(c.stamp)])
		c.epoch, c.headEpoch = 1, 0
	}
	c.size = resize(c.size, users)
	c.flat = resize(c.flat, users*m)
}

// For returns user i's candidate extenders, best rate first, building
// the list if Ensure invalidated it. The slice is owned by the cache and
// must not be mutated; it is valid until the next Ensure that
// invalidates.
func (c *Candidates) For(i int) []int32 {
	base := i * c.m
	if c.stamp[i] != c.epoch {
		c.build(i, base)
	}
	return c.flat[base : base+int(c.size[i])]
}

// Heads returns, for every user, the extender with its best WiFi rate
// (the head of its candidate list; the lowest index on ties), or -1 for
// a user reaching fewer than two extenders — one that no search could
// ever move. They are computed for all users at once with a plain scan
// of the rate rows, without building any list, and kept until the next
// invalidating Ensure. The slice is owned by the cache.
func (c *Candidates) Heads() []int32 {
	if c.headEpoch == c.epoch {
		return c.heads
	}
	users := len(c.stamp)
	c.heads = resize(c.heads, users)
	for i, row := range c.net.WiFiRates[:users] {
		head, best, reach := int32(-1), 0.0, 0
		for j, r := range row {
			if r > 0 {
				reach++
				if r > best {
					head, best = int32(j), r
				}
			}
		}
		if reach < 2 {
			head = -1
		}
		c.heads[i] = head
	}
	c.headEpoch = c.epoch
	return c.heads
}

// build selects user i's top-m reachable extenders straight into its
// stride of flat, insertion-sorted by (rate desc, index asc) against the
// network's own rate row.
func (c *Candidates) build(i, base int) {
	row := c.net.WiFiRates[i]
	sel := c.flat[base : base : base+c.m]
	for j, r := range row {
		if r <= 0 {
			continue
		}
		// Insertion position: after every strictly better rate and after
		// equal rates (which have smaller indices, since j ascends).
		k := len(sel)
		for k > 0 && row[sel[k-1]] < r {
			k--
		}
		if k == c.m {
			continue
		}
		if len(sel) < c.m {
			sel = append(sel, 0)
		}
		copy(sel[k+1:], sel[k:])
		sel[k] = int32(j)
	}
	c.size[i] = int32(len(sel))
	c.stamp[i] = c.epoch
}

// resize returns s with length n. It reallocates only when the capacity
// is short, then with 1/16 headroom: a population that creeps up one
// user at a time does not reallocate on every call, and the retained
// heap stays within a few percent of what the cache needs. Contents are
// unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/16)
	}
	return s[:n]
}
