package main

import (
	"math"
	"sort"

	"github.com/plcwifi/wolt/internal/control"
	"github.com/plcwifi/wolt/internal/model"
	"github.com/plcwifi/wolt/internal/shard"
)

// book is the caller's own view of a plane: the assignment rebuilt from
// every directive the plane returned, and each present user's last scan.
type book struct {
	ext   []int       // user ID → extender; model.Unassigned when absent
	scans [][]float64 // user ID → last scan (buffers reused across joins)
	users int         // present users
	moves int         // directives flagged as reassociations
	dirs  int         // directives returned
}

func (b *book) grow(id int) {
	for len(b.ext) <= id {
		b.ext = append(b.ext, model.Unassigned)
		b.scans = append(b.scans, nil)
	}
}

func (b *book) join(id int, rates []float64) {
	b.grow(id)
	b.scans[id] = append(b.scans[id][:0], rates...)
	b.users++
}

func (b *book) update(id int, rates []float64) {
	b.scans[id] = append(b.scans[id][:0], rates...)
}

func (b *book) leave(id int) {
	b.ext[id] = model.Unassigned
	b.users--
}

// apply folds returned directives into the rebuilt assignment and checks
// each one's reassociation flag against it.
func (b *book) apply(dirs []control.Directive, ck *checkErr) {
	for _, d := range dirs {
		b.dirs++
		if d.UserID < 0 || d.UserID >= len(b.ext) {
			ck.failf("directive for unknown user %d", d.UserID)
			continue
		}
		prev := b.ext[d.UserID]
		if want := prev != model.Unassigned && prev != d.Extender; d.Reassociation != want {
			ck.failf("user %d: directive %d->%d flagged reassociation=%v", d.UserID, prev, d.Extender, d.Reassociation)
		}
		if d.Reassociation {
			b.moves++
		}
		b.ext[d.UserID] = d.Extender
	}
}

// network returns the present users' scans and extenders, in ascending
// user-ID order.
func (b *book) network() ([][]float64, model.Assignment) {
	rates := make([][]float64, 0, b.users)
	a := make(model.Assignment, 0, b.users)
	for id, e := range b.ext {
		if e != model.Unassigned {
			rates = append(rates, b.scans[id])
			a = append(a, e)
		}
	}
	return rates, a
}

// checkCoordinator compares a coordinator's point-in-time snapshot with
// the caller's book: the controller's view must equal the assignment
// rebuilt from directives, and every present user must sit on exactly
// one member, at an extender it can reach that the member owns.
func checkCoordinator(coord *shard.Coordinator, b *book, ck *checkErr) shard.Stats {
	st := coord.StatsWithAssignment()
	if st.Users != b.users || len(st.Assignment) != b.users {
		ck.failf("controller holds %d users (%d assigned), caller counts %d", st.Users, len(st.Assignment), b.users)
	}
	for id, ext := range st.Assignment {
		if id < 0 || id >= len(b.ext) || b.ext[id] != ext {
			ck.failf("user %d: controller says extender %d, directives say otherwise", id, ext)
			continue
		}
		if ext < 0 || ext >= len(b.scans[id]) || b.scans[id][ext] <= 0 {
			ck.failf("user %d sits on extender %d it cannot reach", id, ext)
		}
	}
	seen := make(map[int]int, b.users)
	for m, ps := range st.PerShard {
		for id, ext := range ps.Assignment {
			if prev, dup := seen[id]; dup {
				ck.failf("user %d held by members %d and %d", id, prev, m)
			}
			seen[id] = m
			if coord.Owner(ext) != m {
				ck.failf("user %d on extender %d, which member %d does not own", id, ext, m)
			}
			if st.Assignment[id] != ext {
				ck.failf("user %d: member %d engine says %d, coordinator %d", id, m, ext, st.Assignment[id])
			}
		}
	}
	if len(seen) != b.users {
		ck.failf("members hold %d users, caller counts %d", len(seen), b.users)
	}
	return st
}

// objective is the paper's objective on an assignment: the aggregate
// end-to-end throughput (Mbps) and the geometric mean of the users'
// throughputs (proportional fairness).
type objective struct{ agg, geo float64 }

func evaluate(caps []float64, rates [][]float64, a model.Assignment) (objective, error) {
	res, err := model.Evaluate(&model.Network{PLCCaps: caps, WiFiRates: rates}, a, model.Options{Redistribute: true})
	if err != nil {
		return objective{}, err
	}
	logSum := 0.0
	for _, t := range res.PerUser {
		logSum += math.Log(t)
	}
	return objective{res.Aggregate, math.Exp(logSum / float64(len(a)))}, nil
}

// quality scores an assignment of users with the given scans, and the
// strongest-rate association of the same users (each on its best-rate
// extender) as the reference its gains are taken against.
func quality(caps []float64, rates [][]float64, a model.Assignment) (got, ref objective, err error) {
	if len(a) == 0 {
		return objective{}, objective{}, nil
	}
	if got, err = evaluate(caps, rates, a); err != nil {
		return got, ref, err
	}
	best := make(model.Assignment, len(rates))
	for i, r := range rates {
		best[i] = shard.BestExtender(r)
	}
	ref, err = evaluate(caps, rates, best)
	return got, ref, err
}

// scores accumulates a repeat's objective readings.
type scores struct{ got, ref []objective }

func (s *scores) add(caps []float64, rates [][]float64, a model.Assignment, ck *checkErr) {
	got, ref, err := quality(caps, rates, a)
	if err != nil {
		ck.failf("evaluate assignment: %v", err)
		return
	}
	s.got = append(s.got, got)
	s.ref = append(s.ref, ref)
}

// fill sets a repeat's objective: the mean readings and their gains over
// the reference association.
func (s *scores) fill(r *repStat) {
	var g, f objective
	for i := range s.got {
		g.agg += s.got[i].agg
		g.geo += s.got[i].geo
		f.agg += s.ref[i].agg
		f.geo += s.ref[i].geo
	}
	n := float64(len(s.got))
	r.agg, r.geo = g.agg/n, g.geo/n
	r.aggGain, r.geoGain = g.agg/f.agg, g.geo/f.geo
}

// sortedKeys returns a map's keys in ascending order.
func sortedKeys(m map[int]int) []int {
	ks := make([]int, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}
