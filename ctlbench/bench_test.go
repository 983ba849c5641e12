package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/plcwifi/wolt/internal/city"
)

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(100 - i) // unsorted: 100 … 1
	}
	if v, ok := percentile(s, 0.5); v != 50 || !ok {
		t.Fatalf("p50 of 1..100 = %v, %v; want 50, true", v, ok)
	}
	if v, ok := percentile(s, 0.9); v != 90 || !ok {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
	if v, _ := percentile(s, 0.999); v != 100 {
		t.Fatalf("p99.9 of 1..100 = %v; want the maximum", v)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Fatal("percentile of no samples reported ok")
	}
}

// The sample-count rule: a percentile is reported only with at least
// ten samples beyond it.
func TestPercentileSampleCountRule(t *testing.T) {
	for _, c := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{19, 0.5, false}, {20, 0.5, true},
		{90, 0.9, false}, {100, 0.9, true},
		{999, 0.99, false}, {1000, 0.99, true},
	} {
		s := make([]float64, c.n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		v, ok := percentile(s, c.q)
		if ok != c.ok {
			t.Errorf("n=%d q=%v: ok=%v, want %v", c.n, c.q, ok, c.ok)
		}
		if ok && c.n-int(v) < minTail {
			t.Errorf("n=%d q=%v: value %v leaves fewer than %d samples beyond it", c.n, c.q, v, minTail)
		}
	}
}

// A gated percentile is the median of the instance runs' percentiles,
// over the runs whose samples the sample-count rule admits.
func TestRunPercentileMedianOverRuns(t *testing.T) {
	var tl tally
	runs := []struct{ n, base int }{{20, 0}, {20, 100}, {20, 1000}, {5, 5000}}
	tl.cut()
	for _, r := range runs {
		for i := 1; i <= r.n; i++ {
			tl.lat[kJoin] = append(tl.lat[kJoin], float64(r.base+i))
		}
		tl.cut()
	}
	// The 5-sample run has too few samples for a p50 and is left out.
	if v, ok := tl.runPercentile(0.5, kJoin); v != 110 || !ok {
		t.Fatalf("median of run p50s = %v, %v; want 110, true", v, ok)
	}
	if _, ok := tl.runPercentile(0.5, kLeave); ok {
		t.Fatal("a kind with no samples reported ok")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// benchmarkFile is the part of the repository's BENCHMARK.json the
// program must agree with.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestMetricNamesValid(t *testing.T) {
	seen := map[string]bool{}
	check := func(name, unit string) {
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q is not valid", name)
		}
		if !unitRE.MatchString(unit) {
			t.Errorf("unit %q of %s is not valid", unit, name)
		}
		if seen[name] {
			t.Errorf("metric name %q used twice", name)
		}
		seen[name] = true
	}
	for _, m := range endToEnd {
		check(m.name, m.unit)
	}
	for _, m := range perLayer {
		check(m.name, m.unit)
	}
	for _, w := range workloads {
		check(w.name, "count")
	}
}

func TestBenchmarkFileMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if len(f.EndToEnd) != len(endToEnd) || len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d/%d metrics, the program %d/%d",
			len(f.EndToEnd), len(f.PerLayer), len(endToEnd), len(perLayer))
	}
	setup := false
	for i, m := range f.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s %s, program has %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in s, lower better")
	}
	for i, m := range f.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s %s, program has %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	if len(f.Workloads) < 2 || len(f.Workloads) > 8 {
		t.Errorf("%d workloads", len(f.Workloads))
	}
	for _, w := range f.Workloads {
		if _, ok := findWorkload(w.Name); !ok || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: unknown to the program, or its why is empty or too long", w.Name)
		}
	}
}

// tiny shrinks a workload to a smoke-test size, keeping its shape.
func tiny(w workload) workload {
	full := w.city
	w.city = func(seed int64) city.Config {
		c := full(seed)
		c.TargetUsers = c.TargetUsers/100 + 8
		if c.Horizon > 120 {
			c.Horizon = 120
		}
		return c
	}
	if w.sessions {
		w.sessionsPerRep = 8
	}
	return w
}

// Every benchmarked workload runs its whole pipeline at a tiny size, the
// traced replays included, and passes every output check.
func TestSmokeWorkloads(t *testing.T) {
	for _, name := range []string{"enterprise", "churn", "fill", "sessions"} {
		t.Run(name, func(t *testing.T) {
			w, ok := findWorkload(name)
			if !ok {
				t.Fatalf("no workload %s", name)
			}
			w = tiny(w)
			for _, traced := range []bool{false, true} {
				var tl *tally
				var lay map[string]float64
				if w.sessions {
					tl, lay = runSessions(w, 7, time.Millisecond, traced)
				} else {
					tl, lay = runInproc(w, 7, time.Millisecond, traced)
				}
				if !tl.ck.ok() || tl.failed != 0 || tl.attempted == 0 {
					t.Fatalf("traced=%v: attempted %d, failed %d, checks %q", traced, tl.attempted, tl.failed, tl.ck.msgs)
				}
				if traced {
					for _, m := range perLayer {
						if _, ok := lay[m.name]; !ok && m.name != "host.steal_frac" {
							t.Errorf("traced run did not measure %s", m.name)
						}
					}
				}
			}
		})
	}
}

// The checks catch a controller whose view disagrees with the
// directives it returned.
func TestCheckCoordinatorCatchesDivergence(t *testing.T) {
	w, _ := findWorkload("enterprise")
	c, err := city.New(tiny(w).city(3))
	if err != nil {
		t.Fatal(err)
	}
	coord, err := c.NewCoordinator()
	if err != nil {
		t.Fatal(err)
	}
	p := &probe{coord: coord, caps: c.PLCCaps(), t: &tally{}}
	if _, err := c.Run(p); err != nil {
		t.Fatal(err)
	}
	var ck checkErr
	checkCoordinator(coord, &p.b, &ck)
	if !ck.ok() {
		t.Fatalf("consistent book reported: %q", ck.msgs)
	}
	for id, e := range p.b.ext {
		if e >= 0 {
			p.b.ext[id] = (e + 1) % len(c.PLCCaps())
			break
		}
	}
	checkCoordinator(coord, &p.b, &ck)
	if ck.ok() {
		t.Fatal("a moved user in the book went unreported")
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "fill", "--seconds", "0"},
		{"--workload", "fill", "--trace", "2"},
	} {
		if code := run(args); code == 0 {
			t.Errorf("run(%q) = 0", args)
		}
	}
}
