// Command ctlbench is the WOLT control-plane benchmark. It drives one
// named workload through the control plane's public entry points from a
// single caller goroutine with one operation in flight (a closed loop
// over a seeded city trace), times every operation exactly, checks the
// plane's outputs, and prints one JSON result line.
//
// Run from the repository root:
//
//	bash ctlbench/run.sh --workload enterprise --seed 1 --seconds 38 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// it holds the per-layer metrics of a separate traced run, which replays
// the operations it captured into each lower layer.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"github.com/plcwifi/wolt/internal/seed"
	"github.com/plcwifi/wolt/internal/shard"
)

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is printed on the line before the result: the host, the
// per-kind sample counts and the figures that are not gated metrics.
type report struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	HeldOut    int64              `json:"held_out_seed"`
	Trace      bool               `json:"trace"`
	Host       hostFacts          `json:"host"`
	Instances  int                `json:"instances"`
	Samples    map[string]int     `json:"samples"`
	Extra      map[string]float64 `json:"extra"`
	FailedFrac float64            `json:"failed_frac"`
	Checks     []string           `json:"failed_checks,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("ctlbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "seconds to measure")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "ctlbench: need --workload of %v, --seconds > 0, --trace 0|1\n", workloadNames())
		return 2
	}
	rep, res := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "ctlbench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "ctlbench:", err)
		return 1
	}
	if !res.Correct {
		for _, m := range rep.Checks {
			fmt.Fprintln(os.Stderr, "ctlbench: check failed:", m)
		}
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// measure runs one workload for the given time and assembles its report
// and result.
func measure(w workload, seed int64, d time.Duration, traced bool) (report, result) {
	s0, _ := readCPUStat()
	var t *tally
	var layers map[string]float64
	if w.sessions {
		t, layers = runSessions(w, seed, d, traced)
	} else {
		t, layers = runInproc(w, seed, d, traced)
	}
	s1, _ := readCPUStat()
	steal := stealFrac(s0, s1)

	rep := report{
		Workload: w.name, Seed: seed, HeldOut: heldOutSeed, Trace: traced,
		Host: readHostFacts(steal), Instances: len(t.inst),
		Samples: map[string]int{}, Extra: map[string]float64{},
	}
	for k, s := range t.lat {
		rep.Samples[kindNames[k]] = len(s)
	}
	if t.attempted > 0 {
		rep.FailedFrac = float64(t.failed) / float64(t.attempted)
	}
	res := result{Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = 1
	}

	names, values := endToEnd, endToEndValues(t, rep.Extra)
	if traced {
		names, values = perLayer, layers
		if values == nil {
			values = map[string]float64{}
		}
		values["host.steal_frac"] = steal
	}
	for _, m := range names {
		v, ok := values[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.ck.failf("run did not measure %s", m.name)
			v = 0
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	rep.Checks = t.ck.msgs
	res.Correct = t.ck.ok() && t.failed == 0
	return rep, res
}

// endToEndValues derives the end-to-end metrics from a run's tally; extra
// receives the figures reported beside them. Throughput, CPU time and
// the gated latencies are medians over the run's instance runs, so a
// minority of runs slowed by a noisy neighbour does not move them; the
// per-kind percentiles reported beside them pool every operation.
func endToEndValues(t *tally, extra map[string]float64) map[string]float64 {
	v := map[string]float64{}
	v["setup_s"] = median(t.setups)
	var ops, moves, dirs int
	var rates, cpus []float64
	var agg, geo, aggGain, geoGain float64
	for _, s := range t.inst {
		if len(s.wall) == 0 || s.ops == 0 {
			return v
		}
		for j := range s.wall {
			rates = append(rates, float64(s.ops)/s.wall[j])
			cpus = append(cpus, 1e6*s.cpu[j]/float64(s.ops))
		}
		ops += s.ops
		agg += mean(s.agg) / float64(len(t.inst))
		geo += mean(s.geo) / float64(len(t.inst))
		aggGain += mean(s.aggGain) / float64(len(t.inst))
		geoGain += mean(s.geoGain) / float64(len(t.inst))
		moves += s.moves
		dirs += s.dirs
	}
	v["ops_per_s"] = median(rates)
	v["cpu_us_per_op"] = median(cpus)
	v["directives_per_kop"] = 1e3 * float64(dirs) / float64(ops)
	extra["moves_per_kop"] = 1e3 * float64(moves) / float64(ops)
	v["heap_live_mib"] = t.heapMiB
	v["aggregate_gain"] = aggGain
	v["geomean_gain"] = geoGain
	extra["aggregate_mbps"] = agg
	extra["geomean_user_mbps"] = geo

	pct := func(name string, q float64, kinds ...int) {
		x, ok := t.runPercentile(q, kinds...)
		if !ok {
			t.ck.failf("%s: no instance run has samples enough for this percentile", name)
		}
		v[name] = x
	}
	pct("op_p90_us", 0.90, kJoin, kUpdate, kLeave)
	pct("join_p50_us", 0.50, kJoin)
	pct("leave_p50_us", 0.50, kLeave)
	pct("stats_p50_us", 0.50, kStats)
	// Beside the gated metrics: every kind's median and tail over the
	// pooled samples, up to the highest percentile that has ten samples
	// beyond it. Per-kind tails swing with CPU steal on a shared host, so
	// the gated tail is the p90 over all operations.
	for k, name := range kindNames {
		for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
			if x, ok := percentile(t.lat[k], q); ok {
				extra[fmt.Sprintf("%s_p%g_us", name, 100*q)] = x
			}
		}
	}
	return v
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// instanceStream derives a run's instance seeds from its --seed. It lies
// outside the range of streams internal/seed enumerates.
const instanceStream seed.Stream = 1 << 40

// instanceSeed is the seed of instance i of a run.
func instanceSeed(base int64, i int) int64 {
	return seed.Derive(base, instanceStream, int64(i))
}

// runInproc runs an in-process workload's instances until the measuring
// time is spent.
func runInproc(w workload, base int64, d time.Duration, traced bool) (*tally, map[string]float64) {
	t := &tally{}
	var capture []capOp
	var last *shard.Coordinator
	ok := true
	t.repeat(d, func(i int, again bool) bool {
		var cp *[]capOp
		if traced && i == 0 && !again {
			cp = &capture
		}
		last, ok = runInprocRep(w.city(instanceSeed(base, i)), t, i, cp)
		return ok
	})
	if !ok {
		return t, map[string]float64{}
	}
	withPlane := heapLiveMiB()
	runtime.KeepAlive(last)
	t.heapMiB = withPlane - heapLiveMiB()
	for len(t.setups) < minSetups {
		extraInprocSetup(w.city(instanceSeed(base, 0)), t)
	}
	if !traced {
		return t, nil
	}
	return t, layers(w.city(instanceSeed(base, 0)), t, capture)
}
