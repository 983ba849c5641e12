package main

import (
	"github.com/plcwifi/wolt/internal/city"
	"github.com/plcwifi/wolt/internal/strategy"
)

// heldOutSeed is kept out of tuning: a later performance claim must also
// hold on it (run with --seed 20261017).
const heldOutSeed = 20261017

// statsEvery is the operator stats-poll period of the in-process
// workloads, in plane operations.
const statsEvery = 64

// workload is one named input set of the benchmark.
type workload struct {
	name string
	// sessions selects the loopback TCP runner; otherwise the workload
	// drives an in-process shard.Coordinator.
	sessions bool
	// city sizes the seeded trace (and, in process, the plane).
	city func(seed int64) city.Config
	// sessionsPerRep is the number of agent sessions one repeat of the
	// sessions workload runs.
	sessionsPerRep int
}

// workloads are the benchmark's named workloads. Every one is a closed
// loop from a single caller goroutine with one operation in flight; the
// trace's timestamps fix only the order of operations.
var workloads = []workload{
	{
		// The paper's single controller: the two-phase WOLT solve
		// (Hungarian Phase I, NLP Phase II) runs on every join and
		// update of a 10-extender, ~40-user network.
		name: "enterprise",
		city: func(seed int64) city.Config {
			return city.Config{
				Shards: 1, ExtendersPerShard: 10, TargetUsers: 40,
				DwellMean: 60, UpdateMean: 60, Horizon: 25 * 60,
				Policy: "wolt", Seed: seed,
			}
		},
	},
	{
		// Campus churn with mobility: every update and leave runs a
		// 200-probe hill climb on a member of ~500 users, and about a
		// quarter of updates hand the user to another member. It is left
		// out of BENCHMARK.json while control.Engine.Update rejects a
		// roamed scan that leaves the user's extender out of reach: its
		// runs abort at the first such update.
		name: "roam",
		city: func(seed int64) city.Config {
			return city.Config{
				Shards: 8, ExtendersPerShard: 4, TargetUsers: 4000,
				DwellMean: 60, UpdateMean: 60, Horizon: 30,
				Policy: "wolt-hillclimb", Budget: strategy.Budget{Probes: 200},
				ReassignOnLeave: true, Seed: seed,
			}
		},
	},
	{
		// Campus churn without mobility: every join and every leave
		// repair runs a 200-probe hill climb on a member of ~500 users.
		name: "churn",
		city: func(seed int64) city.Config {
			return city.Config{
				Shards: 8, ExtendersPerShard: 4, TargetUsers: 4000,
				DwellMean: 60, Horizon: 12,
				Policy: "wolt-hillclimb", Budget: strategy.Budget{Probes: 200},
				ReassignOnLeave: true, Seed: seed,
			}
		},
	},
	{
		// A morning rush into ~3.75k users per member: placement-only
		// joins whose cost is per-user state, and departures without
		// repair.
		name: "fill",
		city: func(seed int64) city.Config {
			return city.Config{
				Shards: 1, ExtendersPerShard: 4, TargetUsers: 3750,
				InitialFill: 1, DwellMean: 60, Horizon: 2,
				Policy: "wolt-hillclimb", Budget: strategy.Budget{Probes: 200},
				PlacementOnlyJoins: true, Seed: seed,
			}
		},
	},
	{
		// Agent sessions over loopback TCP into nearly empty members:
		// the wire codec, control.Server/Agent and the socket stack do
		// the work. The city only supplies each session's scans.
		name:           "sessions",
		sessions:       true,
		sessionsPerRep: 1024,
		city: func(seed int64) city.Config {
			return city.Config{
				Shards: 4, ExtendersPerShard: 4, TargetUsers: 1024,
				InitialFill: 1, DwellMean: 60, Horizon: 1,
				Policy: "wolt-hillclimb", Budget: strategy.Budget{Probes: 200},
				PlacementOnlyJoins: true, Seed: seed,
			}
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the end-to-end metrics every untraced run reports, with
// their units; BENCHMARK.json names the same set.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p90_us", "us"},
	{"join_p50_us", "us"},
	{"leave_p50_us", "us"},
	{"stats_p50_us", "us"},
	{"cpu_us_per_op", "us"},
	{"heap_live_mib", "MiB"},
	{"directives_per_kop", "1/kop"},
	{"aggregate_gain", "ratio"},
	{"geomean_gain", "ratio"},
}

// perLayer lists the per-layer metrics every traced run reports.
var perLayer = []struct{ name, unit string }{
	{"city.setup_s", "s"},
	{"city.gen_us_per_op", "us"},
	{"shard.join_self_us", "us"},
	{"shard.update_self_us", "us"},
	{"shard.leave_self_us", "us"},
	{"shard.stats_us", "us"},
	{"shard.handoffs_per_kop", "1/kop"},
	{"control.join_us", "us"},
	{"control.update_us", "us"},
	{"control.leave_us", "us"},
	{"control.directives_per_op", "count"},
	{"localsearch.reassign_us", "us"},
	{"localsearch.place_us", "us"},
	{"localsearch.probes_per_solve", "count"},
	{"localsearch.improving_per_commit", "ratio"},
	{"localsearch.attaches_per_solve", "count"},
	{"localsearch.budget_stop_frac", "ratio"},
	{"model.attach_us", "us"},
	{"model.probe_ns", "ns"},
	{"model.evaluate_us", "us"},
	{"core.phase1_us", "us"},
	{"core.phase2_us", "us"},
	{"hungarian.augmentations_per_solve", "count"},
	{"nlp.iterations_per_solve", "count"},
	{"core.polish_sweeps_per_solve", "count"},
	{"wire.bytes_per_frame", "B"},
	{"wire.frames_per_session", "count"},
	{"transport.dial_us", "us"},
	{"transport.join_rtt_us", "us"},
	{"transport.stats_rtt_us", "us"},
	{"transport.dropped_pushes", "count"},
	{"transport.redirects", "count"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_per_kop", "1/kop"},
	{"host.steal_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}
