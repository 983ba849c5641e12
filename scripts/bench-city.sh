#!/bin/sh
# Benchmarks the event-driven city harness on the sharded control plane
# and records BENCH_city.json at the repo root:
#
#   BenchmarkCitySmoke     — CI-sized run (8 shards, ~4k users, roaming)
#   BenchmarkCitySustained — acceptance-scale run: 32 shards, 10^5 users
#       sustained under diurnal arrivals and roaming; one iteration
#       drives several hundred thousand plane operations
#   BenchmarkCitySustained1M — north-star run: 256 shards, 10^6 users
#       sustained on the lock-striped coordinator with placement-only
#       warm joins, 4 dispatch lanes and fixed-memory latency sketches;
#       over a million plane operations, takes minutes (WOLT_CITY_1M
#       gates it inside the test binary)
#   BenchmarkEngineChurnEvent — the per-event engine path (leave + join
#       + 2 updates on a 400-user shard); its allocs/op pins the O(1)
#       steady-state allocation discipline of the pooled user table
#
# Each city row reports joins/sec (sustained join throughput), p50_us /
# p99_us (directive latency percentiles), handoff_rate (cross-shard
# handoffs per roam update) and users_peak (population actually
# sustained). Acceptance: the sustained row must show users_peak >= 1e5
# and the 1M row users_peak >= 1e6.
# Usage: scripts/bench-city.sh [count]   (count applies to the smoke and
# engine rows; the sustained runs always execute once)
set -eu

cd "$(dirname "$0")/.."
count="${1:-3}"
out="BENCH_city.json"
raw="${TMPDIR:-/tmp}/bench_city.txt"
cores="$(go env GONUMCPU 2>/dev/null || true)"
[ -n "$cores" ] || cores="$(getconf _NPROCESSORS_ONLN)"

go test -run '^$' -bench 'CitySmoke' -count "$count" \
	./internal/city | tee "$raw"
go test -run '^$' -bench 'CitySustained$' -benchtime 1x -count 1 \
	./internal/city | tee -a "$raw"
WOLT_CITY_1M=1 go test -run '^$' -bench 'CitySustained1M' -benchtime 1x -count 1 \
	-timeout 2h ./internal/city | tee -a "$raw"
go test -run '^$' -bench 'EngineChurnEvent' -benchmem -count "$count" \
	./internal/control | tee -a "$raw"

awk -v cores="$cores" '
BEGIN { printf "{\n  \"cores\": %s,\n  \"runs\": [\n", cores }
/^Benchmark/ {
	name = $1; iters = $2; ns = $3
	jps = "null"; p50 = "null"; p99 = "null"; hr = "null"
	peak = "null"; ev = "null"; bpo = "null"; apo = "null"
	for (i = 4; i <= NF; i++) {
		if ($(i) == "joins/sec") jps = $(i - 1)
		if ($(i) == "p50_us") p50 = $(i - 1)
		if ($(i) == "p99_us") p99 = $(i - 1)
		if ($(i) == "handoff_rate") hr = $(i - 1)
		if ($(i) == "users_peak") peak = $(i - 1)
		if ($(i) == "events") ev = $(i - 1)
		if ($(i) == "B/op") bpo = $(i - 1)
		if ($(i) == "allocs/op") apo = $(i - 1)
	}
	if (n++) printf ",\n"
	printf "    {\"name\": \"%s\", \"iters\": %s, \"ns_per_op\": %s, \"joins_per_sec\": %s, \"p50_us\": %s, \"p99_us\": %s, \"handoff_rate\": %s, \"users_peak\": %s, \"events\": %s, \"b_per_op\": %s, \"allocs_per_op\": %s}", \
		name, iters, ns, jps, p50, p99, hr, peak, ev, bpo, apo
}
END { print "\n  ]\n}" }
' "$raw" > "$out"

echo "wrote $out"
