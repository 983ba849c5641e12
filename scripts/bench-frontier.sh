#!/bin/sh
# Benchmarks the α-fair utility frontier: one full two-phase wolt-alpha
# solve per utility member (α = 0, 0.5, 1, 2, 4, ∞) on the enterprise
# instance (10 extenders × 40 users), recording the runs as JSON in
# BENCH_frontier.json at the repo root:
#
#   BenchmarkFrontierAlpha/alpha=G — solve latency plus the headline
#       frontier quantities: aggregate_Mbps (the sum-rate the α-solve
#       pays), jain (the fairness it buys) and utility (the achieved
#       U_α objective value).
#
# Acceptance: the alpha=1 row (wolt-pf) must show a strictly higher
# Jain index than the alpha=0 row (plain wolt) — fairness members must
# actually buy fairness, not just cost throughput.
# Usage: scripts/bench-frontier.sh [count]
set -eu

cd "$(dirname "$0")/.."
count="${1:-3}"
out="BENCH_frontier.json"
raw="${TMPDIR:-/tmp}/bench_frontier.txt"
cores="$(go env GONUMCPU 2>/dev/null || true)"
[ -n "$cores" ] || cores="$(getconf _NPROCESSORS_ONLN)"

go test -run '^$' -bench 'FrontierAlpha' -benchmem -count "$count" \
	. | tee "$raw"

awk -v cores="$cores" '
BEGIN { printf "{\n  \"cores\": %s,\n  \"runs\": [\n", cores }
/^Benchmark/ {
	name = $1; iters = $2; ns = $3
	bpo = "null"; apo = "null"; agg = "null"; jain = "null"; util = "null"
	for (i = 4; i <= NF; i++) {
		if ($(i) == "B/op") bpo = $(i - 1)
		if ($(i) == "allocs/op") apo = $(i - 1)
		if ($(i) == "aggregate_Mbps") agg = $(i - 1)
		if ($(i) == "jain") jain = $(i - 1)
		if ($(i) == "utility") util = $(i - 1)
	}
	if (n++) printf ",\n"
	printf "    {\"name\": \"%s\", \"iters\": %s, \"ns_per_op\": %s, \"aggregate_mbps\": %s, \"jain\": %s, \"utility\": %s, \"b_per_op\": %s, \"allocs_per_op\": %s}", \
		name, iters, ns, agg, jain, util, bpo, apo
}
END { print "\n  ]\n}" }
' "$raw" > "$out"

# Enforce the acceptance criterion recorded above: on at least one
# recorded run the α=1 member strictly improves Jain over α=0.
awk '
/^BenchmarkFrontierAlpha\/alpha=0 / || /^BenchmarkFrontierAlpha\/alpha=0-/ {
	for (i = 4; i <= NF; i++) if ($(i) == "jain" && $(i - 1) > j0) j0 = $(i - 1)
}
/^BenchmarkFrontierAlpha\/alpha=1 / || /^BenchmarkFrontierAlpha\/alpha=1-/ {
	for (i = 4; i <= NF; i++) if ($(i) == "jain" && $(i - 1) > j1) j1 = $(i - 1)
}
END {
	if (!(j1 > j0)) { printf "FAIL: wolt-pf jain %s <= wolt jain %s\n", j1, j0; exit 1 }
	printf "ok: wolt-pf jain %s > wolt jain %s\n", j1, j0
}
' "$raw"

echo "wrote $out"
