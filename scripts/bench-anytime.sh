#!/bin/sh
# Benchmarks the anytime warm re-solve path on the 2k-user x 32-extender
# instance (the BenchmarkLargeSolve shape, PLC caps scaled into the
# WiFi-bound regime so the objective responds to association choices)
# and records the runs as JSON in BENCH_anytime.json at the repo root:
#
#   BenchmarkWarmResolve/hillclimb/probes=N — one warm hill-climb repair
#       of a 20-user churn burst at probe budget N (the budget-vs-quality
#       curve; each row reports gap_pct vs the full two-phase solve and
#       startgap_pct, the damage the churn did)
#
# The hill climb is the only search internal/localsearch has; the raw
# benchmark output goes to $TMPDIR/bench_anytime.txt (default /tmp).
#
# Acceptance: the sub-1000-probe rows must show ns_per_op < 1ms with
# gap_pct <= 3 — a warm re-solve under churn at a fraction of the
# ~100ms full solve (BENCH_delta.json's LargeSolve).
# Usage: scripts/bench-anytime.sh [count]
set -eu

cd "$(dirname "$0")/.."
count="${1:-3}"
out="BENCH_anytime.json"
raw="${TMPDIR:-/tmp}/bench_anytime.txt"
cores="$(go env GONUMCPU 2>/dev/null || true)"
[ -n "$cores" ] || cores="$(getconf _NPROCESSORS_ONLN)"

go test -run '^$' -bench 'WarmResolve' -benchmem -count "$count" \
	./internal/localsearch | tee "$raw"

awk -v cores="$cores" '
BEGIN { printf "{\n  \"cores\": %s,\n  \"runs\": [\n", cores }
/^Benchmark/ {
	name = $1; iters = $2; ns = $3
	bpo = "null"; apo = "null"; gap = "null"; startgap = "null"; probes = "null"
	for (i = 4; i <= NF; i++) {
		if ($(i) == "B/op") bpo = $(i - 1)
		if ($(i) == "allocs/op") apo = $(i - 1)
		if ($(i) == "gap_pct") gap = $(i - 1)
		if ($(i) == "startgap_pct") startgap = $(i - 1)
		if ($(i) == "probes/op") probes = $(i - 1)
	}
	if (n++) printf ",\n"
	printf "    {\"name\": \"%s\", \"iters\": %s, \"ns_per_op\": %s, \"gap_pct\": %s, \"startgap_pct\": %s, \"probes_per_op\": %s, \"b_per_op\": %s, \"allocs_per_op\": %s}", \
		name, iters, ns, gap, startgap, probes, bpo, apo
}
END { print "\n  ]\n}" }
' "$raw" > "$out"

echo "wrote $out"
