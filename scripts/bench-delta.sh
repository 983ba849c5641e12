#!/bin/sh
# Benchmarks the delta-evaluation core on the dense 2k-user x 32-extender
# probe workload and records the runs as JSON in BENCH_delta.json at the
# repo root, tagged with the machine's core count:
#
#   BenchmarkDeltaProbe     — one O(Δ) single-move what-if (must be 0 allocs)
#   BenchmarkDeltaFullProbe — the same what-if via a full EvaluateWith,
#                             the cost every probe loop paid pre-delta
#   BenchmarkDeltaCommit    — one applied move (member edit + water-fill)
#   BenchmarkLargeSolve     — the end-to-end solve the delta core speeds up,
#                             compared against the committed BENCH_solve.json
#
# The ns_per_op ratio FullProbe/Probe is the delta speedup recorded in
# the acceptance criteria (>= 10x); LargeSolve vs BENCH_solve.json is the
# end-to-end improvement (>= 2x).
# Usage: scripts/bench-delta.sh [count]
set -eu

cd "$(dirname "$0")/.."
count="${1:-3}"
out="BENCH_delta.json"
raw="${TMPDIR:-/tmp}/bench_delta.txt"
cores="$(go env GONUMCPU 2>/dev/null || true)"
[ -n "$cores" ] || cores="$(getconf _NPROCESSORS_ONLN)"

go test -run '^$' -bench 'Delta(Probe|FullProbe|Commit)$' -benchmem -count "$count" \
	./internal/model | tee "$raw"
go test -run '^$' -bench 'LargeSolve' -benchmem -benchtime=1x -count "$count" \
	./internal/core | tee -a "$raw"

awk -v cores="$cores" '
BEGIN { printf "{\n  \"cores\": %s,\n  \"runs\": [\n", cores }
/^Benchmark/ {
	name = $1; iters = $2; ns = $3; bpo = "null"; apo = "null"
	for (i = 4; i <= NF; i++) {
		if ($(i) == "B/op") bpo = $(i - 1)
		if ($(i) == "allocs/op") apo = $(i - 1)
	}
	if (n++) printf ",\n"
	printf "    {\"name\": \"%s\", \"iters\": %s, \"ns_per_op\": %s, \"b_per_op\": %s, \"allocs_per_op\": %s}", \
		name, iters, ns, bpo, apo
}
END { print "\n  ]\n}" }
' "$raw" > "$out"

echo "wrote $out"
