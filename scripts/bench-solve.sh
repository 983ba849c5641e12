#!/bin/sh
# Benchmarks one full WOLT solve (2k users x 32 extenders) at one
# worker vs all cores and records the runs as JSON in BENCH_solve.json
# at the repo root, tagged with the machine's core count. The two
# configurations return bit-identical assignments (DESIGN.md par.7);
# only wall-clock differs, and only when the machine has >1 core.
# Usage: scripts/bench-solve.sh [count]
set -eu

cd "$(dirname "$0")/.."
count="${1:-3}"
out="BENCH_solve.json"
raw="${TMPDIR:-/tmp}/bench_solve.txt"
cores="$(go env GONUMCPU 2>/dev/null || true)"
[ -n "$cores" ] || cores="$(getconf _NPROCESSORS_ONLN)"

go test -run '^$' -bench LargeSolve -benchmem -count "$count" \
	./internal/core | tee "$raw"

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
