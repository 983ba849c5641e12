#!/bin/sh
# Benchmarks the binary wire codec and the TCP-plane city harness and
# records BENCH_wire.json at the repo root:
#
#   BenchmarkWireEncodeDecode — one full-message encode+decode round
#       trip through the length-prefixed binary framing into pooled
#       buffers; allocs/op MUST be 0 (the codec's whole point)
#   BenchmarkJSONEncodeDecode — the same round trip through the legacy
#       newline-delimited JSON framing (the baseline the codec replaces)
#   BenchmarkCityTCPSmoke     — CI-sized city run over real sockets
#       (2 shard members in-process, ~300 users, binary codec)
#   BenchmarkCityTCP10K       — acceptance-scale run: 8 shard members in
#       separate processes (the 20k-fd limit rules out one process at
#       this scale), 10^4 sustained users joining/roaming/leaving over
#       TCP with the binary codec (WOLT_CITY_TCP gates it in-binary)
#   BenchmarkCityTCP10KJSON   — the same run on the JSON codec; the
#       price of the old framing under identical churn
#
# City rows report joins/sec, p50_us/p99_us (join directive latency),
# users_peak, dropped_pushes and redirects. Acceptance: the wire round
# trip is 0 allocs/op, both 10K rows sustain users_peak >= 1e4, and the
# binary row beats the JSON row on joins/sec and p99_us.
# Usage: scripts/bench-wire.sh [count]   (count applies to the codec and
# smoke rows; the 10K runs always execute once)
set -eu

cd "$(dirname "$0")/.."
count="${1:-3}"
out="BENCH_wire.json"
raw="${TMPDIR:-/tmp}/bench_wire.txt"
cores="$(go env GONUMCPU 2>/dev/null || true)"
[ -n "$cores" ] || cores="$(getconf _NPROCESSORS_ONLN)"

go test -run '^$' -bench 'EncodeDecode' -benchmem -count "$count" \
	./internal/wire | tee "$raw"
go test -run '^$' -bench 'CityTCPSmoke' -count "$count" \
	./internal/city | tee -a "$raw"
WOLT_CITY_TCP=1 go test -run '^$' -bench 'CityTCP10K' -benchtime 1x -count 1 \
	-timeout 1h ./internal/city | tee -a "$raw"

awk -v cores="$cores" '
BEGIN { printf "{\n  \"cores\": %s,\n  \"runs\": [\n", cores }
/^Benchmark/ {
	name = $1; iters = $2; ns = $3
	jps = "null"; p50 = "null"; p99 = "null"; peak = "null"
	ev = "null"; dir = "null"; drop = "null"; red = "null"
	bpo = "null"; apo = "null"
	for (i = 4; i <= NF; i++) {
		if ($(i) == "joins/sec") jps = $(i - 1)
		if ($(i) == "p50_us") p50 = $(i - 1)
		if ($(i) == "p99_us") p99 = $(i - 1)
		if ($(i) == "users_peak") peak = $(i - 1)
		if ($(i) == "events") ev = $(i - 1)
		if ($(i) == "directives") dir = $(i - 1)
		if ($(i) == "dropped_pushes") drop = $(i - 1)
		if ($(i) == "redirects") red = $(i - 1)
		if ($(i) == "B/op") bpo = $(i - 1)
		if ($(i) == "allocs/op") apo = $(i - 1)
	}
	if (n++) printf ",\n"
	printf "    {\"name\": \"%s\", \"iters\": %s, \"ns_per_op\": %s, \"joins_per_sec\": %s, \"p50_us\": %s, \"p99_us\": %s, \"users_peak\": %s, \"events\": %s, \"directives\": %s, \"dropped_pushes\": %s, \"redirects\": %s, \"b_per_op\": %s, \"allocs_per_op\": %s}", \
		name, iters, ns, jps, p50, p99, peak, ev, dir, drop, red, bpo, apo
}
END { print "\n  ]\n}" }
' "$raw" > "$out"

# Acceptance gates (mirrors bench-frontier.sh): the codec must be
# allocation-free and must beat JSON under identical 10^4-user churn.
awk '
/^BenchmarkWireEncodeDecode/ {
	for (i = 4; i <= NF; i++) if ($(i) == "allocs/op") wa = $(i - 1) + 0
	wire_seen = 1
}
/^BenchmarkCityTCP10K-|^BenchmarkCityTCP10K / {
	for (i = 4; i <= NF; i++) {
		if ($(i) == "joins/sec") bj = $(i - 1) + 0
		if ($(i) == "p99_us") bp = $(i - 1) + 0
		if ($(i) == "users_peak") bu = $(i - 1) + 0
	}
	bin_seen = 1
}
/^BenchmarkCityTCP10KJSON/ {
	for (i = 4; i <= NF; i++) {
		if ($(i) == "joins/sec") jj = $(i - 1) + 0
		if ($(i) == "p99_us") jp = $(i - 1) + 0
		if ($(i) == "users_peak") ju = $(i - 1) + 0
	}
	json_seen = 1
}
END {
	fail = 0
	if (!wire_seen) { print "FAIL: BenchmarkWireEncodeDecode missing"; fail = 1 }
	else if (wa != 0) { printf "FAIL: wire round trip allocates (%d allocs/op, want 0)\n", wa; fail = 1 }
	if (!bin_seen || !json_seen) { print "FAIL: CityTCP10K rows missing (WOLT_CITY_TCP run failed?)"; fail = 1 }
	else {
		if (bu < 10000 || ju < 10000) { printf "FAIL: users_peak below 1e4 (binary %d, json %d)\n", bu, ju; fail = 1 }
		if (bj <= jj) { printf "FAIL: binary joins/sec %.0f does not beat json %.0f\n", bj, jj; fail = 1 }
		if (bp >= jp) { printf "FAIL: binary p99_us %.0f does not beat json %.0f\n", bp, jp; fail = 1 }
		if (!fail) printf "OK: binary vs json at 10^4 users: joins/sec %.0f vs %.0f, p99_us %.0f vs %.0f\n", bj, jj, bp, jp
	}
	exit fail
}
' "$raw"

echo "wrote $out"
