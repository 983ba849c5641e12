#!/bin/sh
# lint-imports.sh — keep internal/baseline an implementation detail of
# the strategy layer.
#
# Every consumer (simulator, experiments, control plane, CLI, facade)
# must go through internal/strategy: one registry, one instrumentation
# point, one scratch discipline. Direct baseline imports are allowed
# only inside internal/strategy and internal/baseline themselves, and
# in test files (which compare strategies against the raw algorithms).
set -eu
cd "$(dirname "$0")/.."

bad=$(grep -rnF '"github.com/plcwifi/wolt/internal/baseline"' --include='*.go' . \
	| grep -v '^\./internal/baseline/' \
	| grep -v '^\./internal/strategy/' \
	| grep -v '_test\.go:' || true)

if [ -n "$bad" ]; then
	echo "import lint: direct internal/baseline import outside the strategy layer:" >&2
	echo "$bad" >&2
	echo "route it through internal/strategy (registry name or passthrough)" >&2
	exit 1
fi

# The shard layer gets no test-file exemption: shards must observe
# policies strictly through control.Engine (and thus the strategy
# registry), so internal/baseline stays unreachable from internal/shard
# in any file.
bad=$(grep -rnF '"github.com/plcwifi/wolt/internal/baseline"' --include='*.go' ./internal/shard/ || true)
if [ -n "$bad" ]; then
	echo "import lint: internal/shard must not reach internal/baseline (not even in tests):" >&2
	echo "$bad" >&2
	echo "shard members drive policies only through control.Engine" >&2
	exit 1
fi

# model.DeltaEval is the stateful O(Δ) evaluator behind the algorithm
# layers' probe loops. Its re-attach discipline (generation counter,
# Matches) is easy to hold inside a solver and easy to violate from ad
# hoc call sites, so only the algorithm packages — internal/baseline,
# internal/core, internal/localsearch, internal/nlp, internal/netsim —
# may construct one (internal/model owns it). Everyone else consumes
# delta-evaluated results through the strategy registry's
# instrumentation. Test files are exempt.
bad=$(grep -rn 'model\.DeltaEval' --include='*.go' . \
	| grep -v '^\./internal/model/' \
	| grep -v '^\./internal/baseline/' \
	| grep -v '^\./internal/core/' \
	| grep -v '^\./internal/localsearch/' \
	| grep -v '^\./internal/nlp/' \
	| grep -v '^\./internal/netsim/' \
	| grep -v '_test\.go:' || true)
if [ -n "$bad" ]; then
	echo "import lint: model.DeltaEval constructed outside the algorithm layers:" >&2
	echo "$bad" >&2
	echo "only internal/{baseline,core,localsearch,nlp,netsim} may hold a delta evaluator; use the strategy registry" >&2
	exit 1
fi

# internal/localsearch is pure algorithm layer: it sits below core and
# strategy (both import it for the warm paths), so it may depend only
# on internal/model. The hill climb is deterministic and draws no
# randomness, so not even internal/seed belongs here; an import of the
# registry, the solver pipeline, or any plane above them would be a
# layering cycle waiting to happen. Test files are exempt
# (bench_test.go prices the warm re-solve against the full solve in
# internal/core, and the fuzz instances come from internal/seed).
bad=$(grep -rnF '"github.com/plcwifi/wolt/internal/' --include='*.go' ./internal/localsearch/ \
	| grep -v '_test\.go:' \
	| grep -vF '"github.com/plcwifi/wolt/internal/model"' || true)
if [ -n "$bad" ]; then
	echo "import lint: internal/localsearch must stay in the algorithm layer (model only):" >&2
	echo "$bad" >&2
	echo "hand results up through internal/core or the strategy registry instead" >&2
	exit 1
fi
# internal/city is a pure harness: it composes the planes (shard,
# control) with the workload generators (workload, eventsim, seed) and
# carries a strategy.Budget through to the engines. It must never reach
# into the model or algorithm layers directly — a city that builds its
# own model.Network or calls a solver is no longer measuring the plane
# it claims to. No test-file exemption: the differential tests compare
# planes against each other, not against raw algorithms.
bad=$(grep -rnE '"github.com/plcwifi/wolt/internal/(model|baseline|core|nlp|localsearch|netsim|hungarian|topology|radio|plc)"' \
	--include='*.go' ./internal/city/ || true)
if [ -n "$bad" ]; then
	echo "import lint: internal/city must drive the plane only via shard/control/workload/eventsim/seed:" >&2
	echo "$bad" >&2
	echo "scan reports and budgets are the only interface; do not reach the model or algorithm layers" >&2
	exit 1
fi
# internal/model is the evaluation-layer leaf: the network model, the
# delta evaluator, and the utility family (model.Utility — every α-fair
# objective definition) all live here, beneath every solver. Utility
# semantics must not leak upward into nlp/core/localsearch-specific
# definitions, and model must not reach up either: its non-test files
# are stdlib-only (tests may use internal/seed for derived streams).
bad=$(grep -rnF '"github.com/plcwifi/wolt/internal/' --include='*.go' ./internal/model/ \
	| grep -v '_test\.go:' || true)
if [ -n "$bad" ]; then
	echo "import lint: internal/model must stay a stdlib-only leaf package:" >&2
	echo "$bad" >&2
	echo "utility/objective definitions belong in internal/model; solvers adapt to them, not vice versa" >&2
	exit 1
fi
# internal/wire is the binary wire codec: a stdlib-only leaf beneath
# the control plane. It defines the frame layout and the Message/Stats
# types that internal/control re-exports as aliases; pulling any other
# internal package into it would couple the on-the-wire format to model
# or plane internals. No test-file exemption — even its fuzzers need
# nothing above stdlib.
bad=$(grep -rnF '"github.com/plcwifi/wolt/internal/' --include='*.go' ./internal/wire/ || true)
if [ -n "$bad" ]; then
	echo "import lint: internal/wire must stay a stdlib-only leaf package:" >&2
	echo "$bad" >&2
	echo "the wire codec defines the protocol; planes adapt to it, not vice versa" >&2
	exit 1
fi
# Conversely, only the transport layers — internal/control (links,
# codec negotiation) and internal/shard (redirect framing) — may import
# internal/wire directly. Everyone above them uses the control-package
# aliases (control.Message, control.Stats), so the codec can evolve
# behind one seam. Test files inside those two packages are covered by
# the path allowlist; tests elsewhere must also go through control.
bad=$(grep -rnF '"github.com/plcwifi/wolt/internal/wire"' --include='*.go' . \
	| grep -v '^\./internal/wire/' \
	| grep -v '^\./internal/control/' \
	| grep -v '^\./internal/shard/' || true)
if [ -n "$bad" ]; then
	echo "import lint: internal/wire imported outside the transport layer (control, shard):" >&2
	echo "$bad" >&2
	echo "use the control-package aliases (control.Message, control.Stats) instead" >&2
	exit 1
fi
# internal/stats is a leaf utility (streaming quantile sketches for
# host-side measurements): stdlib only, so every layer — harness, CLI,
# experiments — may use it without dragging plane or algorithm code
# along. Any internal import from it is a layering violation. No
# test-file exemption; even its tests need nothing above stdlib.
bad=$(grep -rnF '"github.com/plcwifi/wolt/internal/' --include='*.go' ./internal/stats/ || true)
if [ -n "$bad" ]; then
	echo "import lint: internal/stats must stay a stdlib-only leaf package:" >&2
	echo "$bad" >&2
	echo "move anything needing plane or algorithm types out of internal/stats" >&2
	exit 1
fi
echo "import lint: clean"
