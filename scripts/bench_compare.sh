#!/bin/sh
# Engine-step performance regression gate.
#
# Re-measures the steady-state engine tick cost (engine_step entries:
# nonshared, shared, shared_batch1 — best of three runs each) and
# compares ns/op against the newest committed BENCH_pr*.json snapshot.
# Any mode more than BENCH_TOLERANCE_PCT percent slower (default 25)
# fails. Modes the baseline predates are reported but never fail, so
# schema growth does not break older baselines.
#
# Also re-measures engine_run — {inline, parallel, auto} × {micro,
# heavy} — and fails if the engine's own worker sizing (auto) is more
# than the same tolerance behind the better pinned arm on either
# fixture. That comparison is within this run, not against the
# baseline. Run at the default GOMAXPROCS.
#
# Also re-measures mip_solve — one branch-and-bound solve of the serving
# shape into a 50 000-node cap — and fails when its time per node or its
# allocations per solve are more than the tolerance above the baseline's
# (snapshots before PR 16 have no such entry and gate nothing here).
#
# Usage: scripts/bench_compare.sh [baseline.json]
set -eu
cd "$(dirname "$0")/.."

base="${1:-}"
if [ -z "$base" ]; then
    base=$(ls BENCH_pr*.json 2>/dev/null | sort -V | tail -1)
fi
if [ -z "$base" ] || [ ! -f "$base" ]; then
    echo "bench_compare: no committed BENCH_pr*.json baseline found" >&2
    exit 1
fi

exec go run ./cmd/figures -bench-compare "$base" -bench-tolerance "${BENCH_TOLERANCE_PCT:-25}"
