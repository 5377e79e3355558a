#!/bin/sh
# Tier-1 verification: what every change must pass before merging.
#
#   gofmt -l           the tree must be gofmt-clean
#   build + vet        compile the whole module and run static checks
#   go test ./...      unit, integration, property and shape tests;
#                      internal/core checks every run fingerprint (report
#                      + trace + metrics) against the thirteen digests in
#                      testdata/golden_fingerprints.json, each over
#                      enginetest.WorkerGrid(): plain × 3 SPE profiles,
#                      faults, elastic, elastic-crash, migration staged /
#                      pause, and the five crash-matrix cases (source /
#                      destination / store crash mid-stage, crash after
#                      the stage completed, solver down → last-resort
#                      spread); episode_shape_test.go keeps one caller of
#                      ctl.Begin and one of the solver
#   go test -race ...  the packages that spawn goroutines — the
#                      run-matrix pool (internal/parallel), the
#                      optimizer's parallel component solver and its
#                      node-capped cascade, whose planned solves run two
#                      at a time (internal/optimizer:
#                      TestCascadeDiscardsSpeculativeSolves and the
#                      FuzzCascadeWidth seeds), and the telemetry registry
#                      written to from harness workers (internal/obs) —
#                      under the race detector, plus the scenario script
#                      (internal/scenario) whose generator the pooled
#                      crash harnesses call, the AQE controller
#                      (internal/aqe), the checkpoint coordinator
#                      (internal/checkpoint) whose recovery paths run
#                      inside pooled harness cells and whose delta
#                      chains staged migration pre-ships, the sharded
#                      engine step (internal/engine, internal/core):
#                      their suites pin tick workers and raise the
#                      parallel budget so the slot/router phases
#                      really run on goroutines
#                      (TestShardedChurnStress, the determinism grid —
#                      including the migration-mode axis and the
#                      mid-stage crash matrix),
#                      the serving runtime (internal/runtime) whose
#                      SPSC ingest rings are exactly the kind of
#                      lock-free code the race detector exists for,
#                      and whose consumer side migrates between tick
#                      workers (TestServeConservationUnderParallelTicks),
#                      the optimizer solve that runs beside the loop
#                      that owns the engine (internal/core's
#                      TestFedLoopTicksThroughSolve and
#                      TestStaleResultsAreDropped, internal/runtime's
#                      TestServeIngestsThroughSolves),
#                      the elastic autoscaling policy
#                      (internal/elastic) whose decisions the pooled
#                      determinism grid replays under sharded execution,
#                      and the branch-and-bound solver (internal/mip)
#                      that the solve goroutine runs, whose tests are
#                      bounded by node caps and not by the clock so the
#                      detector's slowdown cannot fail them
#   go test -fuzz ...  short smoke over the native fuzz targets —
#                      keyspace subset remap/anchor math, the
#                      branch-and-bound kernel against
#                      its reference copy (bit-equal status, plan,
#                      objective, bound and node count), the SPSC
#                      ring against a model queue,
#                      the wire decoder against hostile frames, the
#                      greedy optimizer tier against the B&B optimum,
#                      the node-capped cascade at width 1 against width
#                      2 (bit-equal plans, objective, counts, bound gap,
#                      heuristics, crediting step and exactness),
#                      the coordinated descent's incremental trial
#                      scorer against full rescoring (bit-equal trial
#                      scores, plan and objective),
#                      the autoscaler policy's rate-limit/bounds
#                      safety properties, the checkpoint delta
#                      chain's materialize/fixpoint invariants, the
#                      scenario script's text form (any input fails or
#                      round-trips exactly), and the flat exact-window
#                      state against its map-based reference over random
#                      insert / close / extract / merge / capture /
#                      restore / destroy sequences, and the statistics
#                      collector's dense lanes against its map-based
#                      reference over seeded sample streams across
#                      epochs, the figure harness's overlap recorder
#                      (the random forest's training data and
#                      predictions) against its map-based reference,
#                      and the generators' power-law draw
#                      kernel against math.Pow at adversarial draws —
#                      seeded from testdata/fuzz corpora and
#                      the committed *.script files
#   ml boundary        the control loop and the statistics collector
#                      (internal/core, internal/stats) must not depend
#                      on internal/ml: the random forest is measured by
#                      the figure harness only
#   benchmark module   benchmark/ is its own module that compiles against
#                      internal/ APIs (Engine.Results, core.ExportRequest,
#                      runtime.Server): vet it and run its short tests, so
#                      a change that breaks it fails here and not at the
#                      benchmark gate
#   inspect smoke      replays internal/core/testdata/faults.script
#                      through sasparctl inspect and asserts the report
#                      shows the crash injected and recovered
#   serve smoke        boots sasparctl serve on loopback, blasts a
#                      fixed row budget through the binary ingest
#                      protocol, and asserts the /report saw every row
#
# SASPAR_PARALLEL caps the harness worker pool; keep CI deterministic
# but let the bench tests use the machine.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go build"
go build ./...

echo "== go vet"
go vet ./...

echo "== go test"
go test ./...

echo "== go test -race (concurrent packages)"
go test -race ./internal/parallel/ ./internal/optimizer/ ./internal/obs/ ./internal/scenario/ ./internal/aqe/ ./internal/checkpoint/ ./internal/engine/ ./internal/core/ ./internal/runtime/ ./internal/elastic/ ./internal/mip/

echo "== go test -fuzz (smoke)"
go test -run '^$' -fuzz FuzzSubsetRemap -fuzztime 10s ./internal/keyspace/
go test -run '^$' -fuzz FuzzSolveMatchesReference -fuzztime 10s ./internal/mip/
go test -run '^$' -fuzz FuzzRingModel -fuzztime 10s ./internal/runtime/
go test -run '^$' -fuzz FuzzWire -fuzztime 10s ./internal/runtime/
go test -run '^$' -fuzz FuzzGreedyVsBB -fuzztime 10s ./internal/optimizer/
go test -run '^$' -fuzz FuzzCascadeWidth -fuzztime 10s ./internal/optimizer/
go test -run '^$' -fuzz FuzzDescentScorer -fuzztime 10s ./internal/optimizer/
go test -run '^$' -fuzz FuzzPolicyStep -fuzztime 10s ./internal/elastic/
go test -run '^$' -fuzz FuzzDeltaChain -fuzztime 10s ./internal/checkpoint/
go test -run '^$' -fuzz FuzzScript -fuzztime 10s ./internal/scenario/
go test -run '^$' -fuzz FuzzExactState -fuzztime 10s ./internal/engine/
go test -run '^$' -fuzz FuzzCollector -fuzztime 10s ./internal/stats/
go test -run '^$' -fuzz FuzzOverlapRecorder -fuzztime 10s ./internal/bench/
go test -run '^$' -fuzz FuzzPowCurve -fuzztime 10s ./internal/workload/

echo "== ml boundary"
if go list -deps ./internal/core ./internal/stats | grep -qx 'saspar/internal/ml'; then
    echo "internal/core or internal/stats depends on saspar/internal/ml" >&2
    exit 1
fi

echo "== benchmark module (vet + short tests)"
(cd benchmark && go vet ./... && go test -short ./...)

ctl=$(mktemp -t sasparctl.XXXXXX)
go build -o "$ctl" ./cmd/sasparctl

echo "== inspect smoke (scenario script replay)"
inspect_out=$("$ctl" inspect -script internal/core/testdata/faults.script \
    -queries 2 -duration 12s -events 0)
echo "$inspect_out" | grep '^faults'
if ! echo "$inspect_out" | grep -q '^faults  *1 injected, [0-9]* detected, 1 recovered'; then
    echo "inspect smoke: the scripted crash was not injected and recovered" >&2
    exit 1
fi

echo "== serve smoke (loopback ingest)"
"$ctl" serve -addr 127.0.0.1:17420 -http 127.0.0.1:17421 &
serve_pid=$!
blast_out=""
for attempt in 1 2 3 4 5 6 7 8 9 10; do
    if blast_out=$("$ctl" blast -addr 127.0.0.1:17420 -rows 65536 \
        -report http://127.0.0.1:17421/report 2>/dev/null); then
        break
    fi
    blast_out=""
    sleep 1
done
kill -INT "$serve_pid" 2>/dev/null || true
wait "$serve_pid" || true
rm -f "$ctl"
echo "$blast_out"
if ! echo "$blast_out" | grep -q '"ingested_rows":65536'; then
    echo "serve smoke: report did not show 65536 ingested rows" >&2
    exit 1
fi

echo "== bench compare (engine_step and mip_solve regression gates, engine_run auto-vs-pinned gate)"
scripts/bench_compare.sh

echo "CI OK"
