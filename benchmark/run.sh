#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build
# leaves behind — binary, Go build cache, Go's own bookkeeping — stays
# in .bench_build/ inside the checkout. Run from anywhere:
#
#   bash benchmark/run.sh --workload mix-sat --seed 1 --seconds 18 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
(
	cd "$root/benchmark"
	GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
		GOTOOLCHAIN=local go build -o "$build/saspar-bench" .
)
cd "$root"
exec "$build/saspar-bench" -out benchmark/out "$@"
