#!/usr/bin/env bash
# Build the benchmark from source and run it. Run from the root of a
# Disco checkout:
#   bash perfbench/run.sh --workload fanout --seed 1 --seconds 10 --trace 0
# Build outputs and span files go to $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/dune-project ]; then
  echo "perfbench: run from the root of a Disco checkout (lib/ and dune-project are missing)" >&2
  exit 2
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
dune build --root . --profile release --build-dir "$build" ./perfbench/bin/bench.exe >&2
exec "$build/default/perfbench/bin/bench.exe" --trace-dir "$build/traces" "$@"
