#!/usr/bin/env bash
# Build the qcr_cli server and the benchmark from source, then run the
# benchmark with the given arguments, from the root of the checkout:
#   bash perfbench/run.sh --workload qaoa-sweep --seed 1 --seconds 20 --trace 0
set -euo pipefail
dune build --root . bin/qcr_cli.exe perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
