#!/usr/bin/env bash
# Build the benchmark from source, then run one workload:
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
# Run from the root of a checkout. The build stays inside the checkout
# (dune's _build, shared cache off) and its log goes to stderr, so the
# last line of stdout is the result object.
set -euo pipefail
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
dune build --root . --cache=disabled --display=quiet ./benchmark/spf_e2e.exe 1>&2
exec ./_build/default/benchmark/spf_e2e.exe run "$@"
