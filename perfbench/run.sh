#!/usr/bin/env bash
# Build the benchmark and the symref CLI from this checkout's sources, then
# run one workload; the last line of stdout is the JSON result.
#
#   bash perfbench/run.sh --workload fleet-hit --seed 1 --seconds 20 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib/serve ] || [ ! -d bin ]; then
  echo "perfbench: not a symref checkout (needs dune-project, lib/ and bin/)" >&2
  exit 2
fi
command -v dune >/dev/null || eval "$(opam env 2>/dev/null)"
# Everything the build writes stays in the checkout's _build.
export DUNE_CACHE=disabled
dune build --root . -j 2 --display quiet perfbench/perfbench.exe bin/symref.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe --symref ./_build/default/bin/symref.exe "$@"
