#!/bin/sh
# Build the benchmark from source, then run one workload:
#
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Must live in a checkout of the repository.  dune's output goes to
# stderr so the result line stays the last line of stdout, and its
# shared cache is off so the build writes only inside the checkout.
# The checked-out commit is printed first, as a host diagnostic.
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: no repository sources here (dune-project, lib/)" >&2
  exit 2
fi
# the OCaml toolchain may be installed by opam without being on PATH
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
dune build --root . --cache=disabled ./perfbench/perfbench.exe 1>&2
echo "commit=$([ -e .git ] && git rev-parse HEAD 2>/dev/null || echo unknown)"
exec ./_build/default/perfbench/perfbench.exe "$@"
