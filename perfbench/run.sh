#!/bin/sh
# Build the benchmark and the ckpt-serve daemon from source, then run one
# workload. From the root of a checkout of the repository:
#
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# The build log goes to stderr; the last line of stdout is the result.
set -eu
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f bin/ckpt_serve.ml ]; then
  echo "perfbench: run from the root of a checkout of the repository" >&2
  exit 2
fi
# Keep every build product inside the checkout.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/perfbench.exe ./bin/ckpt_serve.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe --server ./_build/default/bin/ckpt_serve.exe "$@"
