#!/usr/bin/env bash
# Build the varbench program and the varbuf-serve CLI from source, then
# run one workload:
#
#   bash varbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the root of a varbuf checkout.  Build output goes to
# standard error; the last line of standard output is the result.
set -u
cd "$(dirname "$0")/.." || exit 2
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "varbench: not a varbuf checkout (no dune-project, lib/ or bin/)" >&2
  exit 2
fi
export DUNE_CACHE=disabled
dune build --root . ./varbench/main.exe ./bin/serve_main.exe 1>&2 || exit 3
exec ./_build/default/varbench/main.exe "$@"
