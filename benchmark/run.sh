#!/usr/bin/env bash
# The repository's benchmark.  Builds the harness offline against the
# stand-ins in vendor/ and hands it the arguments (see README.md):
#
#   benchmark/run.sh                      every workload, untraced and traced; one JSON document
#   benchmark/run.sh --smoke              the same at a tenth of the size (CI entry point)
#   benchmark/run.sh --aa [RUNS]          two sets of runs of this commit against the bounds
#   benchmark/run.sh --compare A.json B.json
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1    one run (the driver's form)
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac

# Never --locked: the lock file follows the workspace crates' dependency lists.
(cd "$here" && CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet) >&2

exec "$target/release/edhp-bench" --out "$here/out" "$@"
