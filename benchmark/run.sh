#!/usr/bin/env bash
# Configures, builds (Release, into build-bench/) and runs the tcpdyn
# end-to-end benchmark. Run from the repository root:
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
#                    [--out FILE] [--quick]
#
# Without --workload every workload runs, round-robin. --seconds is accepted
# and unused: every workload has a fixed trial count. The last line of
# stdout is the result as one JSON object; build output and the readable
# tables go to stderr. The full report goes to --out, by default
# build-bench/report.json. --quick runs the smoke tests instead.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/build-bench"

if [[ ! -f "$root/src/CMakeLists.txt" ]]; then
  echo "run.sh: no tcpdyn sources at $root/src; run from a full checkout" >&2
  exit 2
fi

cmake -S "$root/benchmark" -B "$build" >&2
cmake --build "$build" -j "$(nproc)" >&2

for arg in "$@"; do
  if [[ "$arg" == "--quick" ]]; then
    exec ctest --test-dir "$build" --output-on-failure
  fi
done

# A later --out on the command line wins.
exec "$build/tcpdyn_bench" --out "$build/report.json" "$@"
