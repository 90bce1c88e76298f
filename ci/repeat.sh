#!/usr/bin/env bash
# Re-run a cargo test invocation N times and stop at the first failure —
# the loop that found the test-isolation races of PRs 12 and 14 (tests
# sharing a spill dir or a socket path fail once in tens of runs, not in
# one). The tests are built once; every round re-executes them.
#
# Usage: ci/repeat.sh <n> <cargo test args…>
#   e.g. ci/repeat.sh 15 -q --test out_of_core
#        ci/repeat.sh 60 -q -p ease-graph spill
# Runs locally and in CI (shellcheck-clean).
set -euo pipefail

if [[ $# -lt 2 || ! "$1" =~ ^[1-9][0-9]*$ ]]; then
    echo "usage: ci/repeat.sh <n> <cargo test args…>" >&2
    exit 2
fi
rounds="$1"
shift

cd "$(dirname "$0")/.."
cargo test --no-run "$@"
for ((round = 1; round <= rounds; round++)); do
    if ! cargo test "$@"; then
        echo "repeat: round $round of $rounds failed: cargo test $*" >&2
        exit 1
    fi
done
echo "repeat: $rounds rounds passed: cargo test $*"
