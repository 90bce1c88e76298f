#!/usr/bin/env bash
# Benchmark smoke — run every workload BENCHMARK.json names through the
# `ease-bench` harness for a few seconds and require a correct result.
# This gates that the harness still builds against the crates and that
# every workload still answers correctly; it is not a measurement (3 s on
# a shared runner says nothing about speed — compare runs with
# `ease-bench compare`, see crates/bench/src/bin/ease-bench/README.md).
#
# Usage: ci/bench_smoke.sh [path-to-ease-bench-binary]
# Runs locally and in CI (shellcheck-clean).
set -euo pipefail

cd "$(dirname "$0")/.."
BENCH_BIN="${1:-target/release/ease-bench}"
if [[ ! -x "$BENCH_BIN" ]]; then
    echo "ease-bench binary not found at $BENCH_BIN" \
        "(build with: cargo build --release -p ease-bench --bin ease-bench)" >&2
    exit 1
fi

mapfile -t workloads < <(jq -r '.workloads[].name' BENCHMARK.json)
if [[ "${#workloads[@]}" -eq 0 ]]; then
    echo "BENCHMARK.json names no workloads" >&2
    exit 1
fi

for workload in "${workloads[@]}"; do
    result="$("$BENCH_BIN" --workload "$workload" --seed 1 --seconds 3 --trace 0 | tail -n 1)"
    if [[ "$result" != *'"correct":true'* ]]; then
        echo "bench smoke: $workload did not report a correct result: $result" >&2
        exit 1
    fi
    echo "bench smoke: $workload ok"
done
