#!/usr/bin/env bash
# Paper-results smoke — print the tiny results document with the `paper`
# driver and require it to be, byte for byte, the checked-in
# PAPER_RESULTS.tiny.md. One `cmp` gates three things: every experiment
# behind the paper's tables and figures still runs, what they print does not
# depend on the process or the schedule, and the checked-in document is what
# the tree produces. Also: each of the driver's five shared artefacts is
# built exactly once, and bad arguments are exit 2 naming the token.
#
# Where `taskset` exists and may pin to CPU 0 the run is pinned there — every
# work queue gets one worker, while the checked-in document was printed
# unpinned — elsewhere it is a plain run. The script prints which.
#
# Usage: ci/paper_smoke.sh [path-to-paper-binary]
# Runs locally and in CI (shellcheck-clean).
set -euo pipefail

cd "$(dirname "$0")/.."
PAPER_BIN="${1:-target/release/paper}"
if [[ ! -x "$PAPER_BIN" ]]; then
    echo "paper binary not found at $PAPER_BIN" \
        "(build with: cargo build --release -p ease-bench --bin paper)" >&2
    exit 1
fi

smoke="$(mktemp -d)"
trap 'rm -rf "$smoke"' EXIT

run=("$PAPER_BIN")
if command -v taskset > /dev/null && taskset -c 0 true 2> /dev/null; then
    run=(taskset -c 0 "$PAPER_BIN")
    echo "determinism gate: paper pinned to one CPU (one worker per queue)"
else
    echo "determinism gate: no usable taskset here, paper runs unpinned"
fi
"${run[@]}" --scale tiny > "$smoke/tiny.md" 2> "$smoke/progress.err"
if ! cmp "$smoke/tiny.md" PAPER_RESULTS.tiny.md; then
    echo "PAPER_RESULTS.tiny.md is not what the tree prints; if the change is meant," \
        "regenerate it: $PAPER_BIN --scale tiny > PAPER_RESULTS.tiny.md" >&2
    diff "$smoke/tiny.md" PAPER_RESULTS.tiny.md | head -n 40 >&2 || true
    exit 1
fi

# trained service, Table IV truth, test-set records, wiki pool, fixed RFR
for artefact in '(a)' '(b)' '(c)' '(d)' '(e)'; do
    built="$(grep -c -F "building artefact $artefact" "$smoke/progress.err" || true)"
    if [[ "$built" -ne 1 ]]; then
        echo "artefact $artefact was built $built times in one run, expected once" >&2
        exit 1
    fi
done

# a bad value is exit 2 naming it, before anything is built
expect_usage_error() {
    local token="$1" rc=0
    shift
    "$PAPER_BIN" "$@" > /dev/null 2> "$smoke/usage.err" || rc=$?
    if [[ $rc -ne 2 ]] || ! grep -q -F "$token" "$smoke/usage.err" \
        || grep -q 'building artefact' "$smoke/usage.err"; then
        echo "paper $*: expected exit 2 naming $token, got exit $rc:" >&2
        cat "$smoke/usage.err" >&2
        exit 1
    fi
}
expect_usage_error "\`huge\`" --scale huge
expect_usage_error "\`x\`" --seed x
expect_usage_error "\`fig3\`" --scale tiny fig3

echo "paper smoke passed"
