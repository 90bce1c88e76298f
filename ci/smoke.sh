#!/usr/bin/env bash
# Service lifecycle smoke — train in one process (and again in a second:
# the model bytes must not differ), persist, reload in fresh processes,
# answer identically; exercise zero-copy .bel ingestion, format round trips,
# streaming generation and typed error paths, all through the `ease` CLI.
#
# Where `taskset` exists and may pin to CPU 0, the second training runs
# pinned there — every work queue gets one worker (`available_parallelism`
# honours the affinity mask), so the `cmp` also proves the model does not
# depend on the schedule; elsewhere it is a plain second run. The script
# prints which of the two happened. A third training over the full tiny
# corpora is sampled from /proc and fails above 80 MiB peak resident set.
#
# Usage: ci/smoke.sh [path-to-ease-binary]
# Runs locally and in CI (shellcheck-clean).
set -euo pipefail

EASE_BIN="${1:-target/release/ease}"
if [[ ! -x "$EASE_BIN" ]]; then
    echo "ease binary not found at $EASE_BIN (build with: cargo build --release)" >&2
    exit 1
fi

smoke="$(mktemp -d)"
trap 'rm -rf "$smoke"' EXIT

"$EASE_BIN" gen --out "$smoke/graph.txt" --kind soc --scale tiny --seed 7
"$EASE_BIN" train --out "$smoke/ease.model" --scale tiny --quick --deterministic \
    --folds 2 --max-small 8 --max-large 4
# cross-process determinism of the whole pipeline: the same --deterministic
# configuration trained by a second process is the same file, byte for byte
# (temp names, hash seeds and thread counts must not reach the model) — the
# property that lets a simulator or profiling change be checked with `cmp`
second=("$EASE_BIN")
if command -v taskset > /dev/null && taskset -c 0 true 2> /dev/null; then
    second=(taskset -c 0 "$EASE_BIN")
    echo "determinism gate: second training pinned to one CPU (one worker per queue)"
else
    echo "determinism gate: no usable taskset here, second training runs unpinned"
fi
"${second[@]}" train --out "$smoke/second.model" --scale tiny --quick --deterministic \
    --folds 2 --max-small 8 --max-large 4
cmp "$smoke/ease.model" "$smoke/second.model"
# memory gate: profiling prepares one graph per worker in memory and drops
# it when that graph is done, so training the full tiny corpora (297 + 180
# graphs) must stay far below what holding every corpus graph at once
# takes. VmHWM, the peak resident set, only grows, so the last reading
# taken while the process runs is its peak.
"$EASE_BIN" train --out "$smoke/full.model" --scale tiny --quick --deterministic \
    --max-small 297 --max-large 180 &
train_pid=$!
hwm_kib=0
while kill -0 "$train_pid" 2> /dev/null; do
    reading="$(awk '/^VmHWM:/ { print $2 }' "/proc/$train_pid/status" 2> /dev/null || true)"
    if [[ -n "$reading" ]]; then
        hwm_kib="$reading"
    fi
    sleep 0.05
done
wait "$train_pid"
echo "memory gate: full tiny training peaked at $((hwm_kib / 1024)) MiB VmHWM (limit 80 MiB)"
if ((hwm_kib == 0 || hwm_kib > 80 * 1024)); then
    echo "memory gate failed: VmHWM ${hwm_kib} KiB is unread or above 80 MiB" >&2
    exit 1
fi
"$EASE_BIN" inspect --model "$smoke/ease.model"
"$EASE_BIN" recommend --model "$smoke/ease.model" --graph "$smoke/graph.txt" \
    --workload pr --goal e2e | tee "$smoke/first.out"
"$EASE_BIN" recommend --model "$smoke/ease.model" --graph "$smoke/graph.txt" \
    --workload pr --goal e2e | tee "$smoke/second.out"
# a reloaded service must answer identically across processes
diff "$smoke/first.out" "$smoke/second.out"

# feature extraction (last line: wall-clock extraction time)
"$EASE_BIN" features "$smoke/graph.txt" --tier advanced

# zero-copy ingestion: convert to the binary format, mmap it, and require
# bit-identical answers to the text path (PR 4 acceptance)
"$EASE_BIN" convert --in "$smoke/graph.txt" --out "$smoke/graph.bel"
"$EASE_BIN" recommend --model "$smoke/ease.model" --graph "$smoke/graph.bel" \
    --workload pr --goal e2e | tee "$smoke/bel.out"
diff <(tail -n +2 "$smoke/first.out") <(tail -n +2 "$smoke/bel.out")
"$EASE_BIN" features "$smoke/graph.bel" --tier advanced | head -n -1 > "$smoke/f_bel.out"
"$EASE_BIN" features "$smoke/graph.txt" --tier advanced | head -n -1 > "$smoke/f_txt.out"
diff <(tail -n +2 "$smoke/f_txt.out") <(tail -n +2 "$smoke/f_bel.out")

# out-of-core mode: a zero budget forces every CSR build to spill to disk
# (PR 8); answers must be byte-identical to the in-heap path apart from
# the trailing timing line
"$EASE_BIN" features "$smoke/graph.bel" --tier advanced --memory-budget 0 \
    | head -n -1 > "$smoke/f_spill.out"
diff <(tail -n +2 "$smoke/f_bel.out") <(tail -n +2 "$smoke/f_spill.out")
"$EASE_BIN" recommend --model "$smoke/ease.model" --graph "$smoke/graph.bel" \
    --workload pr --goal e2e --memory-budget 64k | tee "$smoke/spill.out"
diff "$smoke/bel.out" "$smoke/spill.out"

# binary round trip preserves the stream
"$EASE_BIN" convert --in "$smoke/graph.bel" --out "$smoke/back.txt"
diff <(grep -v '^#' "$smoke/graph.txt") <(grep -v '^#' "$smoke/back.txt")

# streaming generation straight to .bel (never materializes)
"$EASE_BIN" gen --out "$smoke/big.bel" --kind rmat --vertices 65536 --edges 500000 --seed 9
"$EASE_BIN" features "$smoke/big.bel" --tier basic

# typed errors, not panics: malformed graph input reports the line
printf '0 1\nbroken token\n' > "$smoke/bad.txt"
if "$EASE_BIN" recommend --model "$smoke/ease.model" --graph "$smoke/bad.txt" \
    2> "$smoke/bad.err"; then
    echo "expected a parse failure" >&2
    exit 1
fi
cat "$smoke/bad.err" >&2
grep -q 'line 2' "$smoke/bad.err"
grep -q "\`broken\`" "$smoke/bad.err"
# a KONECT-style dump (% header, tabs, a weight column, CRLF) must analyze
# exactly like its normalised two-column twin
grep -v '^#' "$smoke/graph.txt" > "$smoke/twin.txt"
{
    printf '%% sym weighted\r\n'
    awk '{ printf "%s\t%s\t%d\r\n", $1, $2, NR % 5 + 1 }' "$smoke/twin.txt"
} > "$smoke/konect.txt"
"$EASE_BIN" features "$smoke/konect.txt" --tier advanced | head -n -1 > "$smoke/f_konect.out"
"$EASE_BIN" features "$smoke/twin.txt" --tier advanced | head -n -1 > "$smoke/f_twin.out"
diff <(tail -n +2 "$smoke/f_twin.out") <(tail -n +2 "$smoke/f_konect.out")
# ...and corrupt binary input is a typed format error
printf 'NOTABEL!' > "$smoke/bad.bel"
if "$EASE_BIN" features "$smoke/bad.bel"; then
    echo "expected a format failure" >&2
    exit 1
fi

# a typo'd flag is exit 2 naming the flag, never silently ignored; --help
# after a subcommand is the usage text
rc=0
"$EASE_BIN" train --out "$smoke/typo.model" --sede 7 2> "$smoke/typo.err" || rc=$?
[[ $rc -eq 2 ]]
grep -q 'unknown flag --sede for ease train' "$smoke/typo.err"
# ...so is a flag the chosen generator kind does not read, and the retired
# --format (the extension picks the format, for writers as for readers);
# neither leaves an output file behind
rc=0
"$EASE_BIN" gen --out "$smoke/unread.txt" --kind soc --vertices 5 2> "$smoke/unread.err" || rc=$?
[[ $rc -eq 2 ]]
grep -q -- '--vertices' "$smoke/unread.err"
[[ ! -e "$smoke/unread.txt" ]]
rc=0
"$EASE_BIN" convert --in "$smoke/graph.txt" --out "$smoke/format.bel" --format txt \
    2> "$smoke/format.err" || rc=$?
[[ $rc -eq 2 ]]
grep -q -- '--format' "$smoke/format.err"
[[ ! -e "$smoke/format.bel" ]]
# ...so is a flag only a local answer reads next to --endpoint: the daemon
# answers with its own model and budget. Raised before any socket is
# touched, so the endpoint need not exist
for query in "recommend --model $smoke/ease.model" "recommend --memory-budget 1k" \
    "features --memory-budget 1k"; do
    read -r sub flag value <<< "$query"
    rc=0
    "$EASE_BIN" "$sub" --endpoint unix:/nonexistent.sock "$flag" "$value" \
        --graph "$smoke/graph.txt" 2> "$smoke/proxy.err" || rc=$?
    [[ $rc -eq 2 ]]
    grep -q -- "$flag is not read with --endpoint" "$smoke/proxy.err"
done
# ...so is a graph given both as the positional and as --graph: neither wins
rc=0
"$EASE_BIN" features "$smoke/graph.txt" --graph "$smoke/graph.bel" 2> "$smoke/graph.err" || rc=$?
[[ $rc -eq 2 ]]
grep -q -- '--graph' "$smoke/graph.err"
rc=0
"$EASE_BIN" serve --in-flight 4 --socket "$smoke/never.sock" \
    --model "$smoke/ease.model" 2> "$smoke/inflight.err" || rc=$?
[[ $rc -eq 2 ]]
grep -q 'unknown flag --in-flight for ease serve' "$smoke/inflight.err"
"$EASE_BIN" train --help > "$smoke/help.out"
grep -q 'TRAIN OPTIONS' "$smoke/help.out"

echo "lifecycle smoke passed"
