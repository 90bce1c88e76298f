#!/usr/bin/env bash
# `ease serve` smoke — start the daemon in the background on BOTH its unix
# socket and a TCP listener, hammer it with concurrent
# `ease recommend --endpoint` calls split across the two transports, plus
# proxied recommends over every `--endpoint` scheme (unix:, tcp:, http:),
# diff every answer against the one-shot CLI output, drive the HTTP/JSON
# facade with raw
# HTTP (curl, or bash /dev/tcp where curl is absent) — recommend, stats,
# a 503 shed from a saturated budgeted fleet, and an HTTP shutdown — then
# exercise graceful shutdown and a zero exit.
#
# Usage: ci/serve_smoke.sh [path-to-ease-binary] [num-concurrent-clients]
# TCP ports default to 38471..38473; override the base with
# EASE_SMOKE_PORT. Runs locally and in CI (shellcheck-clean).
set -euo pipefail

EASE_BIN="${1:-target/release/ease}"
CLIENTS="${2:-8}"
PORT="${EASE_SMOKE_PORT:-38471}"
TCP_ADDR="127.0.0.1:$PORT"
ROUTER_ADDR="127.0.0.1:$((PORT + 1))"
SHED_ADDR="127.0.0.1:$((PORT + 2))"
if [[ ! -x "$EASE_BIN" ]]; then
    echo "ease binary not found at $EASE_BIN (build with: cargo build --release)" >&2
    exit 1
fi

smoke="$(mktemp -d)"
serve_pid=""
fleet_pids=()
cleanup() {
    if [[ -n "$serve_pid" ]] && kill -0 "$serve_pid" 2>/dev/null; then
        kill "$serve_pid" 2>/dev/null || true
    fi
    for pid in ${fleet_pids[@]+"${fleet_pids[@]}"}; do
        if kill -0 "$pid" 2>/dev/null; then
            kill "$pid" 2>/dev/null || true
        fi
    done
    rm -rf "$smoke"
}
trap cleanup EXIT

# One raw HTTP exchange: curl when present, bash /dev/tcp otherwise.
# Prints the response body, then the status code alone on the last line.
http_req() {
    local method="$1" addr="$2" target="$3"
    if command -v curl >/dev/null 2>&1; then
        curl -s -X "$method" -w '\n%{http_code}' "http://$addr$target"
    else
        local wire
        exec 3<>"/dev/tcp/${addr%:*}/${addr##*:}"
        printf '%s %s HTTP/1.1\r\nHost: %s\r\nContent-Length: 0\r\nConnection: close\r\n\r\n' \
            "$method" "$target" "$addr" >&3
        wire="$(tr -d '\r' <&3)"
        exec 3<&- 3>&-
        printf '%s\n%s' "$(sed '1,/^$/d' <<<"$wire")" \
            "$(head -n 1 <<<"$wire" | cut -d' ' -f2)"
    fi
}

# http_expect <method> <addr> <target> <status> <body-pattern>
http_expect() {
    local out status
    out="$(http_req "$1" "$2" "$3")"
    status="$(tail -n 1 <<<"$out")"
    if [[ "$status" != "$4" ]]; then
        echo "HTTP $1 $3 on $2: expected status $4, got $status" >&2
        echo "$out" >&2
        exit 1
    fi
    if ! head -n -1 <<<"$out" | grep -q "$5"; then
        echo "HTTP $1 $3 on $2: body missing \`$5\`:" >&2
        echo "$out" >&2
        exit 1
    fi
}

# fixtures: one graph in both ingestion formats, one trained model
"$EASE_BIN" gen --out "$smoke/graph.txt" --kind soc --scale tiny --seed 11
"$EASE_BIN" convert --in "$smoke/graph.txt" --out "$smoke/graph.bel"
"$EASE_BIN" train --out "$smoke/ease.model" --scale tiny --quick --deterministic \
    --folds 2 --max-small 8 --max-large 4

# one-shot reference answers (fresh process per query — the cold path)
"$EASE_BIN" recommend --model "$smoke/ease.model" --graph "$smoke/graph.txt" \
    --workload pr --goal e2e > "$smoke/oneshot_txt.out"
"$EASE_BIN" recommend --model "$smoke/ease.model" --graph "$smoke/graph.bel" \
    --workload pr --goal e2e > "$smoke/oneshot_bel.out"

sock="$smoke/ease.sock"
"$EASE_BIN" serve --model "$smoke/ease.model" --socket "$sock" --tcp "$TCP_ADDR" &
serve_pid=$!

# wait for the daemon to accept on both transports
ready=0
for _ in $(seq 1 100); do
    if "$EASE_BIN" client ping --endpoint "unix:$sock" >/dev/null 2>&1 &&
        "$EASE_BIN" client ping --endpoint "tcp:$TCP_ADDR" >/dev/null 2>&1; then
        ready=1
        break
    fi
    sleep 0.1
done
if [[ "$ready" -ne 1 ]]; then
    echo "daemon did not become ready on $sock + $TCP_ADDR" >&2
    exit 1
fi

# N concurrent clients, alternating text and mmap'd .bel ingestion AND
# alternating transports
pids=()
for i in $(seq 1 "$CLIENTS"); do
    if (( i % 2 == 0 )); then
        graph="$smoke/graph.txt"
        ref="txt"
    else
        graph="$smoke/graph.bel"
        ref="bel"
    fi
    if (( (i / 2) % 2 == 0 )); then
        endpoint=(--endpoint "unix:$sock")
    else
        endpoint=(--endpoint "tcp:$TCP_ADDR")
    fi
    printf '%s' "$ref" > "$smoke/client_$i.ref"
    "$EASE_BIN" recommend "${endpoint[@]}" --graph "$graph" \
        --workload pr --goal e2e > "$smoke/client_$i.out" &
    pids+=("$!")
done
for pid in "${pids[@]}"; do
    wait "$pid"
done
# every concurrent answer must be bit-identical to the one-shot CLI
for i in $(seq 1 "$CLIENTS"); do
    diff "$smoke/oneshot_$(cat "$smoke/client_$i.ref").out" "$smoke/client_$i.out"
done
echo "all $CLIENTS concurrent client answers (unix + tcp) are bit-identical to the one-shot CLI"

# a query has one CLI form: `ease client` refuses it and names that form
rc=0
"$EASE_BIN" client recommend --endpoint "unix:$sock" --graph "$smoke/graph.txt" \
    2> "$smoke/client_query.err" || rc=$?
[[ $rc -eq 2 ]]
grep -q 'ease recommend --endpoint' "$smoke/client_query.err"

# `ease recommend --endpoint` proxies to the same daemon over the unix
# socket...
"$EASE_BIN" recommend --endpoint "unix:$sock" --graph "$smoke/graph.txt" \
    --workload pr --goal e2e > "$smoke/proxy.out"
diff "$smoke/oneshot_txt.out" "$smoke/proxy.out"

# ...over v2 TCP...
"$EASE_BIN" recommend --endpoint "tcp:$TCP_ADDR" --graph "$smoke/graph.txt" \
    --workload pr --goal e2e > "$smoke/proxy_tcp.out"
diff "$smoke/oneshot_txt.out" "$smoke/proxy_tcp.out"

# ...and over HTTP/1.1 + JSON on the very same listener, still bit-identical
"$EASE_BIN" recommend --endpoint "http:$TCP_ADDR" --graph "$smoke/graph.bel" \
    --workload pr --goal e2e > "$smoke/proxy_http.out"
diff "$smoke/oneshot_bel.out" "$smoke/proxy_http.out"

# proxied feature extraction matches one-shot (wall-clock timing line stripped)
"$EASE_BIN" features "$smoke/graph.bel" --tier advanced \
    | head -n -1 > "$smoke/features_oneshot.out"
"$EASE_BIN" features "$smoke/graph.bel" --tier advanced --endpoint "unix:$sock" \
    | head -n -1 > "$smoke/features_proxy.out"
diff "$smoke/features_oneshot.out" "$smoke/features_proxy.out"

# warm-cache observability over both transports
"$EASE_BIN" client cache-stats --endpoint "unix:$sock"
"$EASE_BIN" client cache-stats --endpoint "tcp:$TCP_ADDR"

# raw HTTP (curl) against the very same port the v2 clients use
http_expect GET "$TCP_ADDR" /healthz 200 '"type":"pong"'
http_expect GET "$TCP_ADDR" \
    "/recommend?graph=$smoke/graph.bel&workload=pr&goal=e2e" 200 '"type":"answer"'
http_expect GET "$TCP_ADDR" /stats 200 '"type":"stats"'
http_expect GET "$TCP_ADDR" /nope 404 '"type":"error"'
echo "HTTP facade answers curl on the same listener as binary v2"

# graceful shutdown: daemon drains, removes its socket and exits 0
"$EASE_BIN" client shutdown --endpoint "unix:$sock"
wait "$serve_pid"
serve_pid=""
if [[ -e "$sock" ]]; then
    echo "socket file still present after shutdown" >&2
    exit 1
fi

# ---- router smoke: `ease route` fronting a 2-backend fleet -------------
# two fresh backends on unix sockets, one router fronting them; answers
# through the router must be bit-identical to the one-shot CLI, and one
# shutdown through the router must stop the whole fleet.
b1="$smoke/backend1.sock"
b2="$smoke/backend2.sock"
front="$smoke/router.sock"
"$EASE_BIN" serve --model "$smoke/ease.model" --socket "$b1" &
fleet_pids+=("$!")
"$EASE_BIN" serve --model "$smoke/ease.model" --socket "$b2" &
fleet_pids+=("$!")
for backend in "$b1" "$b2"; do
    ready=0
    for _ in $(seq 1 100); do
        if "$EASE_BIN" client ping --endpoint "unix:$backend" >/dev/null 2>&1; then
            ready=1
            break
        fi
        sleep 0.1
    done
    if [[ "$ready" -ne 1 ]]; then
        echo "backend did not become ready on $backend" >&2
        exit 1
    fi
done
"$EASE_BIN" route --backend "unix:$b1" --backend "unix:$b2" --socket "$front" \
    --tcp "$ROUTER_ADDR" &
fleet_pids+=("$!")
ready=0
for _ in $(seq 1 100); do
    if "$EASE_BIN" client ping --endpoint "unix:$front" >/dev/null 2>&1; then
        ready=1
        break
    fi
    sleep 0.1
done
if [[ "$ready" -ne 1 ]]; then
    echo "router did not become ready on $front" >&2
    exit 1
fi

# routed answers, cold then warm, byte-diffed against the one-shot CLI
for pass in cold warm; do
    for ref in txt bel; do
        "$EASE_BIN" recommend --endpoint "unix:$front" \
            --graph "$smoke/graph.$ref" \
            --workload pr --goal e2e > "$smoke/routed_${pass}_$ref.out"
        diff "$smoke/oneshot_$ref.out" "$smoke/routed_${pass}_$ref.out"
    done
done
echo "routed answers (cold + warm, both graphs) are bit-identical to the one-shot CLI"

# HTTP through the router front: the one sniffing listener serves curl too,
# bit-identically (the CLI decodes the JSON envelope), and /stats folds the
# whole fleet
"$EASE_BIN" recommend --endpoint "http:$ROUTER_ADDR" --graph "$smoke/graph.bel" \
    --workload pr --goal e2e > "$smoke/routed_http.out"
diff "$smoke/oneshot_bel.out" "$smoke/routed_http.out"
http_expect GET "$ROUTER_ADDR" /stats 200 '"type":"stats"'
echo "HTTP facade answers through the router fleet"

# fleet-wide cache stats through the router (folds both backends)
"$EASE_BIN" client cache-stats --endpoint "unix:$front"

# graceful fleet shutdown: one shutdown through the router stops the
# router AND both backends (forward-shutdown defaults on)
"$EASE_BIN" client shutdown --endpoint "unix:$front"
for pid in "${fleet_pids[@]}"; do
    wait "$pid"
done
fleet_pids=()
for s in "$front" "$b1" "$b2"; do
    if [[ -e "$s" ]]; then
        echo "socket file $s still present after fleet shutdown" >&2
        exit 1
    fi
done
echo "router smoke passed: fleet answered identically and stopped as one"

# ---- HTTP 503: a saturated budgeted fleet sheds over HTTP --------------
# one backend whose analysis budget is far below the query's estimated
# footprint (the forward lists of a ~600-edge graph: 8(|V|+1) + 4|E| is
# about 3 KB): the router sheds with a typed overload answer,
# which the facade maps to 503 Service Unavailable; then an HTTP POST
# /shutdown drains the whole fleet.
b3="$smoke/budgeted.sock"
"$EASE_BIN" serve --model "$smoke/ease.model" --socket "$b3" --memory-budget 1024 &
fleet_pids+=("$!")
ready=0
for _ in $(seq 1 100); do
    if "$EASE_BIN" client ping --endpoint "unix:$b3" >/dev/null 2>&1; then
        ready=1
        break
    fi
    sleep 0.1
done
if [[ "$ready" -ne 1 ]]; then
    echo "budgeted backend did not become ready on $b3" >&2
    exit 1
fi
"$EASE_BIN" route --backend "unix:$b3" --tcp "$SHED_ADDR" &
fleet_pids+=("$!")
ready=0
for _ in $(seq 1 100); do
    if "$EASE_BIN" client ping --endpoint "tcp:$SHED_ADDR" >/dev/null 2>&1; then
        ready=1
        break
    fi
    sleep 0.1
done
if [[ "$ready" -ne 1 ]]; then
    echo "shed router did not become ready on $SHED_ADDR" >&2
    exit 1
fi
http_expect GET "$SHED_ADDR" \
    "/recommend?graph=$smoke/graph.bel&workload=pr" 503 '"type":"overloaded"'
http_expect POST "$SHED_ADDR" /shutdown 200 '"type":"shutting-down"'
for pid in "${fleet_pids[@]}"; do
    wait "$pid"
done
fleet_pids=()
echo "saturated fleet shed over HTTP with 503 and drained on HTTP shutdown"
echo "serve smoke passed"
