#!/usr/bin/env bash
# serve_smoke.sh — end-to-end gate for the lamod daemon: build a quick
# artifact (checking the build-stage trace), serve it, hit /v1/healthz and
# /v1/predict through lamoctl, verify trace-ID propagation end to end
# (response header plus access-log line), line-validate the Prometheus
# exposition, and verify the process drains cleanly on SIGTERM. Run from
# anywhere inside the repo; CI runs it after the unit suites.
set -euo pipefail

cd "$(dirname "$0")/.."

workdir="$(mktemp -d)"
addr="127.0.0.1:${SERVE_SMOKE_PORT:-8077}"
pid=""
cleanup() {
    if [[ -n "$pid" ]] && kill -0 "$pid" 2>/dev/null; then
        kill -KILL "$pid" 2>/dev/null || true
    fi
    rm -rf "$workdir"
}
trap cleanup EXIT

echo "== build binaries"
go build -o "$workdir/lamod" ./cmd/lamod
go build -o "$workdir/lamoctl" ./cmd/lamoctl

echo "== build artifact"
"$workdir/lamod" build -quick -out "$workdir/model.lamoart" -note "serve smoke" -stats \
    | tee "$workdir/build.log"
# -stats prints the stage table; the same trace must ride in the artifact.
grep -q "census" "$workdir/build.log"
# The census and labeling stages must report a nonzero wall time: a "0s"
# wall means the stage recorder lost the measurement (or the stage was
# silently skipped), which would blind every build-side perf comparison.
for stage in census labeling; do
    wall="$(awk -v s="$stage" '$1 == s { print $2 }' "$workdir/build.log")"
    if [[ -z "$wall" ]]; then
        echo "build -stats table is missing the $stage stage" >&2
        exit 1
    fi
    if [[ "$wall" == "0s" ]]; then
        echo "build -stats reports zero wall time for $stage" >&2
        exit 1
    fi
done
"$workdir/lamoctl" inspect -artifact "$workdir/model.lamoart" | tee "$workdir/inspect.json"
grep -q '"build_stats"' "$workdir/inspect.json"
grep -q '"stage": "ranking"' "$workdir/inspect.json"

echo "== serve on $addr"
"$workdir/lamod" serve -artifact "$workdir/model.lamoart" -addr "$addr" \
    >"$workdir/lamod.log" 2>&1 &
pid=$!

up=0
for _ in $(seq 1 100); do
    if "$workdir/lamoctl" health -server "http://$addr" >/dev/null 2>&1; then
        up=1
        break
    fi
    if ! kill -0 "$pid" 2>/dev/null; then
        break
    fi
    sleep 0.1
done
if [[ "$up" != 1 ]]; then
    echo "daemon never became healthy" >&2
    cat "$workdir/lamod.log" >&2
    exit 1
fi

echo "== healthz"
"$workdir/lamoctl" health -server "http://$addr" | tee "$workdir/healthz.json"
grep -q '"status":"ok"' "$workdir/healthz.json"

echo "== predict"
"$workdir/lamoctl" predict -server "http://$addr" -protein M0000 -k 5 \
    | tee "$workdir/predict.json"
grep -q '"protein":"M0000"' "$workdir/predict.json"

echo "== trace id echo"
# lamoctl predict -trace fails with exit 1 unless the daemon echoes the ID
# in the X-Request-Id response header.
"$workdir/lamoctl" predict -server "http://$addr" -protein M0000 -k 5 \
    -trace smoke-trace-42 >/dev/null

# The same query twice must return identical bytes.
"$workdir/lamoctl" predict -server "http://$addr" -protein M0000 -k 5 \
    >"$workdir/predict2.json"
cmp "$workdir/predict.json" "$workdir/predict2.json"

echo "== metrics"
"$workdir/lamoctl" metrics -server "http://$addr"
"$workdir/lamoctl" metrics -ratios -server "http://$addr" | tee "$workdir/ratios.txt"
grep -q '^requests=' "$workdir/ratios.txt"
grep -q 'predict_p50_us=' "$workdir/ratios.txt"

echo "== prometheus exposition"
"$workdir/lamoctl" prom -server "http://$addr" >"$workdir/prom.txt"
# Every line must be a comment or `name{labels} value` — one malformed
# line breaks a real scraper, so one malformed line fails the smoke.
if grep -Evq '^(#|[a-z_]+(\{[^}]*\})? [0-9.e+-]+$)' "$workdir/prom.txt"; then
    echo "malformed Prometheus exposition line(s):" >&2
    grep -Ev '^(#|[a-z_]+(\{[^}]*\})? [0-9.e+-]+$)' "$workdir/prom.txt" >&2
    exit 1
fi
grep -q '^lamod_requests_total ' "$workdir/prom.txt"
grep -q 'lamod_request_duration_seconds_bucket{route="predict",le="+Inf"}' "$workdir/prom.txt"

echo "== graceful shutdown"
kill -TERM "$pid"
for _ in $(seq 1 100); do
    if ! kill -0 "$pid" 2>/dev/null; then
        break
    fi
    sleep 0.1
done
if kill -0 "$pid" 2>/dev/null; then
    echo "daemon ignored SIGTERM" >&2
    exit 1
fi
wait "$pid" || { echo "daemon exited non-zero" >&2; cat "$workdir/lamod.log" >&2; exit 1; }
pid=""
grep -q "shut down cleanly" "$workdir/lamod.log"

echo "== access log carries the trace id"
# Shutdown flushes the access-log ring, so the smoke trace ID must appear
# in a structured stderr line by now.
grep -q '"trace":"smoke-trace-42"' "$workdir/lamod.log"
grep -q '"msg":"access"' "$workdir/lamod.log"

echo "serve smoke OK"
