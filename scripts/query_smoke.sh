#!/usr/bin/env bash
# query_smoke.sh — end-to-end gate for the bulk-query engine: build a quick
# artifact, serve it, run three canned plans through lamoctl query
# (pinned top-k, filtered scan, grouped top-k), and assert the contracts
# that matter operationally: row_count matches the rows actually streamed,
# the pinned plan reproduces /v1/predict's predictions (including the
# exact score bytes), the offline `lamod query` path emits byte-identical
# output to the served endpoint, and a flag-built plan equals its -plan
# file twin. Run from anywhere inside the repo; CI runs it after the unit
# suites.
set -euo pipefail

cd "$(dirname "$0")/.."

workdir="$(mktemp -d)"
addr="127.0.0.1:${QUERY_SMOKE_PORT:-8079}"
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
"$workdir/lamod" build -quick -out "$workdir/model.lamoart" -note "query smoke" \
    | tee "$workdir/build.log"
grep -q "(format v4)" "$workdir/build.log"

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

echo "== canned plans"
cat >"$workdir/plan_pinned.json" <<'EOF'
{"filter":[{"field":"protein","op":"in","names":["M0000"]}],"topk":5,"project":["protein","function","name","score"]}
EOF
cat >"$workdir/plan_scan.json" <<'EOF'
{"filter":[{"field":"degree","op":"ge","value":1}],"topk":1}
EOF
cat >"$workdir/plan_group.json" <<'EOF'
{"group_by":"category","topk":2}
EOF

for plan in pinned scan group; do
    "$workdir/lamoctl" query -server "http://$addr" \
        -plan "$workdir/plan_$plan.json" >"$workdir/$plan.json"
done

echo "== row counts are consistent and non-empty"
python3 - "$workdir" <<'EOF'
import json, sys
workdir = sys.argv[1]
for plan in ("pinned", "scan", "group"):
    with open(f"{workdir}/{plan}.json") as f:
        res = json.load(f)
    rows = res["rows"]
    if res["row_count"] != len(rows) or not rows:
        raise SystemExit(f"{plan}: row_count={res['row_count']} but {len(rows)} rows streamed")
    width = len(res["columns"])
    for row in rows:
        if len(row) != width:
            raise SystemExit(f"{plan}: row {row} does not match columns {res['columns']}")
print("row counts OK")
EOF

echo "== pinned plan reproduces /v1/predict (known scores included)"
"$workdir/lamoctl" predict -server "http://$addr" -protein M0000 -k 5 \
    >"$workdir/predict.json"
python3 - "$workdir" <<'EOF'
import json, sys
workdir = sys.argv[1]
with open(f"{workdir}/predict.json") as f:
    preds = json.load(f)["results"][0]["predictions"]
with open(f"{workdir}/pinned.json") as f:
    rows = json.load(f)["rows"]
if len(preds) != len(rows):
    raise SystemExit(f"predict returned {len(preds)} predictions, query {len(rows)} rows")
for pd, row in zip(preds, rows):
    got = [row[0], row[1], row[2], row[3]]
    want = ["M0000", pd["function"], pd["name"], pd["score"]]
    if got != want:
        raise SystemExit(f"row {got} != prediction {want}")
print(f"pinned plan matches predict across {len(rows)} rows, top score {preds[0]['score']}")
EOF
# The known score must appear verbatim in the raw response bytes too — the
# engine's float encoder and predict's must agree digit for digit.
top_score="$(python3 -c "import json;print(json.load(open('$workdir/predict.json'))['results'][0]['predictions'][0]['score'])")"
grep -q -- "$top_score" "$workdir/pinned.json"

echo "== offline lamod query is byte-identical to the served endpoint"
for plan in pinned scan group; do
    "$workdir/lamod" query -artifact "$workdir/model.lamoart" \
        -plan "$workdir/plan_$plan.json" >"$workdir/offline_$plan.json"
    cmp "$workdir/$plan.json" "$workdir/offline_$plan.json"
done

echo "== flag-built plan equals its -plan file twin"
"$workdir/lamoctl" query -server "http://$addr" -proteins M0000 -topk 5 \
    -project protein,function,name,score >"$workdir/flagbuilt.json"
cmp "$workdir/pinned.json" "$workdir/flagbuilt.json"

echo "== -table rendering"
"$workdir/lamoctl" query -server "http://$addr" -plan "$workdir/plan_group.json" \
    -table >"$workdir/table.txt"
grep -q "FUNCTION" "$workdir/table.txt"
grep -q "^artifact=" "$workdir/table.txt"

echo "== query metrics recorded"
"$workdir/lamoctl" metrics -server "http://$addr" >"$workdir/metrics.json"
grep -q '"queries":' "$workdir/metrics.json"
if grep -q '"queries":0,' "$workdir/metrics.json"; then
    echo "daemon recorded no bulk queries" >&2
    exit 1
fi
grep -q '"query_latency":' "$workdir/metrics.json"

echo "== graceful shutdown"
kill -TERM "$pid"
for _ in $(seq 1 100); do
    if ! kill -0 "$pid" 2>/dev/null; then
        break
    fi
    sleep 0.1
done
wait "$pid" || { echo "daemon exited non-zero" >&2; cat "$workdir/lamod.log" >&2; exit 1; }
pid=""

echo "query smoke OK"
