#!/usr/bin/env bash
# Serving smoke test: boot `gks serve` on an ephemeral port over the toy
# corpus (with an injected per-query delay so requests overlap), fire
# concurrent duplicate queries, and assert from /metrics that the broker
# coalesced them onto one in-flight computation.  Send one query twice
# and require a miss then a hit with byte-identical nodes, both equal to
# the library's `response_to_dict` dump plus the envelope.  Then post
# wrong-typed bodies and require typed 400s (no traceback in the server
# log).
# Finish with a SIGTERM and require a clean drain.
#
# Usage:  bash scripts/smoke_serve.sh
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH=src

WORKDIR="$(mktemp -d)"
SERVER_PID=""
cleanup() {
    [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null || true
    rm -rf "$WORKDIR"
}
trap cleanup EXIT

echo "== generate toy corpus =="
python -m repro dataset figure2a -o "$WORKDIR"

echo "== boot gks serve on an ephemeral port =="
python -m repro serve "$WORKDIR"/figure2a_0.xml \
    --port 0 --serve-workers 2 --inject-delay-ms 300 \
    >"$WORKDIR/serve.log" 2>&1 &
SERVER_PID=$!

for _ in $(seq 1 50); do
    grep -q "listening on" "$WORKDIR/serve.log" 2>/dev/null && break
    sleep 0.1
done
grep -q "listening on" "$WORKDIR/serve.log" || {
    echo "FAIL: server never reported its address" >&2
    cat "$WORKDIR/serve.log" >&2; exit 1; }
PORT="$(sed -n 's#.*http://[^:]*:\([0-9]*\).*#\1#p' "$WORKDIR/serve.log")"
BASE="http://127.0.0.1:$PORT"
echo "serving on $BASE"

echo "== healthz =="
curl -fsS "$BASE/healthz"
echo

echo "== concurrent duplicate queries =="
for n in 1 2 3 4; do
    curl -fsS "$BASE/search?q=karen+mike&s=2" >"$WORKDIR/resp.$n" &
done
wait %2 %3 %4 %5
for n in 1 2 3 4; do
    grep -q '"nodes"' "$WORKDIR/resp.$n" || {
        echo "FAIL: response $n carried no nodes payload" >&2; exit 1; }
done
cmp -s "$WORKDIR/resp.1" "$WORKDIR/resp.2" || {
    echo "FAIL: duplicate queries answered differently" >&2; exit 1; }

echo "== coalescing visible in /metrics =="
METRICS="$(curl -fsS "$BASE/metrics")"
COALESCED="$(awk '/^gks_serve_coalesced_total/ {print int($2)}' \
    <<<"$METRICS" | tail -1)"
echo "gks_serve_coalesced_total = ${COALESCED:-absent}"
[ "${COALESCED:-0}" -gt 0 ] || {
    echo "FAIL: concurrent duplicates were not coalesced" >&2
    grep "^gks_serve" <<<"$METRICS" >&2; exit 1; }

echo "== tags rendered from label-path rows, no tree built =="
grep -q '"tag_path"' "$WORKDIR/resp.1" || {
    echo "FAIL: the response carried no tag_path" >&2; exit 1; }
TREES="$(awk '/^gks_ingest_deferred_trees_total/ {print int($2)}' \
    <<<"$METRICS" | tail -1)"
ROWS="$(awk '/^gks_xmltree_tag_rows_filled_total/ {print int($2)}' \
    <<<"$METRICS" | tail -1)"
echo "gks_ingest_deferred_trees_total = ${TREES:-absent}"
echo "gks_xmltree_tag_rows_filled_total = ${ROWS:-absent}"
[ "${TREES:-0}" -eq 0 ] || {
    echo "FAIL: serving built a tree" >&2; exit 1; }
[ "${ROWS:-0}" -ge 1 ] || {
    echo "FAIL: no document filled its label-path rows" >&2; exit 1; }

echo "== a miss and its hit send the library's bytes =="
curl -fsS "$BASE/search?q=karen+julie&s=1" >"$WORKDIR/miss.json"
curl -fsS "$BASE/search?q=karen+julie&s=1" >"$WORKDIR/hit.json"
python - "$WORKDIR/figure2a_0.xml" "$WORKDIR/miss.json" \
    "$WORKDIR/hit.json" <<'PY'
import json
import sys

from repro import GKSEngine, Paths
from repro.core.export import response_to_dict

corpus, miss, hit = sys.argv[1], *(open(path, "rb").read()
                                   for path in sys.argv[2:])


def nodes(body: bytes) -> bytes:  # the envelope is the last key
    return body[body.index(b'"nodes": ['):body.rindex(b', "serve": ')]


served = [json.loads(body) for body in (miss, hit)]
flags = [payload["serve"]["cache_hit"] for payload in served]
assert flags == [False, True], f"FAIL: cache_hit read {flags}"
assert nodes(miss) == nodes(hit), "FAIL: the hit's nodes differ in bytes"
# the library's dict view of the same query, with the served run's
# timings and envelope, dumps to exactly the bytes sent
engine = GKSEngine.open(Paths([corpus]))
library = response_to_dict(engine.search("karen julie", s=1),
                           engine.repository)
for body, payload in zip((miss, hit), served):
    timed = ("seconds", "stages")
    assert {key: value for key, value in library["profile"].items()
            if key not in timed} == {
        key: value for key, value in payload["profile"].items()
        if key not in timed}, "FAIL: the profile counts differ"
    expected = json.dumps({**library, "profile": payload["profile"],
                           "serve": payload["serve"]}).encode("utf-8")
    assert body == expected, "FAIL: the body is not the library's dump"
print(f"{len(served[0]['nodes'])} nodes, miss and hit byte-identical "
      "to the library dump")
PY

echo "== wrong-typed bodies answer 400 + a JSON type =="
post_expect_400() {  # route, body
    local code
    code="$(curl -sS -o "$WORKDIR/err.json" -w '%{http_code}' \
        -H 'Content-Type: application/json' -d "$2" "$BASE$1")"
    [ "$code" = "400" ] || {
        echo "FAIL: POST $1 $2 answered $code, expected 400" >&2
        cat "$WORKDIR/err.json" >&2; exit 1; }
    grep -q '"type": *"ValidationError"' "$WORKDIR/err.json" || {
        echo "FAIL: POST $1 $2 carried no typed JSON error" >&2
        cat "$WORKDIR/err.json" >&2; exit 1; }
}
post_expect_400 /search '{"q": 5}'
post_expect_400 /search '{"q": "karen", "s": null}'
post_expect_400 /documents '{"text": 5}'
if grep -q "Traceback" "$WORKDIR/serve.log"; then
    echo "FAIL: the server logged a traceback" >&2
    cat "$WORKDIR/serve.log" >&2; exit 1
fi

echo "== SIGTERM drains cleanly =="
kill -TERM "$SERVER_PID"
STATUS=0
wait "$SERVER_PID" || STATUS=$?
SERVER_PID=""
[ "$STATUS" -eq 0 ] || {
    echo "FAIL: server exited with status $STATUS" >&2
    cat "$WORKDIR/serve.log" >&2; exit 1; }
grep -q "drained" "$WORKDIR/serve.log" || {
    echo "FAIL: server never printed its drain summary" >&2; exit 1; }
tail -1 "$WORKDIR/serve.log"

echo "smoke_serve OK"
