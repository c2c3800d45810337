#!/usr/bin/env bash
# Durability smoke test: boot `gks serve` over a segmented store, POST
# documents under concurrent search traffic, then SIGKILL the server
# mid-stream (no drain, no warning) and restart it on the same store.
# Every acknowledged document must survive the crash, the recovered
# server must answer queries over it — describing base, flushed and
# WAL-tail nodes with the tags it gave them before — and
# `check-index --deep` must find
# the store clean.  Finish with a SIGTERM and require a clean drain, then
# rewrite the store's segments at gzip level 9 (an old store), recover it
# and deep-check it again.  Last, a second store (--compact-segments 3)
# is fed until an automatic compaction merges a size tier: the
# generation-1 segment must still be in its MANIFEST, and the same
# SIGKILL recovery and deep audit run over it.
#
# Usage:  bash scripts/smoke_durability.sh
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH=src

WORKDIR="$(mktemp -d)"
STORE="$WORKDIR/store"
SERVER_PID=""
cleanup() {
    [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null || true
    rm -rf "$WORKDIR"
}
trap cleanup EXIT

boot_server() {
    local log="$1"
    shift
    python -m repro serve "$WORKDIR"/figure2a_0.xml \
        --port 0 --serve-workers 2 --store "$STORE" "$@" \
        >"$log" 2>&1 &
    SERVER_PID=$!
    for _ in $(seq 1 50); do
        grep -q "listening on" "$log" 2>/dev/null && break
        sleep 0.1
    done
    grep -q "listening on" "$log" || {
        echo "FAIL: server never reported its address" >&2
        cat "$log" >&2; exit 1; }
    PORT="$(sed -n 's#.*http://[^:]*:\([0-9]*\).*#\1#p' "$log")"
    BASE="http://127.0.0.1:$PORT"
}

echo "== generate toy corpus =="
python -m repro dataset figure2a -o "$WORKDIR"

echo "== boot gks serve over a fresh segmented store =="
boot_server "$WORKDIR/serve1.log" --memtable-docs 3 --compact-segments 2
echo "serving on $BASE (store: $STORE)"
curl -fsS "$BASE/healthz"
echo

echo "== POST documents while searches run =="
SEARCH_PIDS=()
for n in 1 2 3 4; do
    curl -fsS "$BASE/search?q=karen+mike" >/dev/null &
    SEARCH_PIDS+=("$!")
done
POSTED=7
for n in $(seq 1 "$POSTED"); do
    curl -fsS -X POST "$BASE/documents" \
        -H 'Content-Type: application/json' \
        -d "{\"text\": \"<dblp><article><title>durable paper $n</title><author>smoketest</author></article></dblp>\", \"name\": \"smoke$n.xml\"}" \
        >"$WORKDIR/post.$n"
done
wait "${SEARCH_PIDS[@]}"
for n in $(seq 1 "$POSTED"); do
    grep -q '"durable": true' "$WORKDIR/post.$n" || {
        echo "FAIL: POST $n was not acknowledged as durable" >&2
        cat "$WORKDIR/post.$n" >&2; exit 1; }
done
curl -fsS -X POST "$BASE/admin/flush" >/dev/null
echo "posted $POSTED documents (memtable 3 -> flushes + compactions ran)"

echo "== SIGKILL mid-stream: no drain, no fsync beyond the WAL =="
# keep mutations in flight so the kill lands mid-activity
curl -fsS -X POST "$BASE/documents" \
    -H 'Content-Type: application/json' \
    -d '{"text": "<dblp><article><title>post-flush straggler</title></article></dblp>", "name": "straggler.xml"}' \
    >"$WORKDIR/post.straggler"
# one query over base (karen), flushed (smoketest) and WAL-tail
# (straggler) documents: the recovered server must describe each node
# with the same tag and tag path, from trees it builds on first read
SPAN_QUERY="q=karen+smoketest+straggler&s=1"
curl -fsS "$BASE/search?$SPAN_QUERY" >"$WORKDIR/span.before.json"
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
grep -q '"durable": true' "$WORKDIR/post.straggler" || {
    echo "FAIL: straggler POST was not acknowledged" >&2; exit 1; }

echo "== restart on the same store: recovery must be lossless =="
boot_server "$WORKDIR/serve2.log" --memtable-docs 3 --compact-segments 2
echo "recovered server on $BASE"
curl -fsS "$BASE/search?q=smoketest" >"$WORKDIR/recovered.json"
grep -q '"nodes"' "$WORKDIR/recovered.json" || {
    echo "FAIL: recovered server returned no nodes payload" >&2; exit 1; }
python - "$WORKDIR/recovered.json" "$POSTED" <<'EOF'
import json, sys
payload = json.load(open(sys.argv[1]))
posted = int(sys.argv[2])
nodes = payload["nodes"]
assert len(nodes) >= posted, \
    f"expected >= {posted} hits for acknowledged documents, got {len(nodes)}"
print(f"recovered search: {len(nodes)} hit(s) over acknowledged documents")
EOF
curl -fsS "$BASE/search?q=straggler" >"$WORKDIR/straggler.json"
python - "$WORKDIR/straggler.json" <<'EOF'
import json, sys
payload = json.load(open(sys.argv[1]))
assert payload["nodes"], "WAL-tail document lost after SIGKILL"
print("WAL-tail straggler survived the crash")
EOF

curl -fsS "$BASE/search?$SPAN_QUERY" >"$WORKDIR/span.after.json"
python - "$WORKDIR/span.before.json" "$WORKDIR/span.after.json" \
    "$POSTED" <<'EOF'
import json, sys
before, after = (json.load(open(path))["nodes"] for path in sys.argv[1:3])
posted = int(sys.argv[3])
described = lambda nodes: [(n["dewey"], n["tag"], n["tag_path"])
                           for n in nodes]
assert described(after) == described(before), \
    "recovered nodes carry other tags than before the crash"
documents = {int(n["dewey"].split(".")[0]) for n in after}
assert {0, 1, posted + 1} <= documents, \
    f"the query should span base, flushed and WAL-tail documents: {documents}"
print(f"{len(after)} node(s) over documents {sorted(documents)} carry "
      "their pre-crash tags")
EOF

echo "== SIGTERM drains cleanly =="
kill -TERM "$SERVER_PID"
STATUS=0
wait "$SERVER_PID" || STATUS=$?
SERVER_PID=""
[ "$STATUS" -eq 0 ] || {
    echo "FAIL: recovered server exited with status $STATUS" >&2
    cat "$WORKDIR/serve2.log" >&2; exit 1; }

echo "== check-index --deep on the crashed-and-recovered store =="
python -m repro check-index "$STORE" --deep

echo "== an old store stays readable: segments rewritten at gzip level 9 =="
# what a store written before the compression level was lowered holds:
# the same JSON in gzip level-9 streams
python - "$STORE" "$WORKDIR/figure2a_0.xml" "$POSTED" <<'EOF'
import gzip, sys, zlib
from pathlib import Path

from repro.api import EngineConfig, GKSEngine, Paths
from repro.index.storage import (DEFLATE_LEVEL, atomic_write_json_gz,
                                 payload_crc32, read_json_gz)

store, corpus, posted = Path(sys.argv[1]), sys.argv[2], int(sys.argv[3])
assert DEFLATE_LEVEL != 9, "level 9 is what is written: nothing to prove"
envelope = read_json_gz(store / "MANIFEST")
body = envelope["manifest"]
for record in body["segments"] + body["texts"]:
    path = store / record["file"]
    written = path.stat().st_size
    path.write_bytes(gzip.compress(gzip.decompress(path.read_bytes()), 9,
                                   mtime=0))
    record["crc32"] = zlib.crc32(path.read_bytes()) & 0xFFFFFFFF
    print(f"{record['file']}: {written} -> {path.stat().st_size} bytes "
          "at level 9")
envelope["crc32"] = payload_crc32(body)
atomic_write_json_gz(envelope, store / "MANIFEST")
engine = GKSEngine.open(Paths([corpus]), EngineConfig(
    store_path=store, memtable_docs=3, compact_segments=2))
hits = engine.search("smoketest").nodes
engine.close()
assert len(hits) >= posted, f"level-9 store lost documents: {len(hits)} hits"
print(f"level-9 store recovered: {len(hits)} hit(s)")
EOF
python -m repro check-index "$STORE" --deep

echo "== a tiered compaction keeps the generation-1 segment =="
# memtable 2, tier of 3: three flushes of two small documents each fill
# the tier beside the heavier base, which the compaction must not touch
STORE="$WORKDIR/tiered"
TIERED_FLAGS=(--memtable-docs 2 --compact-segments 3)
boot_server "$WORKDIR/serve3.log" "${TIERED_FLAGS[@]}"
TIERED=6
for n in $(seq 1 "$TIERED"); do
    curl -fsS -X POST "$BASE/documents" \
        -H 'Content-Type: application/json' \
        -d "{\"text\": \"<dblp><article><title>tiered $n</title><author>tieredsmoke</author></article></dblp>\", \"name\": \"tiered$n.xml\"}" \
        >"$WORKDIR/tiered.$n"
    grep -q '"durable": true' "$WORKDIR/tiered.$n" || {
        echo "FAIL: tiered POST $n was not acknowledged" >&2; exit 1; }
done
python - "$STORE" "$TIERED" <<'EOF'
import sys
from repro.index.segments import read_manifest

manifest = read_manifest(sys.argv[1])
tiered = int(sys.argv[2])
runs = [(record.generation, record.doc_ids) for record in manifest.segments]
assert [gen for gen, _ in runs].count(1) == 1, \
    f"the generation-1 segment was rewritten: {runs}"
assert any(len(doc_ids) == tiered for _, doc_ids in runs), \
    f"no tier of {tiered} documents was compacted: {runs}"
print(f"segments (generation, documents): {runs}")
EOF
curl -fsS -X POST "$BASE/documents" \
    -H 'Content-Type: application/json' \
    -d '{"text": "<dblp><article><title>tiered straggler</title><author>tieredsmoke</author></article></dblp>", "name": "tiered-straggler.xml"}' \
    >"$WORKDIR/tiered.straggler"
grep -q '"durable": true' "$WORKDIR/tiered.straggler" || {
    echo "FAIL: tiered straggler POST was not acknowledged" >&2; exit 1; }
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
boot_server "$WORKDIR/serve4.log" "${TIERED_FLAGS[@]}"
curl -fsS "$BASE/search?q=tieredsmoke" >"$WORKDIR/tiered.json"
python - "$WORKDIR/tiered.json" "$TIERED" <<'EOF'
import json, sys
nodes = json.load(open(sys.argv[1]))["nodes"]
documents = {int(node["dewey"].split(".")[0]) for node in nodes}
expected = set(range(1, int(sys.argv[2]) + 2))
assert documents == expected, \
    f"recovered tiered store answers over documents {sorted(documents)}"
print(f"tiered store recovered: documents {sorted(documents)} answer")
EOF
kill -TERM "$SERVER_PID"
STATUS=0
wait "$SERVER_PID" || STATUS=$?
SERVER_PID=""
[ "$STATUS" -eq 0 ] || {
    echo "FAIL: recovered tiered server exited with status $STATUS" >&2
    cat "$WORKDIR/serve4.log" >&2; exit 1; }
python -m repro check-index "$STORE" --deep

echo "smoke_durability OK"
