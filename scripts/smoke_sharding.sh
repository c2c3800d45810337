#!/usr/bin/env bash
# Sharding smoke test: build a 2-shard index over the toy corpora,
# verify the persisted file, and confirm a sharded search answers with
# the shard layout reported.
#
# Usage:  bash scripts/smoke_sharding.sh
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH=src

WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT

echo "== generate toy corpora =="
python -m repro dataset figure1 -o "$WORKDIR"
python -m repro dataset figure2a -o "$WORKDIR"

echo "== sharded index build =="
OUT="$(python -m repro index "$WORKDIR"/figure*.xml \
        -o "$WORKDIR/sharded.gks" --shards 2)"
echo "$OUT"
grep -q "across 2 shard(s)" <<<"$OUT" || {
    echo "FAIL: index build did not report the shard layout" >&2; exit 1; }

echo "== check the persisted sharded index =="
OUT="$(python -m repro check-index "$WORKDIR/sharded.gks")"
echo "$OUT"
grep -q "index OK" <<<"$OUT" || {
    echo "FAIL: check-index rejected the sharded file" >&2; exit 1; }
grep -q "shards: 2" <<<"$OUT" || {
    echo "FAIL: check-index did not report the shard count" >&2; exit 1; }

echo "== scatter-gather search =="
OUT="$(python -m repro search "$WORKDIR"/figure*.xml \
        -q "karen mike" -s 2 --shards 2)"
echo "$OUT"
grep -q "node(s) for" <<<"$OUT" || {
    echo "FAIL: no search results printed" >&2; exit 1; }
grep -q "2 shard(s)" <<<"$OUT" || {
    echo "FAIL: search did not report the shard layout" >&2; exit 1; }
# one driver for every layout: same nodes, same scores
PLAIN="$(python -m repro search "$WORKDIR"/figure*.xml -q "karen mike" -s 2)"
diff <(grep '^  <' <<<"$PLAIN") <(grep '^  <' <<<"$OUT") || {
    echo "FAIL: sharded and unsharded answers differ" >&2; exit 1; }

echo "== shard table in stats =="
OUT="$(python -m repro stats "$WORKDIR"/figure*.xml \
        -q "karen mike" --shards 2)"
echo "$OUT"
grep -q "shards: 2" <<<"$OUT" || {
    echo "FAIL: stats did not print the shard summary" >&2; exit 1; }

echo "smoke_sharding OK"
