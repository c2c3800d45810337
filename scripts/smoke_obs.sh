#!/usr/bin/env bash
# Observability smoke test: generate the toy corpus, run a traced
# search, and confirm the span tree and metrics snapshot come out.
#
# Usage:  bash scripts/smoke_obs.sh
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH=src

WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT

echo "== generate toy corpus =="
python -m repro dataset figure2a -o "$WORKDIR"

echo "== traced search =="
OUT="$(python -m repro search "$WORKDIR"/figure2a_*.xml \
        -q "karen mike" -s 2 --trace \
        --metrics-json "$WORKDIR/metrics.json")"
echo "$OUT"

for stage in merge lcp lce rank; do
    grep -q "$stage" <<<"$OUT" || {
        echo "FAIL: span tree missing stage '$stage'" >&2; exit 1; }
done
grep -q "node(s) for" <<<"$OUT" || {
    echo "FAIL: no search results printed" >&2; exit 1; }

echo "== header and QueryStats line read one record =="
for layout in "" "--shards 2"; do
    # shellcheck disable=SC2086  # $layout is zero or two words
    OUT="$(python -m repro search "$WORKDIR"/figure2a_*.xml \
            -q "karen mike" -s 2 --trace $layout)"
    HEADER_SL="$(sed -n 's/.*\[|SL|=\([0-9]*\),.*/\1/p' <<<"$OUT")"
    STATS_SL="$(sed -n 's/.*  |SL|=\([0-9]*\) lcp=.*/\1/p' <<<"$OUT")"
    echo "layout '${layout:-mono}': header |SL|=$HEADER_SL, stats |SL|=$STATS_SL"
    if [[ -z "$HEADER_SL" || "$HEADER_SL" != "$STATS_SL" ]]; then
        echo "FAIL: header and QueryStats disagree on |SL|" >&2; exit 1
    fi
done

echo "== metrics snapshot =="
test -s "$WORKDIR/metrics.json" || {
    echo "FAIL: metrics JSON missing or empty" >&2; exit 1; }
grep -q "gks_searches_total" "$WORKDIR/metrics.json" || {
    echo "FAIL: metrics JSON lacks gks_searches_total" >&2; exit 1; }

echo "== stats report =="
python -m repro stats "$WORKDIR"/figure2a_*.xml -q "karen mike" -s 2

echo "smoke_obs OK"
