#!/usr/bin/env bash
# Static-analysis smoke test: the lint gate is clean on the real source
# trees, and the deep invariant audit distinguishes the three health
# states of a saved index — healthy (exit 0), structurally broken
# (exit 1), and consistent-but-wrong (exit 2, only --deep or --against
# can see it) — with the same verdicts on both codecs.
#
# Usage:  bash scripts/smoke_analysis.sh
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH=src

WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT

expect_exit() {  # expect_exit CODE COMMAND...: run it, demand that exit code
    local want="$1" got=0
    shift
    "$@" || got=$?
    [ "$got" -eq "$want" ] || {
        echo "FAIL: expected exit $want, got $got from: $*" >&2; exit 1; }
}

echo "== rule catalog =="
python -m repro lint --list-rules

echo "== lint gate over src/tests/benchmarks =="
python -m repro lint src tests benchmarks
echo "lint clean"

echo "== machine-readable lint report =="
python -m repro lint --json src tests benchmarks | python -m json.tool >/dev/null
echo "lint --json parses"

echo "== lock inventory =="
LOCKS="$(python -m repro lint --locks src 2>/dev/null)"
for name in serve.core engine.cache engine.mutation composite.cache index.wal; do
    grep -q "$name" <<<"$LOCKS" || {
        echo "FAIL: lock inventory is missing $name" >&2; exit 1; }
done
echo "inventory names all serving/durability locks"

echo "== runtime race detection (gks race, all scenarios) =="
python -m repro dataset figure2a -o "$WORKDIR"
RACE="$(python -m repro race "$WORKDIR"/figure2a_0.xml --scenario all --json)"
grep -q '"ok": true' <<<"$RACE" || {
    echo "FAIL: gks race reported findings on the clean serving path" >&2
    echo "$RACE" >&2; exit 1; }
grep -q 'engine.mutation -> index.wal' <<<"$RACE" || {
    echo "FAIL: race run never observed the mutation->wal ordering" >&2
    echo "$RACE" >&2; exit 1; }
echo "race harness clean; expected lock orderings observed"

echo "== gks race on a corpus whose tag keywords are stop words =="
printf '<r><a>karen</a><b>mike keyword</b></r>' > "$WORKDIR"/tags.xml
RACE="$(python -m repro race "$WORKDIR"/tags.xml --scenario all --json)"
grep -q '"ok": true' <<<"$RACE" || {
    echo "FAIL: gks race reported findings on the tag-keyword corpus" >&2
    echo "$RACE" >&2; exit 1; }
echo "race harness clean on the tag-keyword corpus"

python -m repro dataset figure1 -o "$WORKDIR"
python -m repro dataset figure2a -o "$WORKDIR"

# the three health states, once per codec: the audit and the fault
# injectors go through the codec seam, so neither format is special
for CODEC in raw varint-dag; do
    INDEX="$WORKDIR/sharded.$CODEC.gks"
    WRONG="$WORKDIR/wrong.$CODEC.gks"

    echo "== [$CODEC] build a sharded index =="
    python -m repro index "$WORKDIR"/figure*.xml \
        -o "$INDEX" --shards 2 --codec "$CODEC"

    echo "== [$CODEC] healthy index: deep audit passes (exit 0) =="
    python -m repro check-index "$INDEX" --deep | tee "$WORKDIR/ok.txt"
    grep -q " $CODEC sharded(2)" "$WORKDIR/ok.txt" || {
        echo "FAIL: format line does not name codec $CODEC" >&2; exit 1; }

    echo "== [$CODEC] consistent-but-wrong index: deep audit exits 2 =="
    cp "$INDEX" "$WRONG"
    python -c 'import sys
from repro.testing.faults import IndexCorruptor
IndexCorruptor(seed=42).drop_manifest_document(sys.argv[1])' "$WRONG"
    # the shallow check must NOT see the damage (CRCs were resealed) ...
    python -m repro check-index "$WRONG" || {
        echo "FAIL: shallow check rejected a structurally clean file" >&2
        exit 1; }
    # ... while --deep exits 2 and names the violated invariant
    set +e
    OUT="$(python -m repro check-index "$WRONG" --deep)"
    CODE=$?
    set -e
    echo "$OUT"
    [ "$CODE" -eq 2 ] || {
        echo "FAIL: expected exit 2 from --deep, got $CODE" >&2; exit 1; }
    grep -q "invariant violated: shard-partition" <<<"$OUT" || {
        echo "FAIL: --deep did not name the violated invariant" >&2
        exit 1; }

    echo "== [$CODEC] re-sealed negative child count: plain 0, --deep 2 =="
    cp "$INDEX" "$WRONG"
    python -c 'import sys
from repro.index.codec import sniff_codec
codec = sniff_codec(sys.argv[1])
decoded = codec.decode(sys.argv[1])
table = decoded.shards[-1].element
table[min(table)] = -3
codec.encode(decoded, sys.argv[1])' "$WRONG"
    expect_exit 0 python -m repro check-index "$WRONG"
    expect_exit 2 python -m repro check-index "$WRONG" --deep \
        | tee "$WORKDIR/negative.txt"
    grep -q "hash-cross-consistency: .*negative child count" \
        "$WORKDIR/negative.txt" || {
        echo "FAIL: --deep did not name hash-cross-consistency" >&2
        exit 1; }

    echo "== [$CODEC] --against: its sources exit 0, other sources exit 2 =="
    expect_exit 0 python -m repro check-index "$INDEX" \
        --against "$WORKDIR"/figure*.xml
    expect_exit 2 python -m repro check-index "$INDEX" \
        --against "$WORKDIR"/figure1_*.xml | tee "$WORKDIR/against.txt"
    grep -q "invariant violated: source-agreement" "$WORKDIR/against.txt" || {
        echo "FAIL: --against did not name source-agreement" >&2; exit 1; }

    echo "== [$CODEC] structurally broken index: exit 1 =="
    python -c 'import sys
from repro.testing.faults import TornWriter
TornWriter(seed=1).tear(sys.argv[1], fraction=0.5)' "$INDEX"
    set +e
    python -m repro check-index "$INDEX" --deep
    CODE=$?
    set -e
    [ "$CODE" -eq 1 ] || {
        echo "FAIL: expected exit 1 for a torn file, got $CODE" >&2
        exit 1; }
done

echo "smoke_analysis OK"
