#!/usr/bin/env bash
# Query-modes smoke test: exercise the semantics subsystem end-to-end
# through the CLI — probabilistic search over a p-document (tables
# compiled from the corpus, thresholded results), the removed relaxed
# mode as a usage error, a strict engine
# answering probabilistic queries over a probabilistic engine's cache
# (both codecs), and index files that record no query mode.
#
# Usage:  bash scripts/smoke_semantics.sh
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH=src

WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT

cat > "$WORKDIR/pdoc.xml" <<'XML'
<inventory>
  <item p:type="IND">
    <name p:p="0.5">apple crate</name>
    <name>banana crate</name>
  </item>
  <item p:type="MUX">
    <name p:p="0.6">fig basket</name>
    <name p:p="0.9">durian basket</name>
  </item>
</inventory>
XML
cat > "$WORKDIR/plain.xml" <<'XML'
<library><book><title>apple pie</title><author>banana bob</author></book></library>
XML

echo "== probabilistic search scores by path probability =="
OUT="$(python -m repro search "$WORKDIR/pdoc.xml" -q apple \
       --mode probabilistic --trace)"
echo "$OUT"
grep -q "p=0.5000" <<<"$OUT" || {
    echo "FAIL: probabilistic result missing p=0.5" >&2; exit 1; }
grep -q "mode=probabilistic" <<<"$OUT" || {
    echo "FAIL: --trace did not reflect the mode" >&2; exit 1; }

echo "== threshold drops sub-threshold results =="
OUT="$(python -m repro search "$WORKDIR/pdoc.xml" -q apple \
       --mode probabilistic --threshold 0.7)"
echo "$OUT"
grep -q "^0 node(s)" <<<"$OUT" || {
    echo "FAIL: threshold 0.7 did not drop the p=0.5 results" >&2
    exit 1; }

echo "== MUX weights normalise (0.6/0.9 -> 0.4/0.6) =="
OUT="$(python -m repro search "$WORKDIR/pdoc.xml" -q durian \
       --mode probabilistic)"
echo "$OUT"
grep -q "p=0.6000" <<<"$OUT" || {
    echo "FAIL: MUX weight did not normalise to 0.6" >&2; exit 1; }

echo "== --mode relaxed is a usage error =="
STATUS=0
ERR="$(python -m repro search "$WORKDIR/plain.xml" -q "papaya pie" -s 2 \
       --mode relaxed 2>&1 >/dev/null)" || STATUS=$?
echo "$ERR"
[ "$STATUS" -eq 2 ] || {
    echo "FAIL: --mode relaxed exited $STATUS, not 2" >&2; exit 1; }
grep -q "invalid choice: 'relaxed'" <<<"$ERR" || {
    echo "FAIL: --mode relaxed was not named as the bad choice" >&2; exit 1; }
if grep -q "Traceback" <<<"$ERR"; then
    echo "FAIL: --mode relaxed printed a traceback" >&2; exit 1
fi

echo "== a strict engine answers probabilistic queries over a probabilistic engine's saved index (both codecs) =="
OUT="$(python - "$WORKDIR" <<'EOF'
import sys
from pathlib import Path

from repro import Repository, load_index, save_index
from repro.core.config import EngineConfig, Paths
from repro.core.engine import GKSEngine

workdir = Path(sys.argv[1])
source = Paths([workdir / "pdoc.xml"])
for codec, name in (("raw", "prob.gks"), ("varint-dag", "prob.gksindex")):
    path = workdir / name
    prob = GKSEngine.open(source, EngineConfig(mode="probabilistic"))
    save_index(prob.index, path, codec=codec)
    strict = GKSEngine(Repository.from_paths(source), index=load_index(path))
    for node in strict.search("apple", mode="probabilistic").nodes:
        print(f"{codec} {node.dewey} p={node.probability:.4f}")
EOF
)"
echo "$OUT"
for CODEC in raw varint-dag; do
    grep -q "^$CODEC .* p=0.5000" <<<"$OUT" || {
        echo "FAIL: strict engine over the $CODEC saved index lacks p=0.5" >&2
        exit 1; }
done

echo "== index files record no query mode (both codecs) =="
for INDEX in "$WORKDIR/prob.gks" "$WORKDIR/prob.gksindex"; do
    OUT="$(python -m repro check-index "$INDEX" --json)"
    echo "$OUT"
    if grep -q '"mode"' <<<"$OUT"; then
        echo "FAIL: check-index --json reports a mode for $INDEX" >&2
        exit 1
    fi
done

echo "smoke_semantics OK"
