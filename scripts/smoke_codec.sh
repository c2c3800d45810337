#!/usr/bin/env bash
# Codec smoke test: build the same corpus under both codecs via the
# CLI, verify both files and the committed v4 file shallow and deep,
# check that the committed v5 file written before files recorded their
# Dewey widths loads and answers like a fresh build,
# assert the varint-dag file is smaller on the redundancy-heavy mirrors
# corpus, that two saves of one index are byte-identical (printing the
# raw bytes before/after the compression-level change), that saving a
# loaded file (both codecs, 1 and 2 shards) gives back its bytes, and
# confirm the two indexes answer a query identically.
#
# Usage:  bash scripts/smoke_codec.sh
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH=src

WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT

echo "== generate the mirrors corpus (shared record pool) =="
python -m repro dataset mirrors --scale 2 -o "$WORKDIR" >/dev/null
ls "$WORKDIR"/mirrors_*.xml >/dev/null

echo "== build the same index under both codecs =="
python -m repro index "$WORKDIR"/mirrors_*.xml -o "$WORKDIR/raw.gks"
python -m repro index "$WORKDIR"/mirrors_*.xml \
    -o "$WORKDIR/dag.gksindex" --codec varint-dag

echo "== shallow check: both formats report healthy =="
for INDEX in "$WORKDIR/raw.gks" "$WORKDIR/dag.gksindex"; do
    OUT="$(python -m repro check-index "$INDEX")"
    echo "$OUT"
    grep -q "index OK" <<<"$OUT" || {
        echo "FAIL: check-index rejected $INDEX" >&2; exit 1; }
done

echo "== format line names the codec, --json stays stable =="
OUT="$(python -m repro check-index "$WORKDIR/dag.gksindex" --json)"
echo "$OUT"
grep -q '"codec": "varint-dag"' <<<"$OUT" || {
    echo "FAIL: --json did not report the varint-dag codec" >&2; exit 1; }
grep -q '"version": 5' <<<"$OUT" || {
    echo "FAIL: --json did not report format version 5" >&2; exit 1; }

echo "== a v4 file (read-only format) checks clean, shallow and deep =="
V4=tests/golden/v4-mirrors.gksindex
OUT="$(python -m repro check-index "$V4" --json)"
grep -q '"version": 4' <<<"$OUT" || {
    echo "FAIL: --json did not report format version 4 for $V4" >&2; exit 1; }
python -m repro check-index "$V4" >/dev/null || {
    echo "FAIL: check-index rejected the v4 fixture" >&2; exit 1; }
python -m repro check-index "$V4" --deep >/dev/null || {
    echo "FAIL: deep audit rejected the v4 fixture" >&2; exit 1; }

echo "== a v5 file without recorded Dewey widths answers like a fresh build =="
V5=tests/golden/v5-mirrors.gksindex
python -m repro check-index "$V5" >/dev/null || {
    echo "FAIL: check-index rejected the v5 fixture" >&2; exit 1; }
python -m repro check-index "$V5" --deep >/dev/null || {
    echo "FAIL: deep audit rejected the v5 fixture" >&2; exit 1; }
python - "$V5" <<'EOF'
import sys

from repro.core.query import Query
from repro.core.search import search
from repro.datasets.mirrors import generate_mirrors
from repro.index.builder import build_index
from repro.index.codec import read_binary_header
from repro.index.storage import load_index

path = sys.argv[1]
assert "dewey_widths" not in read_binary_header(path)["body"], \
    "the v5 fixture must predate the dewey_widths key"
built = build_index(generate_mirrors(scale=1, seed=3))
loaded = load_index(path)
sig = lambda response: [(n.dewey, n.score) for n in response.nodes]
answered = 0
for text, s in (("license rivera", 1), ("license rivera archive", 2),
                ("databases compression", 1)):
    query = Query.parse(text, s=s, analyzer=built.analyzer)
    want = sig(search(built, query))
    assert sig(search(loaded, query)) == want, f"{text!r} differs"
    answered += len(want)
assert answered, "the v5 fixture queries returned no nodes"
print(f"v5 fixture (widths derived at load) answered {answered} node(s) "
      f"like a fresh build, layout {list(loaded.layout.widths)}")
EOF

echo "== deep audit: semantic invariants hold for both codecs =="
python -m repro check-index "$WORKDIR/raw.gks" --deep >/dev/null || {
    echo "FAIL: deep audit rejected the raw envelope" >&2; exit 1; }
python -m repro check-index "$WORKDIR/dag.gksindex" --deep >/dev/null || {
    echo "FAIL: deep audit rejected the binary index" >&2; exit 1; }

echo "== size: varint-dag must be smaller than raw on mirrors =="
RAW_BYTES="$(wc -c < "$WORKDIR/raw.gks")"
DAG_BYTES="$(wc -c < "$WORKDIR/dag.gksindex")"
echo "raw: $RAW_BYTES bytes   varint-dag: $DAG_BYTES bytes"
[ "$DAG_BYTES" -lt "$RAW_BYTES" ] || {
    echo "FAIL: varint-dag ($DAG_BYTES) not smaller than raw" \
         "($RAW_BYTES)" >&2; exit 1; }

echo "== determinism: two saves of one index are byte-identical =="
python -m repro index "$WORKDIR"/mirrors_*.xml -o "$WORKDIR/raw2.gks" \
    --shards 2 >/dev/null
python -m repro index "$WORKDIR"/mirrors_*.xml -o "$WORKDIR/dag2.gksindex" \
    --shards 2 --codec varint-dag >/dev/null
python - "$WORKDIR" "$RAW_BYTES" <<'EOF'
import gzip, sys
from pathlib import Path

from repro.index.storage import load_index, save_index

workdir, cli_bytes = Path(sys.argv[1]), int(sys.argv[2])
for name, codec in (("raw.gks", "raw"), ("dag.gksindex", "varint-dag")):
    index = load_index(workdir / name)
    one = save_index(index, workdir / f"one-{codec}", codec=codec)
    two = save_index(index, workdir / f"two-{codec}.again", codec=codec)
    if one.read_bytes() != two.read_bytes():
        sys.exit(f"FAIL: two {codec} saves of one index differ")
    print(f"{codec}: two saves, {one.stat().st_size} identical bytes")
# fixpoint: a loaded file saves back to its own bytes
for name, codec in (("raw.gks", "raw"), ("raw2.gks", "raw"),
                    ("dag.gksindex", "varint-dag"),
                    ("dag2.gksindex", "varint-dag")):
    again = save_index(load_index(workdir / name), workdir / f"re-{name}",
                       codec=codec)
    if again.read_bytes() != (workdir / name).read_bytes():
        sys.exit(f"FAIL: save(load({name})) differs from {name}")
    print(f"{name}: save(load(f)) == f, {again.stat().st_size} bytes")
# what the same JSON cost at the library's default level 9
raw = (workdir / "raw.gks").read_bytes()
before = len(gzip.compress(gzip.decompress(raw), 9, mtime=0))
print(f"raw bytes at level 9 (before): {before}   "
      f"as written (after): {cli_bytes}")
EOF

echo "== equivalence: both files answer node-for-node identically =="
python - "$WORKDIR" <<'EOF'
import sys
from pathlib import Path

from repro.core.query import Query
from repro.core.search import search
from repro.index.storage import load_index

workdir = Path(sys.argv[1])
query = Query.parse("databases compression", s=1)
raw = search(load_index(workdir / "raw.gks"), query)
dag = search(load_index(workdir / "dag.gksindex"), query)
sig = lambda r: [(n.dewey, n.score) for n in r.nodes]
assert sig(raw), "smoke query returned no nodes"
assert sig(raw) == sig(dag), "codecs disagreed on the smoke query"
print(f"both codecs returned {len(raw.nodes)} identical node(s)")
EOF

echo "== observability: a query decodes blocks, a bare check-index none =="
# no CLI flag opens a saved index for searching, so this step reads the
# process-wide registry directly -- the snapshot `gks search
# --metrics-json` writes and `gks stats --prom` renders
python - "$WORKDIR" <<'EOF'
import sys
from pathlib import Path

from repro.cli import main
from repro.core.query import Query
from repro.core.search import search
from repro.index.storage import load_index
from repro.obs.metrics import global_registry

dag = Path(sys.argv[1]) / "dag.gksindex"
registry = global_registry()


def total(name):
    metric = registry.snapshot().get(f"gks_codec_{name}_total")
    return int(sum(metric["values"].values())) if metric else 0


assert main(["check-index", str(dag)]) == 0, "bare check-index failed"
assert total("postings_decoded") == 0, \
    "a bare check-index must not decode postings (that is --deep)"
search(load_index(dag), Query.parse("databases compression", s=1))
for name in ("frames_inflated", "blocks_decoded", "postings_decoded"):
    assert total(name) > 0, f"gks_codec_{name}_total stayed 0"
assert "gks_codec_decode_seconds_bucket" in registry.render_prometheus()
print(f"query decoded {total('blocks_decoded')} block(s), "
      f"{total('postings_decoded')} posting(s) from "
      f"{total('frames_inflated')} frame(s)")
EOF

echo "smoke_codec OK"
