#!/usr/bin/env bash
# Build-path smoke test: index generated corpora from the element stream
# (`gks index`: the open streams each text into the builder, no tree)
# and by replaying parsed trees (`build_index(Repository.from_paths(…))`)
# and confirm `gks check-index --json` describes the same index either
# way — monolithic and with 2 shards, on the mirrors corpus (many
# documents), mondial (attributes) and a decorated copy of both.
#
# Usage:  bash scripts/smoke_build.sh
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH=src

WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT

echo "== generate the corpora (mirrors: many documents; mondial: attributes) =="
python -m repro dataset mirrors -o "$WORKDIR" >/dev/null
python -m repro dataset mondial -o "$WORKDIR" >/dev/null
ls "$WORKDIR"/*.xml

echo "== streamed (the CLI), monolithic and 2 shards =="
python -m repro index "$WORKDIR"/*.xml -o "$WORKDIR/stream-mono.gks"
python -m repro index "$WORKDIR"/*.xml -o "$WORKDIR/stream-sharded.gks" \
    --shards 2

echo "== replayed from parsed trees (the library) =="
python - "$WORKDIR" <<'EOF'
import sys
from pathlib import Path

from repro.index.builder import build_index
from repro.index.sharding import build_sharded_index
from repro.index.storage import save_index
from repro.xmltree.repository import Repository

workdir = Path(sys.argv[1])
repository = Repository.from_paths(sorted(workdir.glob("*.xml")))
assert all(document.parsed for document in repository)
save_index(build_index(repository), workdir / "tree-mono.gks")
save_index(build_sharded_index(repository, shards=2),
           workdir / "tree-sharded.gks")
EOF

report() {  # the check-index report minus what names the file itself
    python -m repro check-index "$1" --json | python -c '
import json, sys
report = json.load(sys.stdin)
del report["path"], report["summary"]["size_bytes"]  # build time is inside
print(json.dumps(report, indent=1, sort_keys=True))'
}

for LAYOUT in mono sharded; do
    echo "== check-index --json ($LAYOUT) =="
    report "$WORKDIR/tree-$LAYOUT.gks" | tee "$WORKDIR/tree-$LAYOUT.json"
    grep -q '"ok": true' "$WORKDIR/tree-$LAYOUT.json" || {
        echo "FAIL: check-index rejected the $LAYOUT index" >&2; exit 1; }
    echo "== stream build == tree build ($LAYOUT) =="
    report "$WORKDIR/stream-$LAYOUT.gks" |
        diff "$WORKDIR/tree-$LAYOUT.json" - || {
        echo "FAIL: stream and tree builds differ ($LAYOUT)" >&2; exit 1; }
done

echo "== behind a declaration, a DOCTYPE, a comment and a PI =="
# markup only the parser's careful path reads; the index must not notice
mkdir "$WORKDIR/decorated"
python - "$WORKDIR" <<'EOF'
import re
import sys
from pathlib import Path

workdir = Path(sys.argv[1])
prolog = ('<?xml version="1.0" encoding="UTF-8"?>\n'
          '<!DOCTYPE corpus [\n  <!ELEMENT corpus ANY>\n'
          '  <!ENTITY source "smoke">\n]>\n'
          '<!-- a generated corpus file -->\n'
          '<?gks-smoke build?>\n')
for path in sorted(workdir.glob("*.xml")):
    body = re.sub(r"^<\?xml[^>]*\?>\s*", "",
                  path.read_text(encoding="utf-8"))
    (workdir / "decorated" / path.name).write_text(prolog + body,
                                                   encoding="utf-8")
EOF
python -m repro index "$WORKDIR"/decorated/*.xml \
    -o "$WORKDIR/decorated-mono.gks"
python -m repro index "$WORKDIR"/decorated/*.xml \
    -o "$WORKDIR/decorated-sharded.gks" --shards 2
for LAYOUT in mono sharded; do
    echo "== decorated == tree build ($LAYOUT) =="
    report "$WORKDIR/decorated-$LAYOUT.gks" |
        diff "$WORKDIR/tree-$LAYOUT.json" - || {
        echo "FAIL: the decorated corpus indexes differently ($LAYOUT)" >&2
        exit 1; }
done

echo "smoke_build OK"
