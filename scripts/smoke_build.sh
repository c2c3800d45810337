#!/usr/bin/env bash
# Build-path smoke test: index one generated corpus from its raw texts
# and from a parsed repository and confirm `gks check-index --json`
# describes the same index either way — both entry points run one walk
# over one definition of an element's text.  The 2-shard build is that
# same walk per shard; it is checked for health only.
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

echo "== from a parsed repository (the CLI), monolithic and 2 shards =="
python -m repro index "$WORKDIR"/*.xml -o "$WORKDIR/repo-mono.gks"
python -m repro index "$WORKDIR"/*.xml -o "$WORKDIR/repo-sharded.gks" \
    --shards 2

echo "== from the raw texts (the library) =="
python - "$WORKDIR" <<'EOF'
import sys
from pathlib import Path

from repro.index.builder import IndexBuilder
from repro.index.storage import save_index

workdir = Path(sys.argv[1])
builder = IndexBuilder()
for path in sorted(workdir.glob("*.xml")):
    builder.add_xml(path.read_text(encoding="utf-8"), name=path.name)
save_index(builder.build(), workdir / "text-mono.gks")
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
    report "$WORKDIR/repo-$LAYOUT.gks" | tee "$WORKDIR/repo-$LAYOUT.json"
    grep -q '"ok": true' "$WORKDIR/repo-$LAYOUT.json" || {
        echo "FAIL: check-index rejected the $LAYOUT index" >&2; exit 1; }
done
echo "== text build == repository build =="
report "$WORKDIR/text-mono.gks" | diff "$WORKDIR/repo-mono.json" - || {
    echo "FAIL: text and repository builds differ" >&2; exit 1; }

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
report "$WORKDIR/decorated-mono.gks" | diff "$WORKDIR/repo-mono.json" - || {
    echo "FAIL: the decorated corpus indexes differently" >&2; exit 1; }

echo "smoke_build OK"
