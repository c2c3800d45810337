"""Architecture-conformance rules: the package import DAG.

The repository's layering (DESIGN.md §5.4)::

    errors  →  text, xmltree  →  index, schema  →  core, obs
            →  serve, baselines, eval  →  cli

``L001`` flags a module whose *top-level* imports reach a higher layer
than its own; ``L002`` flags import cycles between packages.  Two
documented refinements:

* **Cross-cutting sinks.**  ``errors`` and ``obs`` are importable from
  any layer: both depend on nothing above ``errors``, so importing them
  can never create a cycle, and the timing-discipline rule (``T001``)
  *requires* ``index``/``core`` to reach the tracer clock in ``obs``.
  ``obs`` itself is still held to its layer (it may import only
  ``errors``).
* **Deferred imports are exempt.**  Only module-level (top-level)
  imports define the architecture graph.  An import inside a function
  body is the sanctioned plug-point for a lower layer to call *up* at
  runtime (e.g. the engine lazily importing ``serve``) — it cannot
  create an import-time cycle and is not counted.

Packages the original DAG statement does not name are slotted where
their dependencies put them: ``datasets``/``testing`` with
``index``/``schema``; ``semantics`` (the query-modes subsystem: it
imports ``index`` and ``core.config``, and ``core.engine`` calls it
through deferred imports) with ``core``/``obs``;
``analysis``/``serve`` with ``baselines``/``eval``; the
``__init__``/``__main__`` facades with the CLI.
"""

from __future__ import annotations

import ast
from typing import Iterator, Sequence

from repro.analysis.findings import Finding
from repro.analysis.lint import ModuleInfo, Rule, register

#: Package → layer number; imports may only point at the same or a
#: lower layer (cross-cutting sinks excepted).
LAYER_OF = {
    "errors": 0,
    "text": 1, "xmltree": 1,
    "index": 2, "schema": 2, "datasets": 2, "testing": 2,
    "core": 3, "obs": 3, "semantics": 3,
    "baselines": 4, "eval": 4, "analysis": 4, "serve": 4,
    "cli": 5, "api": 5, "__init__": 5,
    "__main__": 5,
}

#: Packages importable from any layer (no repro dependencies above
#: ``errors``, so no cycle is possible through them).
CROSS_CUTTING = frozenset({"errors", "obs"})


def _top_level_imports(module: ModuleInfo) -> Iterator[tuple[int, str]]:
    """(line, repro-package) for every module-level import edge."""
    if module.tree is None:
        return
    for node in ast.iter_child_nodes(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "repro" and len(parts) > 1:
                    yield node.lineno, parts[1]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module:
            parts = node.module.split(".")
            if parts[0] != "repro":
                continue
            if len(parts) > 1:
                yield node.lineno, parts[1]
            else:
                # ``from repro import X`` — the facade, top layer
                yield node.lineno, "__init__"


@register
class LayeringRule(Rule):
    """L001 — no module-level import of a higher layer."""

    rule_id = "L001"
    title = ("package imports must follow the layer DAG errors -> "
             "text/xmltree -> index/schema -> core/obs -> "
             "baselines/eval -> cli")

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.package is None:
            return
        own_layer = LAYER_OF.get(module.package)
        if own_layer is None:
            return
        for line, target in _top_level_imports(module):
            if target == module.package or target in CROSS_CUTTING:
                continue
            target_layer = LAYER_OF.get(target)
            if target_layer is None or target_layer <= own_layer:
                continue
            yield self.finding(
                module, line,
                f"{module.module} (layer {own_layer}, "
                f"{module.package}) imports repro.{target} (layer "
                f"{target_layer}); imports must point down the DAG — "
                f"defer the import into the using function if this is "
                f"a runtime plug-point")


@register
class ImportCycleRule(Rule):
    """L002 — no import cycles between repro packages."""

    rule_id = "L002"
    title = "no cyclic module-level imports between repro packages"

    def check_project(self,
                      modules: Sequence[ModuleInfo]) -> Iterator[Finding]:
        edges: dict[str, set[str]] = {}
        witness: dict[tuple[str, str], tuple[ModuleInfo, int]] = {}
        for module in modules:
            if module.package is None:
                continue
            for line, target in _top_level_imports(module):
                if target == module.package:
                    continue
                edges.setdefault(module.package, set()).add(target)
                witness.setdefault((module.package, target),
                                   (module, line))
        for cycle in _find_cycles(edges):
            # report on the witness of the cycle's first edge
            module, line = witness[(cycle[0], cycle[1])]
            loop = " -> ".join([*cycle, cycle[0]])
            yield self.finding(
                module, line,
                f"import cycle between repro packages: {loop}")


def _find_cycles(edges: dict[str, set[str]]) -> list[list[str]]:
    """Package cycles (each reported once, from its smallest member)."""
    cycles: list[list[str]] = []
    seen: set[frozenset] = set()

    def visit(start: str, node: str, path: list[str],
              on_path: set[str]) -> None:
        for target in sorted(edges.get(node, ())):
            if target == start and len(path) > 1:
                key = frozenset(path)
                if key not in seen:
                    seen.add(key)
                    least = min(range(len(path)),
                                key=lambda i: path[i])
                    cycles.append(path[least:] + path[:least])
            elif target not in on_path and target in edges:
                visit(start, target, path + [target],
                      on_path | {target})

    for start in sorted(edges):
        visit(start, start, [start], {start})
    # deduplicate rotations discovered from different starts
    unique: dict[tuple, list[str]] = {}
    for cycle in cycles:
        unique.setdefault(tuple(cycle), cycle)
    return [cycle for _, cycle in sorted(unique.items())]
