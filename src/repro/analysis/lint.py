"""AST-based lint engine with a pluggable rule registry.

The engine parses every ``*.py`` file under the given paths once, wraps
each in a :class:`ModuleInfo` (source text, AST, package/layer identity,
file role) and hands the batch to every registered :class:`Rule`.  Rules
come in two granularities:

* :meth:`Rule.check_module` — per-file AST checks (most rules);
* :meth:`Rule.check_project` — whole-batch checks that need the global
  view (the import-cycle half of the layering rule).

Suppressions
------------
A finding is dropped when the physical line it points at carries an
inline marker::

    risky_call()          # gks: ignore[E002]
    another_risky_call()  # gks: ignore[E002,T001]
    whatever()            # gks: ignore          (suppresses every rule)

Suppressions are *line-scoped on the finding's line* — there is no
file- or block-level escape hatch, so every waiver is visible exactly
where the violation lives.

Project rules live in :mod:`repro.analysis.rules` (timing, error
surface, mutability) and :mod:`repro.analysis.layering`
(the architecture DAG); both register themselves on import via
:func:`register`.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.analysis.findings import Finding
from repro.errors import ConfigError

#: Inline suppression marker: ``# gks: ignore`` or ``# gks: ignore[ID,...]``.
_SUPPRESS_RE = re.compile(r"#\s*gks:\s*ignore(?:\[([A-Za-z0-9_,\s-]+)\])?")


@dataclass
class ModuleInfo:
    """One parsed source file, as the rules see it.

    Attributes
    ----------
    path:
        The file, as given (relative paths stay relative in findings).
    text, lines:
        Raw source and its physical lines (for suppression lookups).
    tree:
        The parsed AST, or ``None`` when the file does not parse (the
        engine files a ``P001`` finding instead of running rules).
    package:
        The top-level ``repro`` package the module belongs to
        (``"index"`` for ``src/repro/index/storage.py``, the module stem
        for top-level modules like ``cli``), or ``None`` for files
        outside the library (tests, benchmarks, scripts).
    module:
        Dotted module name under ``repro`` (``"repro.index.storage"``),
        or ``None`` outside the library.
    role:
        ``"library"`` / ``"tests"`` / ``"benchmarks"`` / ``"other"`` —
        rules scope themselves by role (e.g. the error-surface raise
        rule applies to library code only).
    """

    path: Path
    text: str
    lines: list[str] = field(default_factory=list)
    tree: ast.AST | None = None
    package: str | None = None
    module: str | None = None
    role: str = "other"

    @classmethod
    def from_path(cls, path: Path) -> "ModuleInfo":
        text = path.read_text(encoding="utf-8")
        info = cls(path=path, text=text, lines=text.splitlines())
        parts = path.parts
        if "repro" in parts:
            info.role = "library"
            tail = parts[parts.index("repro") + 1:]
            dotted = [part[:-3] if part.endswith(".py") else part
                      for part in tail]
            info.module = ".".join(["repro", *dotted])
            info.package = dotted[0] if dotted else None
        elif "tests" in parts:
            info.role = "tests"
        elif "benchmarks" in parts:
            info.role = "benchmarks"
        try:
            info.tree = ast.parse(text, filename=str(path))
        except SyntaxError:
            info.tree = None
        return info

    def walk(self) -> Iterator[ast.AST]:
        if self.tree is None:
            return iter(())
        return ast.walk(self.tree)

    def suppressed_ids(self, line: int) -> set[str] | None:
        """Rule ids suppressed on *line*; ``None`` means suppress all."""
        if not 1 <= line <= len(self.lines):
            return set()
        match = _SUPPRESS_RE.search(self.lines[line - 1])
        if match is None:
            return set()
        if match.group(1) is None:
            return None
        return {rule_id.strip() for rule_id in match.group(1).split(",")
                if rule_id.strip()}


class Rule:
    """Base class of every lint rule.

    Subclasses set ``rule_id`` (the id suppressions and the catalog use),
    ``title`` and ``severity``, and override one or both check hooks.
    """

    rule_id: str = "?"
    title: str = ""
    severity: str = "error"

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        return ()

    def check_project(self,
                      modules: Sequence[ModuleInfo]) -> Iterable[Finding]:
        return ()

    def finding(self, module: ModuleInfo, line: int,
                message: str) -> Finding:
        return Finding(path=str(module.path), line=line,
                       rule_id=self.rule_id, message=message,
                       severity=self.severity)


_REGISTRY: dict[str, type[Rule]] = {}


def register(rule_class: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the default rule set."""
    if rule_class.rule_id in _REGISTRY:
        raise ConfigError(f"duplicate rule id {rule_class.rule_id!r}")
    _REGISTRY[rule_class.rule_id] = rule_class
    return rule_class


def default_rules() -> list[Rule]:
    """One instance of every registered rule (registration on import)."""
    # deferred so the registry is populated exactly once, without an
    # import cycle between the engine and the rule modules
    from repro.analysis import concurrency, layering, rules  # noqa: F401

    return [rule_class() for rule_class in _REGISTRY.values()]


def rule_catalog() -> list[Rule]:
    """The default rules, for ``gks lint --list-rules`` and the docs."""
    return default_rules()


def iter_python_files(paths: Iterable[str | Path]) -> list[Path]:
    """Every ``*.py`` file under *paths* (files pass through), sorted."""
    found: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            found.update(candidate for candidate in path.rglob("*.py")
                         if "__pycache__" not in candidate.parts)
        elif path.suffix == ".py":
            found.add(path)
    return sorted(found)


def lint_modules(modules: Sequence[ModuleInfo],
                 rules: Sequence[Rule] | None = None) -> list[Finding]:
    """Run *rules* over parsed *modules*; suppressions applied."""
    if rules is None:
        rules = default_rules()
    findings: list[Finding] = []
    for module in modules:
        if module.tree is None:
            findings.append(Finding(
                path=str(module.path), line=1, rule_id="P001",
                message="file does not parse as Python",
                severity="error"))
            continue
        for rule in rules:
            findings.extend(rule.check_module(module))
    parsed = [module for module in modules if module.tree is not None]
    for rule in rules:
        findings.extend(rule.check_project(parsed))
    by_path = {str(module.path): module for module in modules}
    kept = []
    for finding in findings:
        module = by_path.get(finding.path)
        if module is not None:
            suppressed = module.suppressed_ids(finding.line)
            if suppressed is None or finding.rule_id in suppressed:
                continue
        kept.append(finding)
    return sorted(kept)


def lint_paths(paths: Iterable[str | Path],
               rules: Sequence[Rule] | None = None) -> list[Finding]:
    """Lint every Python file under *paths*.  The one-call entry point."""
    modules = [ModuleInfo.from_path(path)
               for path in iter_python_files(paths)]
    return lint_modules(modules, rules=rules)
