"""Project-specific lint rules: timing, error surface, mutability, imports.

Rule catalog (ids are what ``# gks: ignore[...]`` takes):

========  ==========================================================
``T001``  Ad-hoc clock: ``time.perf_counter``/``time.time``/
          ``time.monotonic`` referenced inside ``repro.core`` or
          ``repro.index`` — timing there must flow through the tracer
          clock (:data:`repro.obs.trace.DEFAULT_CLOCK` or an injected
          ``clock`` callable), so every duration in the pipeline
          answers to one injectable source.
``E001``  Bare ``except:`` — swallows ``KeyboardInterrupt`` and
          ``SystemExit``; name the exceptions (any file).
``E002``  Library code raising bare ``ValueError``/``RuntimeError`` —
          use the :class:`~repro.errors.GKSError` hierarchy
          (:class:`~repro.errors.ConfigError` for tuning knobs,
          :class:`~repro.errors.ValidationError` for argument
          contracts); both remain ``ValueError`` subclasses.
``M001``  Mutable default argument (``def f(x=[])``) — shared across
          calls; default to ``None`` (any file).
``M002``  ``@dataclass`` in ``repro.core.config`` / ``repro.obs.stats``
          not declared ``frozen=True`` — config and stats records are
          part of the cached/hashable surface and must stay immutable.
``I001``  Unused import: a module-level ``import`` binding never read
          in its module (an ``ast.Name`` load or a name inside a
          string annotation); names listed in ``__all__`` count as
          read and ``__init__.py`` facades are exempt (any file).
========  ==========================================================

The architecture (layering) rules ``L001``/``L002`` live in
:mod:`repro.analysis.layering`.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.lint import ModuleInfo, Rule, register

#: Packages whose timing must flow through the tracer clock.
CLOCK_DISCIPLINED_PACKAGES = ("core", "index")

#: ``time`` attributes that read a clock.
_CLOCK_NAMES = ("perf_counter", "time", "monotonic", "perf_counter_ns",
                "monotonic_ns", "time_ns")

#: Modules whose dataclasses must be ``frozen=True``.
FROZEN_DATACLASS_MODULES = ("repro.core.config", "repro.obs.stats")

#: Builtin exception types library code must not raise bare.
_BANNED_RAISES = ("ValueError", "RuntimeError")


@register
class AdHocClockRule(Rule):
    """T001 — core/index must time through the tracer clock."""

    rule_id = "T001"
    title = ("no ad-hoc time.perf_counter/time.time in repro.core or "
             "repro.index; use repro.obs.trace.DEFAULT_CLOCK or an "
             "injected clock")

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.package not in CLOCK_DISCIPLINED_PACKAGES:
            return
        for node in module.walk():
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "time"
                    and node.attr in _CLOCK_NAMES):
                yield self.finding(
                    module, node.lineno,
                    f"ad-hoc clock time.{node.attr} in "
                    f"{module.module}; timing in repro.core/repro.index "
                    f"must flow through the tracer clock "
                    f"(repro.obs.trace.DEFAULT_CLOCK)")
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                clocky = [alias.name for alias in node.names
                          if alias.name in _CLOCK_NAMES]
                if clocky:
                    yield self.finding(
                        module, node.lineno,
                        f"importing {', '.join(clocky)} from time in "
                        f"{module.module}; use the tracer clock instead")


@register
class BareExceptRule(Rule):
    """E001 — no bare ``except:`` clauses anywhere."""

    rule_id = "E001"
    title = "no bare except: clauses (they swallow KeyboardInterrupt)"

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in module.walk():
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.finding(
                    module, node.lineno,
                    "bare except: clause; name the exception types "
                    "(GKSError for the library surface)")


@register
class BuiltinRaiseRule(Rule):
    """E002 — library code raises typed GKS errors, not bare builtins."""

    rule_id = "E002"
    title = ("library code must raise the GKSError hierarchy, not bare "
             "ValueError/RuntimeError")

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.role != "library":
            return
        for node in module.walk():
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            name = None
            if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
                name = exc.func.id
            elif isinstance(exc, ast.Name):
                name = exc.id
            if name in _BANNED_RAISES:
                yield self.finding(
                    module, node.lineno,
                    f"raise {name} in library code; use ConfigError / "
                    f"ValidationError (both GKSError and ValueError) or "
                    f"another GKSError subclass")


@register
class MutableDefaultRule(Rule):
    """M001 — no mutable default arguments."""

    rule_id = "M001"
    title = "no mutable default arguments (shared across calls)"

    _FACTORY_NAMES = ("list", "dict", "set")

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in module.walk():
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            defaults = list(node.args.defaults) + [
                default for default in node.args.kw_defaults
                if default is not None]
            for default in defaults:
                if self._is_mutable(default):
                    label = getattr(node, "name", "<lambda>")
                    yield self.finding(
                        module, default.lineno,
                        f"mutable default argument in {label}(); "
                        f"default to None and build inside the body")

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set,
                             ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in self._FACTORY_NAMES)


@register
class FrozenDataclassRule(Rule):
    """M002 — config/stats dataclasses must be frozen."""

    rule_id = "M002"
    title = ("@dataclass in repro.core.config and repro.obs.stats must "
             "be frozen=True")

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.module not in FROZEN_DATACLASS_MODULES:
            return
        for node in module.walk():
            if not isinstance(node, ast.ClassDef):
                continue
            for decorator in node.decorator_list:
                if self._is_unfrozen_dataclass(decorator):
                    yield self.finding(
                        module, node.lineno,
                        f"dataclass {node.name} in {module.module} must "
                        f"be @dataclass(frozen=True)")

    @staticmethod
    def _is_unfrozen_dataclass(decorator: ast.AST) -> bool:
        if isinstance(decorator, ast.Name):
            return decorator.id == "dataclass"        # bare => unfrozen
        if (isinstance(decorator, ast.Call)
                and isinstance(decorator.func, ast.Name)
                and decorator.func.id == "dataclass"):
            for keyword in decorator.keywords:
                if (keyword.arg == "frozen"
                        and isinstance(keyword.value, ast.Constant)
                        and keyword.value.value is True):
                    return False
            return True
        return False


@register
class UnusedImportRule(Rule):
    """I001 — every module-level import binding is read in its module."""

    rule_id = "I001"
    title = ("no unused module-level imports (__all__ entries count as "
             "read; __init__.py facades are exempt)")

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.path.name == "__init__.py":
            return
        read = _read_names(module.tree)
        for statement in module.tree.body:
            if not isinstance(statement, (ast.Import, ast.ImportFrom)) or \
                    getattr(statement, "module", None) == "__future__":
                continue
            for alias in statement.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "*" and name not in read:
                    yield self.finding(
                        module, alias.lineno,
                        f"{name!r} is imported but never used; drop it")


def _read_names(tree: ast.AST) -> set[str]:
    """Names *tree* reads: ``ast.Name`` loads, and the names inside the
    strings of annotations and of an ``__all__`` assignment."""
    read: set[str] = set()
    quoted: list[ast.AST] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__"
                for target in node.targets):
            quoted.append(node.value)
        quoted.extend(getattr(node, key) for key in ("annotation", "returns")
                      if getattr(node, key, None) is not None)
    for expression in quoted:
        for node in ast.walk(expression):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                read.update(name.id for name in ast.walk(parsed)
                            if isinstance(name, ast.Name))
    return read
