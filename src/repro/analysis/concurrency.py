"""Concurrency lint rules (C001-C003) and the lock inventory.

The rules mechanize the lock discipline the serving and durability
paths document in prose:

========  ==========================================================
``C001``  A lock held across an engine call: inside a ``with`` block
          whose context expression is a lock attribute (name ending
          in ``lock``), a call like ``self.engine.search(...)`` /
          ``self._engine.add_document(...)`` dispatches into the
          engine while the lock is held.  The ServerCore contract —
          "the lock is never held across an engine call" — as a
          checked property instead of a docstring promise.
``C002``  A write to a guard-declared field outside its lock: a lock
          construction site may carry a ``# guards: a, b, c``
          annotation naming the fields it protects; any assignment,
          augmented assignment, delete or mutating method call on a
          guarded ``self.<field>`` must then sit lexically inside a
          ``with self.<lock>`` block.  ``__init__`` is exempt (the
          object is not yet shared), as are methods whose name ends
          in ``_locked`` or whose ``def`` line carries a
          ``# holds: <lock>`` marker — the convention for "caller
          holds the lock".  This is the static half of the
          check-then-act audit: the racy *act* is always a write.
``C003``  Module-level mutable state (list/dict/set/deque literal or
          constructor) in ``repro.serve``, ``repro.index.wal`` or
          ``repro.index.segments`` without a declared guard — those
          modules run under the worker pool, where an unguarded
          module global is a data race by construction.  Declare the
          serialization story with a ``# guards:`` comment on the
          assignment line (or suppress with ``# gks: ignore[C003]``).
========  ==========================================================

The ``# guards:`` annotation also feeds :func:`collect_locks`, the
``gks lint --locks`` inventory: every ``threading.Lock``/``RLock`` (or
:func:`repro.obs.locks.new_lock`/``new_rlock``) construction site, its
owner, its declared protected fields, and how many ``with`` blocks in
the module take it.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.analysis.findings import Finding
from repro.analysis.lint import ModuleInfo, Rule, register

#: ``# guards: field, other_field`` — declared on (or immediately above)
#: a lock construction site or a module-level mutable assignment.
_GUARDS_RE = re.compile(r"#\s*guards:\s*(.*)$")

#: ``# holds: _lock`` on a ``def`` line — the method is documented to be
#: called with the lock already held (C002 trusts the caller).
_HOLDS_RE = re.compile(r"#\s*holds:\s*([A-Za-z_][A-Za-z0-9_]*)")

#: Engine entry points C001 refuses to see under a held lock.
_ENGINE_CALLS = ("search", "search_top_k", "add_document", "flush",
                 "compact", "submit")

#: Receiver identifiers that mark a call target as "the engine".
_ENGINE_NAMES = ("engine", "_engine")

#: Constructors that build lock objects (lock inventory + C002 anchors).
_LOCK_FACTORIES = ("Lock", "RLock", "new_lock", "new_rlock")

#: In-place mutating methods.
_MUTATING_METHODS = ("append", "extend", "insert", "add", "update",
                     "clear", "pop", "popitem", "setdefault", "remove",
                     "discard", "sort")

#: Modules whose module-level mutable state must declare its guard.
GUARDED_MODULE_PREFIXES = ("repro.serve", "repro.index.wal",
                           "repro.index.segments")


def _guards_on(module: ModuleInfo, line: int) -> tuple[str, ...] | None:
    """Fields declared by a ``# guards:`` comment at *line*.

    Looks on the statement's own line first, then walks up contiguous
    comment-only lines (so a long field list can sit above the
    assignment).  Returns ``None`` when no annotation is present.
    """
    fields: list[str] = []
    found = False
    match = _GUARDS_RE.search(module.lines[line - 1]) \
        if 1 <= line <= len(module.lines) else None
    if match is not None:
        found = True
        fields.extend(_split_fields(match.group(1)))
    cursor = line - 1
    while cursor >= 1:
        text = module.lines[cursor - 1].strip()
        if not text.startswith("#"):
            break
        match = _GUARDS_RE.search(text)
        if match is not None:
            found = True
            fields = _split_fields(match.group(1)) + fields
        cursor -= 1
    return tuple(fields) if found else None


def _split_fields(raw: str) -> list[str]:
    return [token.strip() for token in raw.split(",") if token.strip()]


def _is_lock_call(node: ast.AST) -> bool:
    """Does *node* construct a lock (``threading.Lock()``, ``new_lock``)?"""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr in _LOCK_FACTORIES
    if isinstance(func, ast.Name):
        return func.id in _LOCK_FACTORIES
    return False


def _lock_attr_of(item: ast.expr) -> str | None:
    """The attribute/name a ``with`` context takes, if it looks lock-ish."""
    if isinstance(item, ast.Attribute) and item.attr.endswith("lock"):
        return item.attr
    if isinstance(item, ast.Name) and item.id.endswith("lock"):
        return item.id
    return None


def _self_attr(node: ast.expr) -> str | None:
    """``attr`` when *node* is exactly ``self.attr``."""
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


# ----------------------------------------------------------------------
# C001 — no lock held across an engine call
# ----------------------------------------------------------------------
@register
class LockAcrossEngineCallRule(Rule):
    """C001 — engine dispatch inside a ``with <lock>:`` block."""

    rule_id = "C001"
    title = ("no lock held across an engine call (search/add_document/"
             "flush/... on an engine receiver inside `with <lock>:`)")

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.role != "library":
            return
        for node in module.walk():
            if not isinstance(node, ast.With):
                continue
            locks = [lock for item in node.items
                     if (lock := _lock_attr_of(item.context_expr))]
            if not locks:
                continue
            for inner in node.body:
                yield from self._engine_calls_in(module, inner, locks[0])

    def _engine_calls_in(self, module: ModuleInfo, node: ast.AST,
                         lock: str) -> Iterator[Finding]:
        for child in ast.walk(node):
            if not isinstance(child, ast.Call):
                continue
            func = child.func
            if (isinstance(func, ast.Attribute)
                    and func.attr in _ENGINE_CALLS
                    and self._engine_receiver(func.value)):
                yield self.finding(
                    module, child.lineno,
                    f"engine call .{func.attr}() while holding {lock}; "
                    f"engine work must run outside the lock (snapshot "
                    f"state under the lock, dispatch after releasing)")

    @staticmethod
    def _engine_receiver(node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return node.id in _ENGINE_NAMES
        if isinstance(node, ast.Attribute):
            return node.attr in _ENGINE_NAMES
        return False


# ----------------------------------------------------------------------
# C002 — guarded fields written outside their lock
# ----------------------------------------------------------------------
@register
class GuardedWriteRule(Rule):
    """C002 — writes to ``# guards:``-declared fields need the lock."""

    rule_id = "C002"
    title = ("fields declared by a `# guards:` lock annotation may only "
             "be written under `with self.<lock>:` (check-then-act "
             "outside the lock is a race)")

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.role != "library":
            return
        for node in module.walk():
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(module, node)

    def _check_class(self, module: ModuleInfo,
                     cls: ast.ClassDef) -> Iterator[Finding]:
        guards = self._declared_guards(module, cls)
        if not guards:
            return
        field_to_lock = {field: lock
                         for lock, fields in guards.items()
                         for field in fields}
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                continue
            if method.name == "__init__":
                continue  # construction precedes sharing
            held = self._declared_held(module, method)
            yield from self._check_body(module, method.body, field_to_lock,
                                        held)

    def _declared_guards(self, module: ModuleInfo, cls: ast.ClassDef
                         ) -> dict[str, tuple[str, ...]]:
        """lock attribute -> guarded fields, from ``# guards:`` comments."""
        guards: dict[str, tuple[str, ...]] = {}
        for node in ast.walk(cls):
            if not (isinstance(node, ast.Assign)
                    and _is_lock_call(node.value)):
                continue
            for target in node.targets:
                attr = _self_attr(target)
                if attr is None:
                    continue
                fields = _guards_on(module, node.lineno)
                if fields:
                    guards[attr] = fields
        return guards

    @staticmethod
    def _declared_held(module: ModuleInfo, method: ast.FunctionDef
                       ) -> set[str]:
        """Locks the method is documented to run under."""
        held: set[str] = set()
        if method.name.endswith("_locked"):
            held.add("*")  # suffix convention: every guard satisfied
        if 1 <= method.lineno <= len(module.lines):
            match = _HOLDS_RE.search(module.lines[method.lineno - 1])
            if match is not None:
                held.add(match.group(1))
        return held

    def _check_body(self, module: ModuleInfo, body: Sequence[ast.stmt],
                    field_to_lock: dict[str, str],
                    held: set[str]) -> Iterator[Finding]:
        for statement in body:
            if isinstance(statement, ast.With):
                taken = {lock for item in statement.items
                         if (lock := _lock_attr_of(item.context_expr))}
                yield from self._check_body(module, statement.body,
                                            field_to_lock, held | taken)
                continue
            for line, field in self._writes_in(statement):
                lock = field_to_lock.get(field)
                if lock is None:
                    continue
                if lock in held or "*" in held:
                    continue
                yield self.finding(
                    module, line,
                    f"self.{field} is guarded by self.{lock} "
                    f"(# guards: declaration) but written outside "
                    f"`with self.{lock}:`; wrap the write, or mark the "
                    f"method `# holds: {lock}` / suffix it `_locked` if "
                    f"the caller holds the lock")
            yield from self._check_nested(module, statement, field_to_lock,
                                          held)

    def _check_nested(self, module: ModuleInfo, statement: ast.stmt,
                      field_to_lock: dict[str, str],
                      held: set[str]) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(statement):
            if isinstance(child, ast.With):
                taken = {lock for item in child.items
                         if (lock := _lock_attr_of(item.context_expr))}
                yield from self._check_body(module, child.body,
                                            field_to_lock, held | taken)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.Lambda)):
                continue  # nested defs have their own calling context
            elif isinstance(child, ast.stmt):
                yield from self._check_nested(module, child, field_to_lock,
                                             held)

    @staticmethod
    def _writes_in(statement: ast.stmt) -> Iterator[tuple[int, str]]:
        """(line, field) for every direct write to ``self.<field>``.

        Walks the statement but not into nested ``with`` blocks (those
        are re-checked with the taken lock added) or nested function
        definitions.
        """
        stack: list[ast.AST] = [statement]
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.With, ast.FunctionDef,
                                 ast.AsyncFunctionDef, ast.Lambda)):
                if node is not statement:
                    continue
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    base = target
                    if isinstance(base, ast.Subscript):
                        base = base.value
                    attr = _self_attr(base)
                    if attr is not None:
                        yield node.lineno, attr
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    base = target
                    if isinstance(base, ast.Subscript):
                        base = base.value
                    attr = _self_attr(base)
                    if attr is not None:
                        yield node.lineno, attr
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _MUTATING_METHODS):
                attr = _self_attr(node.func.value)
                if attr is not None:
                    yield node.lineno, attr
            stack.extend(ast.iter_child_nodes(node))


# ----------------------------------------------------------------------
# C003 — unguarded module-level mutable state in concurrent modules
# ----------------------------------------------------------------------
@register
class UnguardedModuleStateRule(Rule):
    """C003 — serve/wal/segments module globals must declare a guard."""

    rule_id = "C003"
    title = ("module-level mutable state in repro.serve / repro.index."
             "wal / repro.index.segments must carry a `# guards:` "
             "declaration naming what serializes access")

    _FACTORY_NAMES = ("list", "dict", "set", "defaultdict", "deque",
                      "OrderedDict")

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.module is None or module.tree is None:
            return
        if not module.module.startswith(GUARDED_MODULE_PREFIXES):
            return
        for node in ast.iter_child_nodes(module.tree):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            if not self._is_mutable(value):
                continue
            if _guards_on(module, node.lineno) is not None:
                continue
            plain = [target.id for target in targets
                     if isinstance(target, ast.Name)]
            # dunders (`__all__`) are interpreter/protocol slots, frozen
            # by convention after import — not shared mutable state
            if plain and all(name.startswith("__") and name.endswith("__")
                             for name in plain):
                continue
            names = ", ".join(plain) or "<target>"
            yield self.finding(
                module, node.lineno,
                f"module-level mutable {names} in {module.module} has "
                f"no declared guard; worker threads share this module — "
                f"add `# guards: <what serializes access>` or move the "
                f"state into an instance")

    def _is_mutable(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set,
                             ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None)
        return name in self._FACTORY_NAMES


# ----------------------------------------------------------------------
# Lock inventory (``gks lint --locks``)
# ----------------------------------------------------------------------
@dataclass(frozen=True, order=True)
class LockSite:
    """One lock construction site, as the inventory reports it."""

    path: str
    line: int
    owner: str          # "ClassName.attr" or a module-level name
    kind: str           # Lock / RLock / new_lock / new_rlock
    name: str           # the new_lock("...") label, "" for raw locks
    guards: tuple[str, ...]
    with_sites: int     # `with` blocks in the module taking this lock

    def render(self) -> str:
        guarded = ", ".join(self.guards) if self.guards else "(undeclared)"
        label = f" name={self.name!r}" if self.name else ""
        return (f"{self.path}:{self.line}: {self.owner} [{self.kind}"
                f"{label}] with-sites={self.with_sites} "
                f"guards: {guarded}")

    def to_dict(self) -> dict:
        return {"path": self.path, "line": self.line, "owner": self.owner,
                "kind": self.kind, "name": self.name,
                "guards": list(self.guards),
                "with_sites": self.with_sites}


def collect_locks(modules: Sequence[ModuleInfo]) -> list[LockSite]:
    """Every lock construction site in *modules*, sorted."""
    sites: list[LockSite] = []
    for module in modules:
        if module.tree is None:
            continue
        with_counts = _with_counts(module.tree)
        for owner_prefix, node in _assignments(module.tree):
            if not (isinstance(node, ast.Assign)
                    and _is_lock_call(node.value)):
                continue
            func = node.value.func
            kind = func.attr if isinstance(func, ast.Attribute) else func.id
            label = ""
            if (kind in ("new_lock", "new_rlock") and node.value.args
                    and isinstance(node.value.args[0], ast.Constant)):
                label = str(node.value.args[0].value)
            for target in node.targets:
                attr = _self_attr(target)
                if attr is not None:
                    owner = f"{owner_prefix}.{attr}" if owner_prefix \
                        else attr
                    key = attr
                elif isinstance(target, ast.Name):
                    owner = (f"{owner_prefix}.{target.id}"
                             if owner_prefix else target.id)
                    key = target.id
                else:
                    continue
                guards = _guards_on(module, node.lineno) or ()
                sites.append(LockSite(
                    path=str(module.path), line=node.lineno, owner=owner,
                    kind=kind, name=label, guards=tuple(guards),
                    with_sites=with_counts.get(key, 0)))
    return sorted(sites)


def _assignments(tree: ast.AST) -> Iterator[tuple[str, ast.Assign]]:
    """(owning class or "", assignment) for every Assign in *tree*."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for child in ast.walk(node):
                if isinstance(child, ast.Assign):
                    yield node.name, child
    class_assigns = {id(child) for node in ast.walk(tree)
                     if isinstance(node, ast.ClassDef)
                     for child in ast.walk(node)
                     if isinstance(child, ast.Assign)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and id(node) not in class_assigns:
            yield "", node


def _with_counts(tree: ast.AST) -> dict[str, int]:
    """How many ``with`` blocks take each lock-ish attribute/name."""
    counts: dict[str, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.With):
            continue
        for item in node.items:
            lock = _lock_attr_of(item.context_expr)
            if lock is not None:
                counts[lock] = counts.get(lock, 0) + 1
    return counts
