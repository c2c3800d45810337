"""Static analysis for the GKS reproduction: lint + deep invariants.

Two complementary halves:

* :mod:`repro.analysis.lint` — an AST lint engine with a pluggable rule
  registry enforcing the architecture DAG, timing discipline, the typed
  error surface and mutability hygiene
  (:mod:`repro.analysis.rules`, :mod:`repro.analysis.layering`);
* :mod:`repro.analysis.invariants` — a deep data-level verifier auditing
  built indexes and saved stores beyond what checksums can prove.

CLI entry points: ``gks lint`` and ``gks check-index --deep``.
"""

from repro.analysis.concurrency import LockSite, collect_locks
from repro.analysis.findings import Finding, render_findings
from repro.analysis.invariants import (INVARIANT_NAMES, InvariantViolation,
                                       verify_against, verify_index,
                                       verify_segmented_store, verify_store)
from repro.analysis.lint import (ModuleInfo, Rule, default_rules,
                                 lint_modules, lint_paths, register,
                                 rule_catalog)

__all__ = [
    "Finding", "render_findings",
    "ModuleInfo", "Rule", "register", "default_rules", "rule_catalog",
    "lint_modules", "lint_paths",
    "LockSite", "collect_locks",
    "InvariantViolation", "verify_against", "verify_index",
    "verify_segmented_store", "verify_store", "INVARIANT_NAMES",
]
