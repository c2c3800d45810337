"""Query-mode semantics beyond strict ``min(s, |Q|)`` containment.

One mode, selected through ``EngineConfig.mode`` / per-request
``SearchOptions.mode`` and threaded through the whole stack:
``probabilistic`` — p-documents (PrXML IND/MUX distributional nodes
declared via the ``p:`` attribute convention) evaluated exactly: each
result node carries the possible-worlds probability that it exists
*and* its subtree holds ≥ ``min(s, |Q|)`` distinct query keywords,
filtered by a ``threshold`` knob (:mod:`repro.semantics.prob`).  It
reads the strict pipeline's merged list ``SL`` and folds it in one
document-order pass, validated against possible-worlds enumeration
(``repro.baselines.pworlds``).
"""

from repro.core.config import MODES
from repro.semantics.pdoc import ProbTables, compile_tables, extract_pdoc
from repro.semantics.prob import probabilistic_search

__all__ = [
    "MODES", "ProbTables", "compile_tables", "extract_pdoc",
    "probabilistic_search",
]
