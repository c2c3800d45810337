"""Query-mode semantics beyond strict ``min(s, |Q|)`` containment.

Two modes, both selected through ``EngineConfig.mode`` / per-request
``SearchOptions.mode`` and threaded through the whole stack:

* ``probabilistic`` — p-documents (PrXML IND/MUX distributional nodes
  declared via the ``p:`` attribute convention) evaluated exactly: each
  result node carries the possible-worlds probability that it exists
  *and* its subtree holds ≥ ``min(s, |Q|)`` distinct query keywords,
  filtered by a ``threshold`` knob (:mod:`repro.semantics.prob`).
* ``relaxed`` — no-but-semantic-match: when strict search is empty, a
  single-edit relaxation vocabulary (keyword drop, tag generalization,
  sibling-term substitution) derived from the corpus rescues the query
  with penalty-ranked, provenance-marked results
  (:mod:`repro.semantics.relax`).

Both are validated against brute-force oracles in ``repro.baselines``
(possible-worlds enumeration; exhaustive relaxation), the same way every
existing semantics in this repo is.
"""

from repro.core.config import MODES
from repro.semantics.pdoc import ProbTables, compile_tables, extract_pdoc
from repro.semantics.prob import probabilistic_search
from repro.semantics.relax import (RelaxVocabulary, relax_search,
                                   relaxation_candidates,
                                   relaxation_vocabulary)

__all__ = [
    "MODES", "ProbTables", "RelaxVocabulary", "compile_tables",
    "extract_pdoc", "probabilistic_search", "relax_search",
    "relaxation_candidates", "relaxation_vocabulary",
]
