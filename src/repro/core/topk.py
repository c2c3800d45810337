"""Top-k GKS search: the head of the one ranking.

The paper's related work cites top-k XML keyword search [6].  Here ``k``
is a view of the full answer ``RQ(s)``: the one pipeline ranks every
candidate (:func:`repro.core.search.run_pipeline`) and
:meth:`GKSResponse.head` keeps the ``k`` best, so every ranker, index
layout and budget behaves exactly as in :func:`repro.core.search.search`
(``docs/ALGORITHMS.md`` §7 says why there is no early-termination bound).
"""

from __future__ import annotations

from repro.core.budget import SearchBudget
from repro.core.query import Query
from repro.core.ranking import rank_node
from repro.core.results import GKSResponse
from repro.core.search import Ranker, run_pipeline
from repro.index.builder import GKSIndex
from repro.obs.trace import NullTracer, Tracer


def search_top_k(index: GKSIndex, query: Query, k: int,
                 ranker: Ranker = rank_node,
                 budget: SearchBudget | None = None,
                 tracer: Tracer | NullTracer | None = None) -> GKSResponse:
    """The k highest-ranked nodes of ``RQ(s)``; ``k < 1`` is a
    :class:`~repro.errors.ConfigError` (raised by :meth:`GKSResponse.head`).

    Budget and tracer behave as in :func:`repro.core.search.search`; the
    root span is ``search_top_k`` with a ``k`` attribute.
    """
    return run_pipeline(index, query, ranker, budget, tracer,
                        "search_top_k", k=k).head(k)
