"""Building the merged Dewey-id list ``SL`` for a query (paper §4.1).

"For the query keywords ki ∈ Q, we first merge their respective inverted
index lists such that in the merged list, keywords follow their arrival
order in the XML document."  Dewey order is document order, so the k-way
merge of the sorted posting lists yields exactly that ordering.
"""

from __future__ import annotations

from repro.core.budget import SearchBudget
from repro.index.builder import GKSIndex
from repro.index.postings import MergedList, merge_posting_lists
from repro.core.query import Query
from repro.obs.trace import NOOP_TRACER


def merged_list(index: GKSIndex, query: Query,
                budget: SearchBudget | None = None,
                tracer=NOOP_TRACER) -> MergedList:
    """The sorted merged list ``SL`` of all query-keyword postings.

    An entry is ``id << sl.keyword_bits | keyword``: a packed Dewey id
    and the index of its keyword in ``query.keywords``.  Keywords absent from the corpus simply contribute
    empty lists; ``|SL| <= Σ|Si|`` with equality unless an element holds
    two query keywords at the same Dewey id under the same keyword
    (impossible — posting lists are deduplicated per keyword).

    A :class:`SearchBudget` caps the result at ``max_sl`` entries (the
    kept prefix is a coherent leading slice of the corpus in document
    order) and charges the merge against the deadline; *tracer* gets a
    ``decode`` span per keyword a loaded binary index decodes on this touch.
    """
    sl = merge_posting_lists(
        [index.postings(keyword, tracer) for keyword in query.keywords],
        index.layout)
    if budget is not None:
        sl = budget.admit_sl(sl)
        budget.checkpoint("merge", len(sl), len(sl))
    return sl
