"""Scatter-gather entry points over a :class:`ShardedIndex`.

There is one query driver (:func:`repro.core.search.run_pipeline`): it
runs ``merge → lcp → lce`` per shard and ranks once globally whenever
the index it is handed has more than one unit, so the plain entry
points *are* the sharded ones.  The names stay for their importers.
"""

from repro.core.search import search as sharded_search
from repro.core.topk import search_top_k as sharded_top_k

__all__ = ["sharded_search", "sharded_top_k"]
