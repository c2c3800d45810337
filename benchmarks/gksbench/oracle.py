"""Oracle checks shared by the workloads (sampled; every seed)."""

from __future__ import annotations

from repro.baselines.bruteforce import subtree_keyword_map
from repro.core.query import Query

import common


def sample(pool, size: int):
    """*size* specs spread evenly over *pool* (so over ``|SL|``)."""
    step = max(1, len(pool) // size)
    return pool[::step][:size]


def check_sound(repository, analyzer, specs, answers, checker) -> None:
    """Every node of every sampled answer lies in the brute-force
    search space: its subtree holds ``min(s, |Q|)`` distinct query
    keywords.  That is ``brute_candidates``' definition, applied to one
    ``subtree_keyword_map`` walk instead of one walk per query.

    *answers* maps a spec to its full answer, ``common.answer`` form.
    """
    mapping = subtree_keyword_map(repository, analyzer)
    by_text = {common.dewey_text(dewey): keywords
               for dewey, keywords in mapping.items()}
    for spec in specs:
        query = Query.parse(spec.text, s=spec.s, analyzer=analyzer)
        wanted = set(query.keywords)
        outside = [dewey for dewey, _score in answers(spec)
                   if len(by_text.get(dewey, ()) & wanted)
                   < query.effective_s]
        checker.expect(not outside,
                       f"{spec.text}: {len(outside)} node(s) outside the "
                       f"brute-force search space, first {outside[:1]}")
