"""The stable public API surface, in one import.

Everything a GKS *user* (as opposed to a contributor poking at
internals) needs lives here: the engine and its one factory, the two
frozen configuration records, the response types, the typed error
hierarchy and the codec registry.  The promise is narrow on purpose —
these names are the compatibility surface; everything else under
``repro.*`` is implementation detail that may move between releases.

Quickstart::

    from repro.api import EngineConfig, GKSEngine, SearchOptions

    config = EngineConfig(store_path="corpus.store",
                          codec="varint-dag", shards=2)
    engine = GKSEngine.open(["a.xml", "b.xml"], config=config)
    response = engine.search("karen mike data mining",
                             options=SearchOptions(s=2))
    for node in response.top(5):
        print(engine.describe(node))

Query semantics are part of the surface too: ``EngineConfig.mode`` /
``SearchOptions.mode`` select one of :data:`MODES` (``strict`` |
``probabilistic``), probabilistic results carry
``RankedNode.probability`` and describe themselves in
``GKSResponse.semantics`` (:class:`SemanticsInfo`).

``GKSEngine.open`` is the one blessed constructor — it sniffs raw XML
texts, corpus paths and :class:`~repro.xmltree.repository.Repository`
objects (wrap iterables in :class:`Texts` / :class:`Paths` to skip the
sniff) and consumes every :class:`EngineConfig` knob, including the
``codec`` that picks the on-disk index representation.
"""

from __future__ import annotations

from repro.core.budget import SearchBudget
from repro.core.config import (MODES, EngineConfig, Paths,
                               SearchOptions, Texts)
from repro.core.engine import GKSEngine
from repro.core.results import GKSResponse, RankedNode, SemanticsInfo
from repro.errors import (ConfigError, GKSError, Overloaded, QueryError,
                          SearchTimeout, StorageError, ValidationError,
                          XMLSyntaxError)
from repro.index.codec import CODEC_NAMES, Codec, resolve_codec

__all__ = [
    "CODEC_NAMES", "Codec", "ConfigError", "EngineConfig", "GKSEngine",
    "GKSError", "GKSResponse", "MODES", "Overloaded", "Paths",
    "QueryError", "RankedNode", "SearchBudget",
    "SearchOptions", "SearchTimeout", "SemanticsInfo", "StorageError",
    "Texts", "ValidationError", "XMLSyntaxError", "resolve_codec",
]
