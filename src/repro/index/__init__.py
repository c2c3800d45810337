"""Indexing engine: node categorization, inverted index, hash tables,
and the durable write path (WAL + segmented store)."""

from repro.index.builder import GKSIndex, IndexBuilder, build_index
from repro.index.categorize import (CategoryRecord, NodeCategory,
                                    categorize_tree)
from repro.index.composite import CompositeIndex, merge_indexes
from repro.index.hashtables import NodeHashes
from repro.index.inverted import InvertedIndex
from repro.index.postings import (MergedList, count_in_subtree,
                                  merge_posting_lists, subtree_range)
from repro.index.sharding import (Shard, ShardedIndex, build_sharded_index,
                                  shard_of)
from repro.index.segments import (PendingDocument, SegmentRecord,
                                  SegmentStore, StoreManifest, TextsRecord,
                                  read_manifest, write_manifest)
from repro.index.statistics import IndexStats
from repro.index.storage import (atomic_write_json_gz, index_size_bytes,
                                 load_index, save_index)
from repro.index.wal import (WALFrame, WALReplay, WriteAheadLog, replay_wal)

__all__ = [
    "CategoryRecord", "CompositeIndex", "GKSIndex", "IndexBuilder",
    "IndexStats", "InvertedIndex", "MergedList", "NodeCategory",
    "NodeHashes", "PendingDocument",
    "SegmentRecord", "SegmentStore", "Shard", "ShardedIndex",
    "StoreManifest", "TextsRecord", "WALFrame",
    "WALReplay", "WriteAheadLog", "atomic_write_json_gz", "build_index",
    "build_sharded_index", "categorize_tree", "count_in_subtree",
    "index_size_bytes", "load_index", "merge_indexes",
    "merge_posting_lists", "read_manifest",
    "replay_wal", "save_index", "shard_of", "subtree_range",
    "write_manifest",
]
