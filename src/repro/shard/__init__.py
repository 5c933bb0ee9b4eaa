"""Shard placement for a partitioned pair index.

:class:`~repro.core.engine.SequenceIndex` over a list of stores partitions
traces across them by a stable hash of the trace id
(:func:`~repro.shard.hashing.shard_for_trace`); a sharded store directory
describes its layout in a ``SHARDS.json`` manifest
(:mod:`repro.shard.manifest`).  Because a trace's pairs colocate on one
shard, per-trace work stays shard-local and every merge is a disjoint
union.
"""

from repro.shard.hashing import HASH_NAME, shard_for_trace
from repro.shard.manifest import (
    MANIFEST_NAME,
    is_sharded_store,
    read_manifest,
    shard_paths,
    write_manifest,
)

__all__ = [
    "HASH_NAME",
    "MANIFEST_NAME",
    "is_sharded_store",
    "read_manifest",
    "shard_for_trace",
    "shard_paths",
    "write_manifest",
]
