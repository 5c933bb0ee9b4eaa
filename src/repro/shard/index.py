"""Compatibility name: a sharded index is a :class:`~repro.core.engine.SequenceIndex` over N stores."""

from repro.core.engine import SequenceIndex as ShardedSequenceIndex  # noqa: F401
