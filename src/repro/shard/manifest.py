"""The ``SHARDS.json`` manifest that makes a sharded store self-describing.

A sharded root holds one store directory per shard (``shard-00``,
``shard-01``, ...) plus this manifest recording the shard count and the
placement hash (:mod:`repro.shard.hashing`).  Reopening with a different
count would route traces to the wrong shard, so
:meth:`repro.core.engine.SequenceIndex.open` refuses it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.shard.hashing import HASH_NAME

MANIFEST_NAME = "SHARDS.json"
_MANIFEST_VERSION = 1


def write_manifest(root: str | Path, num_shards: int) -> None:
    """Persist the shard layout of a sharded store directory."""
    if num_shards <= 0:
        raise ValueError("num_shards must be positive")
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    manifest = {
        "version": _MANIFEST_VERSION,
        "num_shards": int(num_shards),
        "hash": HASH_NAME,
    }
    path = root / MANIFEST_NAME
    tmp = path.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    tmp.replace(path)


def read_manifest(root: str | Path) -> dict[str, Any]:
    """Load and validate a shard manifest; raises on unknown layouts."""
    path = Path(root) / MANIFEST_NAME
    manifest = json.loads(path.read_text(encoding="utf-8"))
    if manifest.get("version") != _MANIFEST_VERSION:
        raise ValueError(f"unsupported shard manifest version: {manifest!r}")
    if manifest.get("hash") != HASH_NAME:
        raise ValueError(
            f"unsupported shard hash {manifest.get('hash')!r}; this build "
            f"only understands {HASH_NAME!r}"
        )
    num_shards = manifest.get("num_shards")
    if not isinstance(num_shards, int) or num_shards <= 0:
        raise ValueError(f"invalid num_shards in shard manifest: {manifest!r}")
    return manifest


def is_sharded_store(root: str | Path) -> bool:
    """True when ``root`` holds a shard manifest."""
    return (Path(root) / MANIFEST_NAME).is_file()


def shard_paths(root: str | Path, num_shards: int) -> list[Path]:
    """Per-shard store directories under a sharded store root."""
    return [Path(root) / f"shard-{i:02d}" for i in range(num_shards)]
