"""The SHARDS.json manifest: creation, detection, and reopen safety.

The manifest is what makes a sharded store self-describing -- reopening
with a different shard count would route traces to the wrong shard, so
the mismatch must be refused, and on-disk round trips must preserve the
full query surface.
"""

from __future__ import annotations

import json

import pytest

from repro.core.engine import SequenceIndex
from repro.core.model import EventLog
from repro.kvstore import LSMStore
from repro.shard import (
    MANIFEST_NAME,
    is_sharded_store,
    read_manifest,
    shard_paths,
    write_manifest,
)


def _open(root, num_shards=None):
    return SequenceIndex.open(
        root, lambda path: LSMStore(path), num_shards=num_shards
    )


def test_write_read_roundtrip(tmp_path):
    root = tmp_path / "sx"
    write_manifest(root, 4)
    assert is_sharded_store(root)
    manifest = read_manifest(root)
    assert manifest["num_shards"] == 4
    assert manifest["hash"] == "crc32"


def test_plain_directory_is_not_sharded(tmp_path):
    assert not is_sharded_store(tmp_path)
    with LSMStore(str(tmp_path / "ix")) as store:
        store.create_table("seq")
        store.put("seq", "k", {"v": 1})
    assert not is_sharded_store(tmp_path / "ix")


def test_shard_paths_are_stable(tmp_path):
    paths = shard_paths(tmp_path, 3)
    assert [p.name for p in paths] == ["shard-00", "shard-01", "shard-02"]


def test_open_persists_and_reopens(tmp_path):
    root = tmp_path / "sx"
    log = EventLog.from_dict(
        {"t1": list("ABAB"), "t2": list("BAC"), "t3": list("AB")}
    )
    with _open(root, num_shards=3) as index:
        index.update(log)
        expected = [
            (m.trace_id, m.timestamps) for m in index.detect(["A", "B"])
        ]
        assert expected
    # Reopen without a shard count: the manifest supplies it.
    with _open(root) as index:
        assert index.num_shards == 3
        got = [(m.trace_id, m.timestamps) for m in index.detect(["A", "B"])]
        assert got == expected


def test_reopen_with_wrong_count_is_refused(tmp_path):
    root = tmp_path / "sx"
    with _open(root, num_shards=2):
        pass
    with pytest.raises(ValueError, match="resharding"):
        _open(root, num_shards=4)


def test_new_store_without_count_is_one_store(tmp_path):
    root = tmp_path / "fresh"
    with _open(root) as index:
        assert index.num_shards == 1
        index.update(EventLog.from_dict({"t1": list("AB")}))
    assert not is_sharded_store(root)
    with SequenceIndex(LSMStore(str(root))) as index:
        assert index.count(["A", "B"]) == 1


def test_corrupt_manifest_is_refused(tmp_path):
    root = tmp_path / "sx"
    write_manifest(root, 2)
    manifest_path = root / MANIFEST_NAME
    payload = json.loads(manifest_path.read_text())
    payload["hash"] = "md5"
    manifest_path.write_text(json.dumps(payload))
    with pytest.raises(ValueError):
        read_manifest(root)
