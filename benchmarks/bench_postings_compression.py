"""Ablation: SSTable block compression + mmap over packed postings.

Smoke benchmarks for the compressed-storage rework (runner twin:
``python -m repro.bench.runner postings_compression``, which also writes
the ``BENCH_postings_compression.json`` perf-trajectory snapshot):

* decode throughput of the Index partitions -- a full scan-and-splice --
  with block compression none vs zlib;
* the Table 8 rare-pair query workload per storage configuration;
* warm-cache point reads served by ``mmap`` vs ``pread`` (block cache
  disabled so every get physically loads its block).
"""

from __future__ import annotations

import pytest

from conftest import SCALE
from repro.bench.workloads import prepared_dataset, rare_pair_patterns
from repro.core.engine import SequenceIndex
from repro.core.postings import decode_index_value
from repro.kvstore import LSMStore

DATASET = "max_10000"
PATTERN_LENGTH = 10
PATTERNS = 10
POINT_READS = 500

CONFIGS = [(None, False), ("zlib", False), ("zlib", True)]
CONFIG_IDS = ["baseline", "zlib", "zlib+mmap"]


def _build(workdir, compression, use_mmap):
    store = LSMStore(
        str(workdir / "db"),
        memtable_flush_bytes=256 * 1024,
        compression=compression,
        mmap=use_mmap,
    )
    index = SequenceIndex(store, query_cache_size=0)
    index.update(prepared_dataset(DATASET, SCALE))
    store.flush()
    return store, index


@pytest.mark.parametrize(("compression", "use_mmap"), CONFIGS, ids=CONFIG_IDS)
def test_index_decode_throughput(benchmark, tmp_path, compression, use_mmap):
    store, index = _build(tmp_path, compression, use_mmap)
    tables = [t for t in store.list_tables() if t.split(":")[0] == "index"]

    def decode_all():
        total = 0
        for table in tables:
            for _, value in store.scan(table):
                total += len(decode_index_value(value))
        return total

    assert decode_all() > 0  # warm-up: block cache / page cache
    benchmark.pedantic(decode_all, rounds=3, iterations=1)
    index.close()


@pytest.mark.parametrize(("compression", "use_mmap"), CONFIGS, ids=CONFIG_IDS)
def test_stnm_rare_pair_queries(benchmark, tmp_path, compression, use_mmap):
    store, index = _build(tmp_path, compression, use_mmap)
    log = prepared_dataset(DATASET, SCALE)
    patterns = rare_pair_patterns(log, index, PATTERN_LENGTH, PATTERNS)

    def run_all():
        for pattern in patterns:
            index.detect(pattern)

    run_all()  # warm-up
    benchmark.pedantic(run_all, rounds=3, iterations=1)
    index.close()


@pytest.mark.parametrize("use_mmap", [False, True], ids=["pread", "mmap"])
def test_warm_cache_point_reads(benchmark, tmp_path, use_mmap):
    store, index = _build(tmp_path, "zlib", use_mmap)
    trace_ids = index.trace_ids()
    index.close()
    # Block cache off: every get physically loads its block, isolating the
    # mmap-vs-pread difference on a warm page cache.
    reopened = LSMStore(str(tmp_path / "db"), block_cache_bytes=0, mmap=use_mmap)
    probes = [trace_ids[i % len(trace_ids)] for i in range(POINT_READS)]

    def read_all():
        for trace_id in probes:
            reopened.get("seq", trace_id)

    read_all()  # warm the page cache
    benchmark.pedantic(read_all, rounds=3, iterations=1)
    reopened.close()
