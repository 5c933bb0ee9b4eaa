"""Sharded scatter-gather service vs the single-store engine.

Smoke benchmarks for the sharded pair index and its query service (runner
twin: ``python -m repro.bench.runner sharded_service``, which also writes
the ``BENCH_sharded_service.json`` perf-trajectory snapshot and
``results/sharded_service.csv``):

* the service read path -- Table 8 rare-pair length-10 patterns through a
  real socket client -- for the single-store engine and 1/2/4 shards;
* the mixed read/write closed loop, where per-shard write generations let
  untouched shards keep their warm caches while the single-store engine
  evicts everything on every ingest.
"""

from __future__ import annotations

import pytest

from conftest import SCALE
from repro.bench.workloads import prepared_dataset, rare_pair_patterns
from repro.core.engine import SequenceIndex
from repro.kvstore import LSMStore
from repro.service import SequenceService, ServiceClient, run_loadgen

DATASET = "max_10000"
PATTERN_LENGTH = 10
PATTERNS = 6

SHARD_CONFIGS = (None, 1, 2, 4)  # None = single-store engine
_IDS = ("single", "sharded-1", "sharded-2", "sharded-4")


def _store_factory(path):
    return LSMStore(str(path), memtable_flush_bytes=256 * 1024)


@pytest.fixture(scope="module")
def workload():
    log = prepared_dataset(DATASET, SCALE)
    probe = SequenceIndex()
    probe.update(log)
    patterns = rare_pair_patterns(log, probe, PATTERN_LENGTH, PATTERNS)
    probe.close()
    return log, patterns


@pytest.fixture(params=SHARD_CONFIGS, ids=_IDS)
def served_engine(request, tmp_path, workload):
    log, patterns = workload
    engine = SequenceIndex.open(
        tmp_path / "db", _store_factory, num_shards=request.param
    )
    engine.update(log)
    service = SequenceService(engine, port=0, max_inflight=16)
    service.start()
    yield service, patterns
    service.shutdown()
    engine.close()


def test_service_read_path(benchmark, served_engine):
    """Socket round-trip detect() of every rare-pair pattern."""
    service, patterns = served_engine
    host, port = service.address
    with ServiceClient(host, port) as client:
        benchmark(lambda: [client.detect(p) for p in patterns])


def test_service_mixed_read_write(benchmark, served_engine):
    """One closed-loop burst of mixed traffic; throughput = ops/round."""
    service, patterns = served_engine
    host, port = service.address

    def burst():
        report = run_loadgen(
            host,
            port,
            patterns,
            clients=4,
            duration_s=1.0,
            write_fraction=0.2,
            seed=1,
        )
        assert report.errors == 0
        return report

    report = benchmark.pedantic(burst, rounds=1, iterations=1)
    benchmark.extra_info["qps"] = report.qps
    benchmark.extra_info["read_p99_ms"] = report.latency_ms.get(
        "read", {}
    ).get("p99")
