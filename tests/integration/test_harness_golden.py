"""Golden digests of ``run_concurrent`` output across both warehouse tiers.

Each case pins one seeded run by a SHA-256 digest over everything the
harness reports except wall time: the action log, per-channel
``sent``/``delivered``/``sent_bytes``, ``metrics_table()``, the final
view, the crash records and the WAL totals.  A change to how the harness
is wired that leaves these digests untouched cannot have moved a single
message, event, counter or row.

To re-derive a digest after an intended behaviour change, run this file
with ``-k <case> -vv`` and read the ``actual`` value from the failure.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.eca import ECA
from repro.durability.crash import CrashPolicy
from repro.relational.engine import evaluate_view
from repro.relational.schema import RelationSchema
from repro.relational.views import View
from repro.runtime import FaultPlan, run_concurrent
from repro.serving import ServingCache, reader_for
from repro.source.memory import MemorySource
from repro.warehouse.catalog import WarehouseCatalog
from repro.workloads.random_gen import random_workload, zipf_read_workload


def build(n_views, updates=8, seed=0):
    """N disjoint two-relation join views, one source each."""
    sources = {}
    algorithms = {}
    workloads = {}
    for index in range(n_views):
        prefix = f"s{index}"
        schemas = [
            RelationSchema(f"{prefix}r1", ("W", "X"), key=("W",)),
            RelationSchema(f"{prefix}r2", ("X", "Y"), key=("Y",)),
        ]
        initial = {
            f"{prefix}r1": [(1, 2), (2, 3)],
            f"{prefix}r2": [(2, 5), (3, 6)],
        }
        source = MemorySource(schemas, initial)
        sources[prefix] = source
        view = View.natural_join(f"V{index}", schemas, ["W", "Y"])
        algorithms[f"V{index}"] = ECA(view, evaluate_view(view, source.snapshot()))
        workloads[prefix] = random_workload(
            schemas, updates, seed=seed + index, initial=initial, respect_keys=True
        )
    return sources, WarehouseCatalog(algorithms), workloads


def digest(result):
    payload = {
        "action_log": result.action_log,
        "channels": {
            name: [stats.sent, stats.delivered, stats.sent_bytes]
            for name, stats in sorted(result.channel_stats.items())
        },
        "metrics": result.metrics_table(),
        "final_view": sorted(
            [repr(row), count] for row, count in result.final_view.items()
        ),
        "crashes": result.crashes,
        "wal_stats": result.wal_stats,
    }
    encoded = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def plain(tmp_path):
    sources, catalog, workloads = build(2, seed=3)
    return run_concurrent(sources, catalog, workloads, clients=2, seed=3)


def faults_crash_wal(tmp_path):
    sources, catalog, workloads = build(2, seed=5)
    return run_concurrent(
        sources,
        catalog,
        workloads,
        clients=2,
        seed=5,
        faults=FaultPlan(latency=1.0, jitter=2.0, drop_rate=0.1),
        wal_dir=str(tmp_path),
        crash=CrashPolicy(mode="mid-uqs", max_crashes=2, seed=5),
    )


def cache_zipf_verify(tmp_path):
    sources, catalog, workloads = build(2, seed=7)
    keys = reader_for(catalog).current_keys()
    reads = zipf_read_workload(keys, 40, theta=1.2, seed=7)
    return run_concurrent(
        sources,
        catalog,
        workloads,
        clients=1,
        seed=7,
        cache=ServingCache(capacity=4, staleness_bound=0),
        read_workload=reads,
        verify_reads=True,
    )


def batched_framed(tmp_path):
    sources, catalog, workloads = build(2, updates=12, seed=11)
    return run_concurrent(
        sources,
        catalog,
        workloads,
        clients=1,
        seed=11,
        max_burst=4,
        batch_k=4,
        wire_codec="frame",
    )


def sharded_crash_cache(tmp_path):
    sources, catalog, workloads = build(4, seed=5)
    keys = reader_for(catalog).current_keys()
    reads = zipf_read_workload(keys, 40, theta=1.0, seed=5)
    return run_concurrent(
        sources,
        catalog,
        workloads,
        clients=1,
        seed=5,
        shards=2,
        partitioner="hash",
        wal_dir=str(tmp_path),
        crash=CrashPolicy(mode="mid-uqs", max_crashes=1, seed=5),
        crash_shard=1,
        cache=ServingCache(capacity=8, staleness_bound=0),
        read_workload=reads,
        verify_reads=True,
    )


GOLDEN = {
    "plain": (
        plain,
        "e0db8907be97cb4d10aab4a17845dedefe03fb5b78826483f045c5a076fb108b",
    ),
    "faults_crash_wal": (
        faults_crash_wal,
        "6c10a1a698f5c7e29a67a16eae24e04246af5781c33952eec97a9c66fd2bc9ff",
    ),
    "cache_zipf_verify": (
        cache_zipf_verify,
        "ba09539c35a6d537f3d7c1a1f7a353dfd174c5c64705a4fbd52e12b8339414d8",
    ),
    "batched_framed": (
        batched_framed,
        "c8f2b0c120f1bef73e07dbed3b0eb34260bc70c74bb5e3d64d548e6230a90e97",
    ),
    "sharded_crash_cache": (
        sharded_crash_cache,
        "9487542ddd35359d0815aa5ad4769330a5daee2eff224da3adcaf7504b63b31a",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_harness_output_matches_its_golden_digest(case, tmp_path):
    run, expected = GOLDEN[case]
    assert digest(run(tmp_path)) == expected
