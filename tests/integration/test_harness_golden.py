"""Golden digests of ``run_concurrent`` output across both warehouse tiers.

Each case pins one seeded run by one SHA-256 digest per field of
everything the harness reports except wall time: the action log,
per-channel ``sent``/``delivered``/``sent_bytes``, ``metrics_table()``,
the final view, the crash records and the WAL totals.  A change to how
the harness is wired that leaves these digests untouched cannot have
moved a single message, event, counter or row; a change that does move
something names the field it moved.

To re-derive a digest after an intended behaviour change, run this file
with ``-k <case> -vv`` and read the changed field from the failure.
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


def digests(result):
    """One SHA-256 per reported field, so a diff names what moved."""
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
    return {
        field: hashlib.sha256(
            json.dumps(value, sort_keys=True, default=repr).encode("utf-8")
        ).hexdigest()
        for field, value in payload.items()
    }


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
        {
            "action_log": "94e1c93eb0906533f01978cabec22425d1e2cbd728600ddd753f874fa1be7d8a",
            "channels": "f9e72e8f090b0af320b0713337601add3d149ee7a55e9f14b659f8c0e9cc9b91",
            "metrics": "4a0985249e31820d7683d9f525d6654aadfe585930d3cc6cd6fe40d038bb7e0b",
            "final_view": "ec58bff518b93a7b1a49419df3fb79be5e46ec95e806e19cb5bc525e561f81d2",
            "crashes": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
            "wal_stats": "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b",
        },
    ),
    "faults_crash_wal": (
        faults_crash_wal,
        {
            "action_log": "8537d66ae68a7a4b65be40f88f1e4bfbd1a2f02e8549b98ce4452a35fd26efb3",
            "channels": "d4418b18f4415815dd3d86460aa6f58cfafb2bfee77236d9952555a6b1489d79",
            "metrics": "bb5a5fef3e247d483cf9bf95e41cf1c6d06907c6836b061d158957f1bc2f19dc",
            "final_view": "74f05c0ae02402db8aa8c5d96eef5d46565f2f7d5714a52ae4f66f6771a73cbc",
            "crashes": "60581ebe2b61d1c2807a419badf4e61fc0dc6e8040c267befb05416c3c090339",
            "wal_stats": "f1c2491bd0ca4d03eb9d3ec9f667d04dd6fa4a28cee9f4b027269e9cd9673a0b",
        },
    ),
    "cache_zipf_verify": (
        cache_zipf_verify,
        {
            "action_log": "47a2801218fe4a40bd3f2b22af300231142c4b94897ff6cb6265f383015bcb39",
            "channels": "e788d78053a874fc0466640a6ea81a499899ef57f4c1d510ddd1d3b8a9247b9c",
            "metrics": "b9b3afe3f9e8d04535cba9221dbd887af9c1f82de229dfe46b973d48def20f29",
            "final_view": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
            "crashes": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
            "wal_stats": "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b",
        },
    ),
    "batched_framed": (
        batched_framed,
        {
            "action_log": "2a66ef7765a81e0d162e0b458e82888b05fd4c3db6d9939b22f4a60f4ec233f2",
            "channels": "eafc5d1f89ef9664bf9851446b133971a362a3aca3bee613c3d4d05ccb8a1f6f",
            "metrics": "6efa66d98e49531b0ca8695f0d400869441345e6999fb677190194001df3f44b",
            "final_view": "059c4c311d7b2d19796faafc98e27667a4235b9510608ee90c4ef1e197a8cca3",
            "crashes": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
            "wal_stats": "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b",
        },
    ),
    "sharded_crash_cache": (
        sharded_crash_cache,
        {
            "action_log": "25d36447ab524b800ab7d150b274071bc8be6bd07541bc715d12e9c2a763f090",
            "channels": "b82a043c72c877d649ea6ffc09613b45b4eba286cacbf3947bee2f96cca9d342",
            "metrics": "21ac161e7ca90218af6c8c2f5b7e41a76f2b80273af899b0c86106364fbd4f8f",
            "final_view": "74f05c0ae02402db8aa8c5d96eef5d46565f2f7d5714a52ae4f66f6771a73cbc",
            "crashes": "edaff52e899326f54a1b685e4f4648c9ce2b18e656d98f458733703359574cd3",
            "wal_stats": "6d424a852a92d70ce0d96ad3561fc7ffdf602b70ad244b814f95a5cf99f95e8e",
        },
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_harness_output_matches_its_golden_digest(case, tmp_path):
    run, expected = GOLDEN[case]
    assert digests(run(tmp_path)) == expected
