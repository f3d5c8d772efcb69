"""The harness's up-front option rules and its failure reporting.

``run_concurrent`` rejects option combinations it cannot honour before
any actor starts, for both warehouse tiers.  When an actor does die
mid-run, the harness raises that actor's own exception rather than the
``TransportClosed`` the shutdown then causes in its peers, and it still
closes every WAL so the directories are not left locked.
"""

from __future__ import annotations

import pytest

from repro.core.eca import ECA
from repro.durability.crash import CrashPolicy
from repro.errors import SimulationError
from repro.obs import Observability
from repro.relational.engine import evaluate_view
from repro.relational.schema import RelationSchema
from repro.relational.views import View
from repro.runtime import run_concurrent
from repro.source.memory import MemorySource
from repro.workloads.random_gen import random_workload


class Exploded(Exception):
    """A warehouse algorithm's own failure."""


class ExplodingECA(ECA):
    def on_update(self, source, notification):
        raise Exploded("the warehouse failed on its first update")


def build(algorithm_class=ECA, n_sources=2, updates=12):
    """Disjoint two-relation sources; the warehouse maintains the first one's view."""
    sources = {}
    workloads = {}
    views = []
    for index in range(n_sources):
        prefix = f"s{index}"
        schemas = [
            RelationSchema(f"{prefix}r1", ("W", "X"), key=("W",)),
            RelationSchema(f"{prefix}r2", ("X", "Y"), key=("Y",)),
        ]
        initial = {f"{prefix}r1": [(1, 2)], f"{prefix}r2": [(2, 5)]}
        sources[prefix] = MemorySource(schemas, initial)
        views.append(View.natural_join(f"V{index}", schemas, ["W", "Y"]))
        workloads[prefix] = random_workload(
            schemas, updates, seed=index, initial=initial, respect_keys=True
        )
    view = views[0]
    algorithm = algorithm_class(view, evaluate_view(view, sources["s0"].snapshot()))
    return sources, algorithm, workloads


class TestRootCauseSurfaces:
    @pytest.mark.parametrize("shards", [None, 2])
    def test_a_failing_warehouse_raises_its_own_exception(self, shards):
        # The sources still hold updates when the warehouse dies, so each
        # one then fails sending on the closed transport; those secondary
        # errors must not hide the warehouse's.
        sources, algorithm, workloads = build(ExplodingECA)
        with pytest.raises(Exploded):
            run_concurrent(sources, algorithm, workloads, seed=1, shards=shards)

    @pytest.mark.parametrize("shards", [None, 2])
    def test_a_failed_run_releases_its_wal_directories(self, tmp_path, shards):
        sources, algorithm, workloads = build(ExplodingECA)
        with pytest.raises(Exploded):
            run_concurrent(
                sources, algorithm, workloads, shards=shards, wal_dir=str(tmp_path)
            )
        # No lock survives the failed run, so the next run can log here.
        sources, algorithm, workloads = build()
        result = run_concurrent(
            sources, algorithm, workloads, shards=shards, wal_dir=str(tmp_path)
        )
        assert result.wal_stats is not None


class TestOptionRules:
    def test_unsharded_run_rejects_a_sharded_observability(self):
        sources, algorithm, workloads = build()
        with pytest.raises(SimulationError, match="sharded=False"):
            run_concurrent(
                sources,
                algorithm,
                workloads,
                obs=Observability(sharded=True),
            )

    def test_unsharded_run_rejects_a_crash_shard_other_than_zero(self, tmp_path):
        sources, algorithm, workloads = build()
        with pytest.raises(SimulationError, match="not a populated shard"):
            run_concurrent(
                sources,
                algorithm,
                workloads,
                wal_dir=str(tmp_path),
                crash=CrashPolicy(mode="mid-uqs", max_crashes=1, seed=1),
                crash_shard=7,
            )
        # Rejected before the WAL was opened: nothing was written.
        assert list(tmp_path.iterdir()) == []
