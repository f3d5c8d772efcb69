"""Integration: batched and deferred maintenance, end to end.

Validates the Section 7 extension against the correctness hierarchy and
its promised message economics (2*ceil(k/batch_size) instead of 2k).
"""

import pytest

from repro.cli import main
from repro.consistency import check_trace
from repro.core.batch import BatchECA, DeferredECA
from repro.core.eca import ECA
from repro.costmodel.counters import CostRecorder
from repro.kernel import replay_concurrent
from repro.relational.engine import evaluate_view
from repro.relational.schema import RelationSchema
from repro.relational.views import View
from repro.runtime import FaultPlan, run_concurrent
from repro.runtime.actors import warehouse_inbox
from repro.runtime.harness import DRAIN_CLIENT
from repro.simulation.driver import REFRESH, Simulation
from repro.simulation.schedules import (
    BestCaseSchedule,
    RandomSchedule,
    WorstCaseSchedule,
)
from repro.source.memory import MemorySource
from repro.workloads.random_gen import random_workload

SCHEMAS = [RelationSchema("r1", ("W", "X")), RelationSchema("r2", ("X", "Y"))]
INITIAL = {"r1": [(1, 2), (2, 3)], "r2": [(2, 5), (3, 6)]}


def build(algorithm_factory):
    view = View.natural_join("V", SCHEMAS, ["W", "Y"])
    source = MemorySource(SCHEMAS, INITIAL)
    warehouse = algorithm_factory(view, evaluate_view(view, source.snapshot()))
    return view, source, warehouse


class TestBatchECA:
    @pytest.mark.parametrize("batch_size", [1, 2, 3, 4, 6, 12])
    def test_strongly_consistent_across_interleavings(self, batch_size):
        for seed in range(6):
            view, source, warehouse = build(
                lambda v, iv: BatchECA(v, iv, batch_size=batch_size)
            )
            workload = random_workload(SCHEMAS, 12, seed=seed, initial=INITIAL)
            trace = Simulation(source, warehouse, workload).run(
                RandomSchedule(seed * 31 + batch_size)
            )
            report = check_trace(view, trace)
            assert report.strongly_consistent, (batch_size, seed, report.detail)

    def test_message_economics(self):
        """k=12 updates: 2*ceil(12/b) messages for batch size b."""
        for batch_size, expected in ((1, 24), (2, 12), (3, 8), (4, 6), (6, 4), (12, 2)):
            view, source, warehouse = build(
                lambda v, iv: BatchECA(v, iv, batch_size=batch_size)
            )
            recorder = CostRecorder()
            workload = random_workload(SCHEMAS, 12, seed=5, initial=INITIAL)
            Simulation(source, warehouse, workload, recorder).run(
                WorstCaseSchedule()
            )
            assert recorder.messages == expected, batch_size

    def test_matches_eca_final_state(self):
        workload = random_workload(SCHEMAS, 12, seed=7, initial=INITIAL)
        finals = []
        for factory in (
            lambda v, iv: ECA(v, iv),
            lambda v, iv: BatchECA(v, iv, batch_size=3),
        ):
            _, source, warehouse = build(factory)
            Simulation(source, warehouse, list(workload)).run(WorstCaseSchedule())
            finals.append(warehouse.view_state())
        assert finals[0] == finals[1]

    def test_non_dividing_batch_needs_final_flush(self):
        view, source, warehouse = build(lambda v, iv: BatchECA(v, iv, batch_size=5))
        workload = random_workload(SCHEMAS, 7, seed=1, initial=INITIAL)
        trace = Simulation(source, warehouse, workload).run(BestCaseSchedule())
        # Two updates still buffered: not convergent yet...
        assert warehouse.buffered_updates() == 2
        assert not check_trace(view, trace).convergent
        # ...until a refresh flushes the tail.
        sim2_view, sim2_source, sim2_warehouse = build(
            lambda v, iv: BatchECA(v, iv, batch_size=5)
        )
        trace2 = Simulation(
            sim2_source, sim2_warehouse, list(workload) + [REFRESH]
        ).run(BestCaseSchedule())
        assert check_trace(sim2_view, trace2).strongly_consistent


class TestDeferredECA:
    def test_view_is_stale_between_refreshes(self):
        view, source, warehouse = build(DeferredECA)
        before = warehouse.view_state()
        workload = random_workload(SCHEMAS, 6, seed=3, initial=INITIAL)
        Simulation(source, warehouse, workload).run(BestCaseSchedule())
        assert warehouse.view_state() == before
        assert warehouse.buffered_updates() == 6

    def test_periodic_refresh_is_strongly_consistent(self):
        for seed in range(6):
            view, source, warehouse = build(DeferredECA)
            updates = random_workload(SCHEMAS, 12, seed=seed, initial=INITIAL)
            workload = []
            for index, update in enumerate(updates):
                workload.append(update)
                if (index + 1) % 4 == 0:
                    workload.append(REFRESH)
            trace = Simulation(source, warehouse, workload).run(
                RandomSchedule(seed + 42)
            )
            report = check_trace(view, trace)
            assert report.strongly_consistent, (seed, report.detail)

    def test_single_refresh_at_end_converges(self):
        view, source, warehouse = build(DeferredECA)
        recorder = CostRecorder()
        workload = random_workload(SCHEMAS, 10, seed=2, initial=INITIAL) + [REFRESH]
        trace = Simulation(source, warehouse, workload, recorder).run(
            BestCaseSchedule()
        )
        assert check_trace(view, trace).strongly_consistent
        # One flush -> one query + one answer for ten updates.
        assert recorder.messages == 2

    def test_refresh_event_recorded_in_trace(self):
        view, source, warehouse = build(DeferredECA)
        workload = random_workload(SCHEMAS, 3, seed=1, initial=INITIAL) + [REFRESH]
        trace = Simulation(source, warehouse, workload).run(BestCaseSchedule())
        assert len(trace.events_of_kind("C_ref")) == 1
        assert len(trace.events_of_kind("W_ref")) == 1


class TestRuntimeDrain:
    """Runs whose last updates arrive after the last flush trigger still end.

    BatchECA flushes on its size trigger or a client refresh, DeferredECA
    on a refresh only.  With faults delaying updates past the clients'
    reads, or with no clients at all, buffered updates would never ship
    and the run would spin until its poll limit; the harness's own drain
    refresh releases them, and the run ends at the algorithm's level.
    """

    @pytest.mark.parametrize("algorithm", ["batch-eca", "deferred-eca"])
    @pytest.mark.parametrize("clients", ["0", "4"])
    def test_faulty_runs_quiesce_strongly_consistent(self, capsys, algorithm, clients):
        status = main(
            [
                "runtime",
                "--sources", "1",
                "--updates", "16",
                "--seed", "4",
                "--faults",
                "--algorithm", algorithm,
                "--clients", clients,
                "--require-consistent",
            ]
        )
        out = capsys.readouterr().out
        assert status == 0, out
        assert "consistency:        strongly consistent" in out

    def test_drained_deferred_view_reaches_the_final_state(self):
        view, source, warehouse = build(DeferredECA)
        workload = random_workload(SCHEMAS, 10, seed=3, initial=INITIAL)
        result = run_concurrent(source, warehouse, workload, seed=4)
        assert result.action_log.count(f"refresh:{DRAIN_CLIENT}") == 1
        assert result.final_view == evaluate_view(view, result.trace.final_source_state)
        assert check_trace(view, result.trace).strongly_consistent
        # The drain is an ordinary client refresh to the synchronous kernel.
        _, twin_source, twin = build(DeferredECA)
        kernel = replay_concurrent(
            result.action_log, {"source": twin_source}, twin, {"source": workload}
        )
        assert [(e.kind, e.detail) for e in kernel.trace.events] == [
            (e.kind, e.detail) for e in result.trace.events
        ]
        assert kernel.trace.view_states == result.trace.view_states

    def test_self_quiescing_runs_get_no_drain_refresh(self):
        view, source, warehouse = build(ECA)
        workload = random_workload(SCHEMAS, 10, seed=3, initial=INITIAL)
        faults = FaultPlan(jitter=2.0, drop_rate=0.2)
        result = run_concurrent(
            source, warehouse, workload, clients=2, faults=faults, seed=4
        )
        assert f"refresh:{DRAIN_CLIENT}" not in result.action_log
        assert warehouse_inbox(DRAIN_CLIENT) not in result.channel_stats
