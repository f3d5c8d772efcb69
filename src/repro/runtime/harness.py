"""``run_concurrent``: drive N sources × M clients to quiescence.

The harness wires sources, a warehouse tier, and view-reading clients onto
a shared transport, runs them as asyncio tasks, and records a global
:class:`~repro.simulation.trace.Trace` exactly like the synchronous
drivers do — one source snapshot per executed update, one view snapshot
per warehouse event — so :func:`repro.consistency.checker.check_trace`
classifies concurrent executions against the Section 3.1 hierarchy with
no changes.

The warehouse tier has two shapes behind one body.  Unsharded, it is the
paper's single warehouse process on the ``"{name}->wh"`` channels.  With
``shards=N`` it is a :class:`~repro.sharding.router.ShardRouter` in front
of one warehouse actor per populated shard, each with its own WAL
directory and crash/recovery lifecycle, merged for readers by a
:class:`~repro.sharding.facade.ShardedWarehouse`.  Sources and clients
are identical in both.

Everything runs on one event loop with no wall-clock waits, so a run is
deterministic: the same sources, workloads, seed, and fault plan replay
the identical event trace.  Wall-clock duration is measured only as a
throughput metric and never feeds back into scheduling.

Termination: the harness waits for every client to finish and every
source workload to drain, then polls (at scheduling points) until all
channels are empty and every warehouse actor is quiescent, and finally
closes the transport, unwinding the actor tasks.
"""

from __future__ import annotations

import asyncio
import os
import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.durability.crash import CrashPolicy
from repro.durability.recovery import recover
from repro.durability.wal import WriteAheadLog
from repro.errors import SimulationError, TransportClosed, WarehouseCrashed
from repro.kernel.dispatch import relation_owners
from repro.messaging.messages import QueryRequest
from repro.messaging.wire import create_codec
from repro.relational.bag import SignedBag
from repro.runtime.actors import (
    ActorMetrics,
    ClientActor,
    SourceActor,
    WarehouseActor,
    WarehouseHandle,
    warehouse_inbox,
)
from repro.runtime.transport import (
    AsyncTransport,
    ChannelStats,
    FaultPlan,
    FaultyTransport,
    InMemoryTransport,
)
from repro.serving import ReadClientActor, ReadMismatch, ServingCache, reader_for, serving_report
from repro.simulation.trace import C_REF, S_QU, S_UP, W_CRASH, W_REC, Trace
from repro.source.base import Source
from repro.source.updates import Update

SourcesArg = Union[Source, Mapping[str, Source]]
WorkloadArg = Union[Sequence[Update], Mapping[str, Sequence[Update]]]

#: Safety valve for the quiescence poll loop.
_MAX_POLLS = 1_000_000


class _TraceRecorder:
    """The harness's single-writer view of the global history.

    Actors call these hooks between awaits, so each hook runs atomically
    with the event it records; the trace's event order *is* the execution
    order.
    """

    def __init__(
        self,
        sources: Mapping[str, Source],
        transport: AsyncTransport,
        record_trace: bool = True,
    ) -> None:
        self._sources = dict(sources)
        self._transport = transport
        #: When False (benchmarks), skip the O(rows) trace/snapshot work
        #: per event; serials, the action log, and timing still accrue.
        self.record_trace = record_trace
        self.trace = Trace()
        self.serial = 0
        self.last_update_at = 0.0
        self.requests = 0
        self._warehouse: Optional["WarehouseActor | WarehouseHandle"] = None
        #: The global order of recordable actions, as kernel action strings
        #: (``update:<source>`` / ``answer:<source>`` /
        #: ``warehouse:<origin>`` / ``refresh:<client>`` plus ``crash`` /
        #: ``recover`` markers).  A concurrent run's log replays on the
        #: synchronous kernel — see :mod:`repro.kernel.conformance`.
        self.action_log: List[str] = []
        #: name -> [state after i updates at that source], for the
        #: cut-consistency checker.
        self.per_source_states: Dict[str, List[Dict[str, SignedBag]]] = {
            name: [source.snapshot()] for name, source in self._sources.items()
        }

    def snapshot(self) -> Dict[str, SignedBag]:
        combined: Dict[str, SignedBag] = {}
        for source in self._sources.values():
            combined.update(source.snapshot())
        return combined

    def record_initial(self, warehouse: "WarehouseActor | WarehouseHandle") -> None:
        if self.record_trace:
            self.trace.record_source_state(self.snapshot())
            self.trace.record_view_state(warehouse.view_state())
        self._warehouse = warehouse

    def record_update(self, source_name: str, update: Update) -> int:
        self.serial += 1
        if self.record_trace:
            self.trace.record_event(S_UP, f"U{self.serial}@{source_name} = {update!r}")
            self.trace.record_source_state(self.snapshot())
            self.per_source_states[source_name].append(
                self._sources[source_name].snapshot()
            )
        self.action_log.append(f"update:{source_name}")
        self.last_update_at = self._transport.now()
        return self.serial

    def record_query(self, source_name: str, query_id: int, answer: SignedBag) -> None:
        if self.record_trace:
            self.trace.record_event(
                S_QU,
                f"{source_name}: Q{query_id} -> {answer.total_count()} tuple(s)",
            )
        self.action_log.append(f"answer:{source_name}")

    def record_request(self, request: QueryRequest) -> None:
        self.requests += 1

    def record_refresh(self, client_name: str, serial: int) -> None:
        if self.record_trace:
            self.trace.record_event(C_REF, f"{client_name} refresh #{serial}")
        self.action_log.append(f"refresh:{client_name}")

    def record_warehouse_event(self, kind: str, detail: str, origin: str) -> None:
        if self.record_trace:
            self.trace.record_event(kind, detail)
            self.trace.record_view_state(self._warehouse.view_state())
        self.action_log.append(f"warehouse:{origin}")

    def record_crash(self, detail: str) -> None:
        # No view snapshot: the crashed process exposed nothing new, and
        # the in-memory view it held is gone.
        if self.record_trace:
            self.trace.record_event(W_CRASH, detail)
        self.action_log.append("crash")

    def record_recovery(self, detail: str) -> None:
        # Snapshot the *recovered* view so the checker classifies what
        # readers can now observe (a duplicate of the pre-crash state when
        # recovery is exact — harmless to the checker's dedup).
        if self.record_trace:
            self.trace.record_event(W_REC, detail)
            self.trace.record_view_state(self._warehouse.view_state())
        self.action_log.append("recover")


class RuntimeResult:
    """Everything one concurrent run produced."""

    def __init__(
        self,
        trace: Trace,
        metrics: Dict[str, ActorMetrics],
        channel_stats: Dict[str, ChannelStats],
        updates: int,
        quiesce_latency: float,
        virtual_duration: float,
        wall_seconds: float,
        observations: Dict[str, List[Tuple[float, SignedBag]]],
        final_view: SignedBag,
        crashes: Optional[List[Dict[str, object]]] = None,
        wal_stats: Optional[Dict[str, int]] = None,
        action_log: Optional[List[str]] = None,
        per_source_states: Optional[Dict[str, List[Dict[str, SignedBag]]]] = None,
        shard_info: Optional[Dict[str, object]] = None,
        serving: Optional[Dict[str, object]] = None,
        read_results: Optional[Dict[str, List[object]]] = None,
        read_mismatches: Optional[List[ReadMismatch]] = None,
    ) -> None:
        self.trace = trace
        self.metrics = metrics
        self.channel_stats = channel_stats
        self.updates = updates
        #: Virtual time from the last executed update to quiescence
        #: (0 on the reliable zero-latency transport).
        self.quiesce_latency = quiesce_latency
        #: Total virtual time the run spanned.
        self.virtual_duration = virtual_duration
        #: Real time the run took (throughput denominator only).
        self.wall_seconds = wall_seconds
        #: Per-client ``(virtual time, view contents)`` read samples.
        self.observations = observations
        self.final_view = final_view
        #: One dict per injected crash (event index, mode, snapshot LSN,
        #: replayed record count, re-issued queries, virtual time).
        self.crashes = list(crashes or [])
        #: WAL totals across all incarnations (``None`` when no WAL ran).
        self.wal_stats = wal_stats
        #: Global action order, in kernel action-string form — replayable
        #: on the synchronous kernel (:mod:`repro.kernel.conformance`).
        self.action_log = list(action_log or [])
        #: Per-source state histories for the cut-consistency checker.
        self.per_source_states = dict(per_source_states or {})
        #: Sharded runs only (``None`` otherwise): shard count, partitioner
        #: kind, view assignment, and the final per-shard algorithms.
        self.shard_info = shard_info
        #: Serving-tier summary — ``ServingCache.report()`` plus the
        #: backend read count — when a cache fronted this run.
        self.serving = serving
        #: Per-reader :class:`repro.serving.ReadResult` lists.
        self.read_results = dict(read_results or {})
        #: Verify-mode divergences (must be empty at staleness bound 0).
        self.read_mismatches = list(read_mismatches or [])

    def throughput(self) -> float:
        """Updates fully processed per wall-clock second."""
        if self.wall_seconds <= 0:
            return float("inf")
        return self.updates / self.wall_seconds

    def metrics_table(self) -> List[Dict[str, object]]:
        """Uniform-column rows (renderable with ``render_table``).

        Includes one ``ch:<name>`` row per transport channel, surfacing
        the fault counters (drops, retries, reorders) the
        :class:`FaultyTransport` accumulated alongside the actor counters.
        """
        dicts = {name: self.metrics[name].as_dict() for name in self.metrics}
        for name, stats in self.channel_stats.items():
            dicts[f"ch:{name}"] = {
                "role": "channel",
                "sent": stats.sent,
                "received": stats.delivered,
                "dropped": stats.dropped,
                "retries": stats.retries,
                "reordered": stats.reordered,
            }
        columns: List[str] = []
        for fields in dicts.values():
            for key in fields:
                if key not in columns:
                    columns.append(key)
        rows = []
        for name in sorted(dicts):
            row: Dict[str, object] = {"actor": name}
            row.update({column: dicts[name].get(column, 0) for column in columns})
            rows.append(row)
        return rows

    def __repr__(self) -> str:
        return (
            f"RuntimeResult(updates={self.updates}, events="
            f"{len(self.trace.events)}, quiesce_latency={self.quiesce_latency:g})"
        )


def _normalize_sources(sources: SourcesArg) -> Dict[str, Source]:
    if isinstance(sources, Source):
        return {"source": sources}
    named = dict(sources)
    if not named:
        raise SimulationError("run_concurrent needs at least one source")
    return named


def _normalize_workloads(
    workload: WorkloadArg,
    sources: Mapping[str, Source],
    owners: Mapping[str, str],
) -> Dict[str, List[Update]]:
    """Split a global update stream per owning source (or pass through)."""
    if isinstance(workload, Mapping):
        per_source = {name: list(updates) for name, updates in workload.items()}
        unknown = set(per_source) - set(sources)
        if unknown:
            raise SimulationError(f"workload names unknown sources: {sorted(unknown)}")
    else:
        per_source = {name: [] for name in sources}
        for update in workload:
            owner = owners.get(update.relation)
            if owner is None:
                raise SimulationError(f"no source owns relation {update.relation!r}")
            per_source[owner].append(update)
    for name in sources:
        per_source.setdefault(name, [])
    return per_source


class _Slot:
    """One warehouse actor's fixed wiring plus its current incarnation."""

    __slots__ = ("algorithm", "wiring", "metrics", "obs", "wal_dir", "wal", "handle")

    def __init__(
        self,
        algorithm: object,
        wiring: Dict[str, object],
        metrics: ActorMetrics,
        obs: Optional[object],
        wal_dir: Optional[str],
    ) -> None:
        #: The current incarnation's algorithm (recovery swaps it).
        self.algorithm = algorithm
        #: ``WarehouseActor`` keywords fixing the actor's channels.
        self.wiring = wiring
        #: Counters carried across incarnations.
        self.metrics = metrics
        self.obs = obs
        self.wal_dir = wal_dir
        self.wal: Optional[WriteAheadLog] = None
        self.handle: Optional[WarehouseHandle] = None


class _Tier:
    """The warehouse side of a run: one :class:`_Slot` per shard id.

    The unsharded tier is shard ``0`` alone, with no router; its handle is
    the facade.  The sharded tier adds a router and merges its shards'
    views through a :class:`~repro.sharding.facade.ShardedWarehouse`.
    """

    def __init__(
        self,
        slots: Dict[int, _Slot],
        router: Optional[object] = None,
        plan_info: Optional[Dict[str, object]] = None,
    ) -> None:
        self.slots = slots
        self.router = router
        self.plan_info = plan_info
        #: What clients and the recorder read: the lone handle, or the
        #: merged :class:`~repro.sharding.facade.ShardedWarehouse`.
        self.facade: object = None

    def label(self, shard: int) -> str:
        return "warehouse" if self.router is None else f"shard {shard}"

    def shard_info(self) -> Optional[Dict[str, object]]:
        if self.plan_info is None:
            return None
        algorithms = {shard: slot.algorithm for shard, slot in self.slots.items()}
        return dict(self.plan_info, algorithms=algorithms)


def _single_tier(
    algorithm: object,
    owners: Dict[str, str],
    names: Sequence[str],
    wal_dir: Optional[str],
    obs: Optional[object],
) -> _Tier:
    """The paper's one warehouse, reading every ``"{name}->wh"`` channel."""
    algorithm.bind_owners(owners)
    wiring = {"inboxes": [warehouse_inbox(name) for name in names]}
    metrics = ActorMetrics("warehouse", "warehouse")
    return _Tier({0: _Slot(algorithm, wiring, metrics, obs, wal_dir)})


def _sharded_tier(
    algorithm: object,
    owners: Dict[str, str],
    source_names: Sequence[str],
    client_names: Sequence[str],
    wal_dir: Optional[str],
    obs: Optional[object],
    transport: AsyncTransport,
    shards: int,
    partitioner: object,
) -> _Tier:
    """Per-shard catalogs behind a router; see :mod:`repro.sharding`."""
    from repro.sharding import (
        Partitioner,
        ShardRouter,
        plan_shards,
        router_request_channel,
        shard_channel,
    )

    plan = plan_shards(algorithm, shards, partitioner, owners)
    slots: Dict[int, _Slot] = {}
    for shard in plan.shard_ids:
        plan.algorithms[shard].bind_owners(owners)
        # Inboxes are the router's per-(origin, shard) channels; origins
        # and labels translate them back to the unsharded vocabulary (WAL
        # records and action-log labels stay comparable); outgoing
        # queries detour through the router for id multiplexing.
        labels = {
            shard_channel(name, shard): name for name in [*source_names, *client_names]
        }
        wiring = {
            "inboxes": list(labels),
            "channel_origins": {
                channel: name if name in source_names else None
                for channel, name in labels.items()
            },
            "channel_labels": labels,
            "request_channel": router_request_channel(shard),
        }
        slots[shard] = _Slot(
            plan.algorithms[shard],
            wiring,
            ActorMetrics(f"shard{shard}", "shard", shard=str(shard)),
            obs.shard_view(shard) if obs is not None else None,
            os.path.join(wal_dir, f"shard-{shard}") if wal_dir is not None else None,
        )
    router = ShardRouter(
        transport,
        plan.interest,
        plan.shard_ids,
        source_names=source_names,
        client_names=client_names,
        shard_obs={
            shard: slot.obs for shard, slot in slots.items() if slot.obs is not None
        },
    )
    plan_info = {
        "shards": plan.shards,
        "partitioner": (
            partitioner.kind
            if isinstance(partitioner, Partitioner)
            else str(partitioner)
        ),
        "assignment": dict(plan.assignment),
        "shard_ids": plan.shard_ids,
    }
    return _Tier(slots, router, plan_info)


def run_concurrent(
    sources: SourcesArg,
    algorithm: object,
    workload: WorkloadArg,
    *,
    clients: int = 0,
    client_reads: int = 4,
    faults: Optional[FaultPlan] = None,
    seed: int = 0,
    max_burst: int = 2,
    sizer: Optional[object] = None,
    wal_dir: Optional[str] = None,
    wal_fsync: bool = False,
    snapshot_every: Optional[int] = 8,
    crash: Optional[CrashPolicy] = None,
    obs: Optional[object] = None,
    shards: Optional[int] = None,
    partitioner: object = "hash",
    crash_shard: int = 0,
    record_trace: bool = True,
    cache: Optional[ServingCache] = None,
    read_workload: Optional[Sequence[Tuple[str, Tuple[object, ...]]]] = None,
    verify_reads: bool = False,
    batch_k: int = 1,
    wire_codec: Optional[str] = None,
) -> RuntimeResult:
    """Run sources, warehouse, and clients concurrently to quiescence.

    Parameters
    ----------
    sources:
        One :class:`Source` or a ``name -> Source`` mapping (relation
        names must be globally unique).
    algorithm:
        Any routed :class:`~repro.core.protocol.WarehouseAlgorithm` —
        every registry family, single- or multi-source, including
        :class:`~repro.warehouse.catalog.WarehouseCatalog`.  The harness
        binds the relation-owner map before the run starts.
    workload:
        A global update sequence (routed to owning sources) or a
        ``source name -> updates`` mapping.
    clients:
        Number of concurrent view-reading clients.
    faults:
        A :class:`FaultPlan` to run over the fault-injecting transport;
        ``None`` uses the reliable zero-latency transport.
    seed:
        Master seed: actor pacing and transport faults derive their
        private RNGs from it, so one seed pins the whole execution.
    max_burst:
        Largest number of updates a source applies before yielding.
    sizer:
        Optional message sizer for byte accounting (e.g.
        ``CostRecorder().message_size``).
    wal_dir:
        Directory for a :class:`~repro.durability.wal.WriteAheadLog`; the
        warehouse logs every received message before dispatching it and a
        genesis snapshot is taken before the first event.  A sharded run
        keeps one log per shard in ``wal_dir/shard-<i>``.
    wal_fsync:
        Force ``os.fsync`` on every WAL append (real crash safety, real
        cost — see the durability benchmark).
    snapshot_every:
        Fewest WAL records between compacting snapshots; a snapshot also
        waits until the log since the last one outweighs it (``None``
        disables automatic snapshots).
    crash:
        A :class:`~repro.durability.crash.CrashPolicy`.  Requires
        ``wal_dir``: when it fires, the warehouse actor dies mid-run and
        is rebuilt from snapshot + WAL replay while sources and clients
        keep running on the same transport.
    obs:
        An :class:`repro.obs.instrument.Observability` bundle; when set,
        every actor, the WAL, and recovery emit causal spans and registry
        metrics through it (timestamps use the transport's virtual
        clock), and the run's final accounting is folded in via
        ``obs.finalize``.  Its ``sharded`` flag must match whether
        ``shards`` is set.  ``None`` (the default) costs one ``is None``
        check per hook site.
    shards:
        Partition the warehouse into this many shards behind a
        :class:`~repro.sharding.router.ShardRouter`; ``None`` (the
        default) runs the single warehouse actor.  The result then gains
        ``router`` and ``shard<i>`` metrics rows and ``shard_info``.
    partitioner:
        Sharded runs only: ``"hash"``, ``"range"``, or a
        :class:`~repro.sharding.partition.Partitioner` instance.
    crash_shard:
        The populated shard ``crash`` applies to; the unsharded warehouse
        is shard 0.
    record_trace:
        When ``False``, skip per-event trace/state snapshots (an O(rows)
        cost per event) — action log, serials, and metrics still accrue.
        For benchmarks; consistency checkers need the full trace.
    cache:
        A :class:`repro.serving.ServingCache` fronting the warehouse for
        read traffic.  Every warehouse actor streams each event's dirtied
        view keys into it (precise invalidation); a ``read_workload``
        is served through it by a reader actor.
    read_workload:
        ``(view, key)`` addresses for a :class:`ReadClientActor` —
        usually :func:`repro.workloads.random_gen.zipf_read_workload`
        over the view's serving keys.  Works with ``cache=None`` too
        (direct backend reads, the cache-off baseline).
    verify_reads:
        Compare every cached answer against a direct backend read taken
        atomically with it; divergences land in
        ``RuntimeResult.read_mismatches`` (empty at staleness bound 0).
    batch_k:
        Maximum run of consecutive already-delivered update notifications
        the warehouse coalesces into one atomic
        :class:`~repro.messaging.messages.UpdateBatch` event, answered by
        a single compensating query ``Q<U1,...,Uk>``.  The default 1
        never batches — byte-for-byte the legacy per-update protocol.
        Not supported together with ``shards``.
    wire_codec:
        Name of a :mod:`repro.messaging.wire` codec (``"none"``,
        ``"frame"``, ``"zlib"``, ``"zstd"``).  When set (and not
        ``"none"``), every channel's ``sent_bytes`` counts the real
        framed (optionally compressed) serialization of each message
        instead of the abstract sizer estimate.  Not supported together
        with ``shards``.
    """
    if batch_k < 1:
        raise SimulationError(f"batch_k must be >= 1, got {batch_k}")
    if shards is not None:
        if batch_k > 1:
            raise SimulationError(
                "batch_k > 1 is not supported with sharding yet: the "
                "router splits update runs across shards, so per-shard "
                "coalescing would not match the global action log"
            )
        if wire_codec not in (None, "none"):
            raise SimulationError(
                "wire_codec is not supported with sharding yet: the "
                "router's envelope channels bypass the codec accounting"
            )
    if obs is not None and getattr(obs, "sharded", False) != (shards is not None):
        raise SimulationError(
            "a sharded run needs Observability(sharded=True) so per-shard "
            "series carry the shard label instead of colliding"
            if shards is not None
            else "an unsharded run needs Observability(sharded=False): its "
            "warehouse series carry no shard label"
        )
    if crash is not None and wal_dir is None:
        raise SimulationError("crash injection requires wal_dir= (recovery source)")

    named_sources = _normalize_sources(sources)
    owners = relation_owners(named_sources)
    workloads = _normalize_workloads(workload, named_sources, owners)
    total_updates = sum(len(w) for w in workloads.values())
    source_names = sorted(named_sources)
    client_names = [f"client-{i}" for i in range(clients)]

    codec = create_codec(wire_codec) if wire_codec is not None else None
    inner = InMemoryTransport(sizer=sizer, codec=codec)
    transport: AsyncTransport = (
        FaultyTransport(inner, plan=faults, seed=seed + 0x5EED) if faults else inner
    )
    recorder = _TraceRecorder(named_sources, transport, record_trace=record_trace)
    if obs is not None:
        obs.attach_clock(transport.now)

    if shards is None:
        tier = _single_tier(
            algorithm, owners, source_names + client_names, wal_dir, obs
        )
    else:
        tier = _sharded_tier(
            algorithm,
            owners,
            source_names,
            client_names,
            wal_dir,
            obs,
            transport,
            shards,
            partitioner,
        )
    slots = tier.slots
    if crash is not None and crash_shard not in slots:
        raise SimulationError(
            f"crash_shard={crash_shard} is not a populated shard "
            f"(populated: {sorted(slots)})"
        )
    crash_run = crash.start() if crash is not None else None

    for slot in slots.values():
        if slot.wal_dir is not None:
            slot.wal = WriteAheadLog(
                slot.wal_dir,
                fsync=wal_fsync,
                snapshot_every=snapshot_every,
                obs=slot.obs,
            )
    if cache is not None:
        cache.bind_obs(obs)
        views = [slot.obs for slot in slots.values() if slot.obs is not None]
        if views:
            # The cache is client-side of any router, so its backend-lag
            # annotation is the worst lag across shards (a stale answer
            # may involve any of them).
            cache.attach_lag(lambda: max(view.staleness_lag() for view in views))

    def incarnate(shard: int, **recovered: object) -> WarehouseActor:
        """Build one incarnation of a shard's warehouse actor."""
        slot = slots[shard]
        return WarehouseActor(
            slot.algorithm,
            transport,
            owners=owners,
            recorder=recorder,
            wal=slot.wal,
            crash_run=crash_run if shard == crash_shard else None,
            metrics=slot.metrics,
            obs=slot.obs,
            cache=cache,
            batch_k=batch_k,
            **slot.wiring,
            **recovered,
        )

    for shard, slot in slots.items():
        slot.handle = WarehouseHandle(incarnate(shard))
        if slot.wal is not None:
            # Genesis snapshot: recovery is possible even before the first
            # automatic snapshot cadence fires.
            slot.wal.snapshot(slot.algorithm)
    if tier.router is None:
        tier.facade = slots[0].handle
        serving_algorithm = algorithm
    else:
        from repro.sharding import ShardedWarehouse

        tier.facade = serving_algorithm = ShardedWarehouse(
            {shard: slot.handle for shard, slot in slots.items()}
        )
    recorder.record_initial(tier.facade)

    source_actors = [
        SourceActor(
            name,
            named_sources[name],
            transport,
            workloads[name],
            recorder,
            seed=seed + 1 + index,
            max_burst=max_burst,
            obs=obs,
        )
        for index, name in enumerate(source_names)
    ]
    client_actors = [
        ClientActor(
            name,
            transport,
            tier.facade,
            recorder,
            reads=client_reads,
            seed=seed + 101 + i,
            obs=obs,
        )
        for i, name in enumerate(client_names)
    ]
    reader_actors: List[ReadClientActor] = []
    reader = None
    if read_workload is not None:
        # Reads go through the facade so they survive crash-and-recover
        # incarnation swaps, like every other reader in the system.
        reader = reader_for(serving_algorithm, state_fn=tier.facade.view_state)
        reader_actors.append(
            ReadClientActor(
                "reader-0",
                cache,
                reader,
                read_workload,
                verify=verify_reads,
                metrics=ActorMetrics("reader-0", "reader"),
            )
        )

    crashes: List[Dict[str, object]] = []
    wal_totals = {"records": 0, "snapshots": 0}

    def _restart(shard: int, fault: WarehouseCrashed) -> None:
        """Rebuild one dead warehouse actor from its own WAL."""
        slot = slots[shard]
        label = tier.label(shard)
        recorder.record_crash(
            f"{label} crashed at event {fault.event_index} "
            f"(mode={fault.mode}, drop_sends={fault.drop_sends})"
        )
        wal_totals["records"] += slot.wal.appended
        wal_totals["snapshots"] += slot.wal.snapshots_taken
        slot.wal.close()
        if slot.obs is not None:
            slot.obs.crash(fault.event_index, fault.mode, fault.drop_sends)
        sharded = tier.router is not None
        if sharded:
            # Invalidate BEFORE the new incarnation re-issues: any answer
            # still addressed to a pre-crash global id must die at the
            # router, never be translated into the new id space.
            invalidated = tier.router.invalidate_shard(shard)
        recovered = recover(slot.wal_dir, obs=slot.obs)
        recovered.algorithm.bind_owners(owners)
        slot.algorithm = recovered.algorithm
        slot.wal = WriteAheadLog(
            slot.wal_dir, fsync=wal_fsync, snapshot_every=snapshot_every, obs=slot.obs
        )
        # Fold the replayed suffix into a fresh snapshot so a second crash
        # recovers from here, not from before the first one.
        slot.wal.snapshot(recovered.algorithm)
        slot.metrics.bump("crashes")
        slot.handle.actor = incarnate(
            shard, reissue=recovered.reissue, event_index=fault.event_index
        )
        info: Dict[str, object] = {"shard": shard} if sharded else {}
        info.update(
            event_index=fault.event_index,
            mode=fault.mode,
            drop_sends=fault.drop_sends,
            snapshot_lsn=recovered.snapshot_lsn,
            replayed=recovered.replayed,
            reissued=len(recovered.reissue),
        )
        detail = (
            f"recovered from snapshot lsn {recovered.snapshot_lsn} + "
            f"{recovered.replayed} replayed record(s), "
            f"{len(recovered.reissue)} re-issued query(ies)"
        )
        if sharded:
            info["routes_invalidated"] = invalidated
            detail = f"{label} {detail}, {invalidated} router route(s) invalidated"
        info["virtual_time"] = transport.now()
        crashes.append(info)
        recorder.record_recovery(detail)

    try:
        started = time.perf_counter()
        asyncio.run(
            _drive(
                transport,
                tier,
                source_actors,
                client_actors + reader_actors,
                restart=_restart if crash_run is not None else None,
            )
        )
        wall_seconds = time.perf_counter() - started
    finally:
        # Also on failure: a log left open keeps its directory locked.
        for slot in slots.values():
            if slot.wal is not None:
                wal_totals["records"] += slot.wal.appended
                wal_totals["snapshots"] += slot.wal.snapshots_taken
                slot.wal.close()
    wal_stats = None
    if wal_dir is not None:
        wal_stats = dict(
            wal_totals, last_lsn=max(slot.wal.last_lsn for slot in slots.values())
        )

    laggards = [
        tier.label(shard)
        for shard, slot in slots.items()
        if not slot.handle.is_quiescent()
    ]
    if laggards:
        raise SimulationError(
            f"algorithm {getattr(algorithm, 'name', algorithm)!r} failed to "
            f"quiesce after the workload drained ({', '.join(laggards)})"
        )
    if tier.router is not None and tier.router.pending_routes:
        raise SimulationError(
            f"router still holds {tier.router.pending_routes} live route(s) at "
            f"quiescence — a query answer was lost"
        )

    metrics = {actor.metrics.name: actor.metrics for actor in source_actors}
    if tier.router is not None:
        metrics["router"] = tier.router.metrics
    for slot in slots.values():
        metrics[slot.metrics.name] = slot.metrics
    for actor in client_actors + reader_actors:
        metrics[actor.name] = actor.metrics

    result = RuntimeResult(
        trace=recorder.trace,
        metrics=metrics,
        channel_stats=transport.stats(),
        updates=total_updates,
        quiesce_latency=max(0.0, transport.now() - recorder.last_update_at),
        virtual_duration=transport.now(),
        wall_seconds=wall_seconds,
        observations={c.name: c.observations for c in client_actors},
        final_view=tier.facade.view_state(),
        crashes=crashes,
        wal_stats=wal_stats,
        action_log=recorder.action_log,
        per_source_states=recorder.per_source_states,
        shard_info=tier.shard_info(),
        serving=serving_report(cache, reader),
        read_results={r.name: r.results for r in reader_actors},
        read_mismatches=[m for r in reader_actors for m in r.mismatches],
    )
    if obs is not None:
        obs.finalize(result)
    return result


async def _drive(
    transport: AsyncTransport,
    tier: _Tier,
    source_actors: Sequence[SourceActor],
    client_actors: Sequence[object],
    restart: Optional[object] = None,
) -> None:
    tasks = [asyncio.ensure_future(actor.run()) for actor in source_actors]
    if tier.router is not None:
        tasks.append(asyncio.ensure_future(tier.router.run()))

    async def _supervise(shard: int) -> None:
        # Each iteration is one incarnation of this shard's warehouse.  A
        # crash rebuilds the actor (synchronously — no messages are lost,
        # they wait in the transport) and re-enters its run loop while
        # every other actor keeps running; a clean return means the
        # transport closed.
        handle = tier.slots[shard].handle
        while True:
            try:
                await handle.actor.run()
                return
            except WarehouseCrashed as fault:
                if restart is None:
                    raise
                restart(shard, fault)

    tasks += [asyncio.ensure_future(_supervise(shard)) for shard in tier.slots]
    client_tasks = [asyncio.ensure_future(actor.run()) for actor in client_actors]

    try:
        # Clients perform a bounded number of reads; wait them out first.
        if client_tasks:
            await asyncio.gather(*client_tasks)
        # Then poll for global quiescence: workloads drained, channels
        # empty, every warehouse actor holding no deferred work.  Every
        # poll iteration yields, letting all ready actors take a step.
        for _ in range(_MAX_POLLS):
            await asyncio.sleep(0)
            if any(task.done() for task in tasks):
                break  # an actor died early; surface its exception below
            if (
                all(actor.workload_done for actor in source_actors)
                and transport.total_pending() == 0
                and tier.facade.is_quiescent()
            ):
                break
        else:
            raise SimulationError(
                f"runtime did not quiesce within {_MAX_POLLS} polls "
                f"(pending={transport.total_pending()})"
            )
    finally:
        transport.close()
        outcome = await asyncio.gather(*tasks, *client_tasks, return_exceptions=True)
        errors = [result for result in outcome if isinstance(result, Exception)]
        if errors:
            # A dead warehouse closes the run under the other actors, who
            # then fail on the closed transport: raise the root cause.
            raise next(
                (error for error in errors if not isinstance(error, TransportClosed)),
                errors[0],
            )
