"""The four benchmark workloads, built from a seed with the public API.

Each builder returns a :class:`Setup`: fresh sources, a fresh
:class:`~repro.warehouse.catalog.WarehouseCatalog`, the pre-generated
update stream, and the ``run_concurrent`` keyword arguments.  Sources and
algorithms are mutated by a run, so every run builds a new ``Setup``;
the same ``(workload, seed)`` always builds the same inputs.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Tuple

from repro.core.registry import create_algorithm
from repro.relational.engine import evaluate_view
from repro.relational.schema import RelationSchema
from repro.relational.views import View
from repro.serving import ServingCache, reader_for
from repro.source.memory import MemorySource
from repro.source.updates import Update, delete, insert
from repro.warehouse.catalog import WarehouseCatalog
from repro.workloads.random_gen import random_workload, zipf_read_workload

#: Every workload ships real frame bytes, so ``sent_bytes`` is the paper's B.
WIRE_CODEC = "frame"
#: ``run_concurrent``'s scheduling seed (source burst sizes, client think
#: times) is part of each workload's definition, not of its inputs: under
#: ``batch_k=8`` the burst sizes decide batch composition, and letting
#: ``--seed`` move them swings the work of one run by a factor of three.
SCHEDULE_SEED = 0


class Setup:
    """Inputs of one run: sources, warehouse, updates and run options."""

    def __init__(
        self,
        sources: Dict[str, MemorySource],
        catalog: WarehouseCatalog,
        updates: List[Update],
        options: Dict[str, object],
        uses_wal: bool = False,
    ) -> None:
        self.sources = sources
        self.catalog = catalog
        self.updates = updates
        self.options = options
        #: The runner supplies a fresh ``wal_dir`` per run when set.
        self.uses_wal = uses_wal

    def relation_views(self) -> Dict[str, Tuple[str, ...]]:
        """``relation -> names of the member views that read it``."""
        out: Dict[str, List[str]] = {}
        for name, algorithm in self.catalog.algorithms.items():
            for relation in algorithm.view.relation_names:
                out.setdefault(relation, []).append(name)
        return {relation: tuple(names) for relation, names in out.items()}


def _fanout(
    seed: int,
    updates_per_source: int,
    algorithm: str,
    n_sources: int = 3,
) -> Tuple[Dict[str, MemorySource], WarehouseCatalog, List[Update]]:
    """``repro runtime``'s fan-out topology: one ``r1 ⋈ r2`` view per source.

    Source ``s<i>`` owns ``s<i>r1(W, X)`` (key W) and ``s<i>r2(X, Y)``
    (key Y); view ``V<i>`` projects ``(W, Y)``.  The views share one
    catalog with compensation sharing off.
    """
    sources: Dict[str, MemorySource] = {}
    algorithms = {}
    updates: List[Update] = []
    for index in range(n_sources):
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
        algorithms[f"V{index}"] = create_algorithm(
            algorithm, view, evaluate_view(view, source.snapshot())
        )
        updates.extend(
            random_workload(
                schemas,
                updates_per_source,
                seed=seed * 1000 + index,
                initial=initial,
                respect_keys=True,
            )
        )
    return sources, WarehouseCatalog(algorithms, share_compensation=False), updates


def eca_uqs(seed: int) -> Setup:
    sources, catalog, updates = _fanout(seed, 300, "eca")
    return Setup(
        sources,
        catalog,
        updates,
        {"clients": 4, "client_reads": 4, "batch_k": 1},
    )


def eca_batch8(seed: int) -> Setup:
    # Twelve independent views, so one run's work is a sum of twelve
    # heavy-tailed per-view recursions rather than three.
    sources, catalog, updates = _fanout(seed, 40, "eca", n_sources=12)
    return Setup(
        sources,
        catalog,
        updates,
        {"clients": 4, "client_reads": 4, "batch_k": 8},
    )


def wal_key(seed: int) -> Setup:
    sources, catalog, updates = _fanout(seed, 100, "eca-key")
    return Setup(
        sources,
        catalog,
        updates,
        {"clients": 4, "client_reads": 4, "batch_k": 1, "wal_fsync": False},
        uses_wal=True,
    )


#: ``read-storm`` view projections, cycled over its eight views.
_STORM_PROJECTIONS = (
    ["W", "Y"],
    ["W", "r1.X", "Y"],
    ["r2.X", "Y"],
    ["W", "r1.X"],
)
_STORM_ROWS = 40
_STORM_VIEWS = 8
_STORM_UPDATES = 100
_STORM_READS = 6_000


def _storm_updates(seed: int, initial: Dict[str, List[tuple]]) -> List[Update]:
    """Key replacements: delete a random row, insert a fresh key, same ``X``.

    Every pair keeps each join value's row count, so the views keep their
    sizes, and a backend read (which scans the merged view) costs the
    same whatever the seed; the seed picks which rows are replaced.
    """
    rng = random.Random(seed)
    live = {name: list(rows) for name, rows in initial.items()}
    next_key = {"r1": _STORM_ROWS, "r2": 1000 + _STORM_ROWS}
    out: List[Update] = []
    for _ in range(_STORM_UPDATES // 2):
        relation = rng.choice(("r1", "r2"))
        rows = live[relation]
        old = rows.pop(rng.randrange(len(rows)))
        key = next_key[relation]
        next_key[relation] += 1
        new = (key, old[1]) if relation == "r1" else (old[0], key)
        rows.append(new)
        out += [delete(relation, old), insert(relation, new)]
    return out


def read_storm(seed: int) -> Setup:
    schemas = [
        RelationSchema("r1", ("W", "X"), key=("W",)),
        RelationSchema("r2", ("X", "Y"), key=("Y",)),
    ]
    initial = {
        "r1": [(i, i % 7) for i in range(_STORM_ROWS)],
        "r2": [(i % 7, 1000 + i) for i in range(_STORM_ROWS)],
    }
    source = MemorySource(schemas, initial)
    snapshot = source.snapshot()
    algorithms = {}
    for index in range(_STORM_VIEWS):
        projection = _STORM_PROJECTIONS[index % len(_STORM_PROJECTIONS)]
        view = View.natural_join(f"V{index}", schemas, projection)
        algorithms[f"V{index}"] = create_algorithm(
            "eca", view, evaluate_view(view, snapshot)
        )
    catalog = WarehouseCatalog(algorithms, share_compensation=True)
    keys = reader_for(catalog).current_keys()
    reads = zipf_read_workload(keys, _STORM_READS, theta=1.0, seed=seed)
    cache = ServingCache(capacity=64, staleness_bound=2, policy="lru")
    return Setup(
        {"source": source},
        catalog,
        _storm_updates(seed, initial),
        {"clients": 0, "batch_k": 1, "cache": cache, "read_workload": reads},
    )


#: Workload name -> builder, in the order ``BENCHMARK.json`` lists them.
WORKLOADS: Dict[str, Callable[[int], Setup]] = {
    "eca-uqs": eca_uqs,
    "eca-batch8": eca_batch8,
    "wal-key": wal_key,
    "read-storm": read_storm,
}
