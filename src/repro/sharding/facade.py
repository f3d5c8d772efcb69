"""``ShardedWarehouse``: the merged view of a partitioned warehouse.

A sharded :func:`~repro.runtime.harness.run_concurrent` keeps sources
and clients byte-for-byte identical to the unsharded runtime.  Between
them and the data sit a :class:`~repro.sharding.router.ShardRouter` and
one warehouse actor per populated shard; this facade merges the
per-shard tagged views back into one global view for clients, the trace
recorder, the serving tier, and the consistency checkers.

Correctness model (see ``docs/SHARDING.md``): each member view lives on
exactly one shard and every message stream it consumes is FIFO per
``(origin, shard)`` channel, so per-view maintenance is *exactly* the
unsharded protocol — compensation, dedup, and recovery arguments carry
over shard-locally.  Global guarantees follow by composition: the merged
view is the tagged union of independently-correct member views.
"""

from __future__ import annotations

from typing import Dict

from repro.relational.bag import SignedBag
from repro.runtime.actors import WarehouseHandle


class ShardedWarehouse:
    """Merged facade over every shard's current incarnation.

    Plays the :class:`~repro.runtime.actors.WarehouseHandle` part for
    clients and the trace recorder: ``view_state()`` is the tagged union
    of the per-shard catalogs (each already tags rows with the member
    view's name, so the union is exactly what one unsharded catalog over
    the same views would expose), and quiescence means *every* shard is
    quiescent.  ``algorithms`` lists every member view like a catalog
    does, so :func:`repro.serving.reader_for` reads through it.
    """

    __slots__ = ("handles",)

    def __init__(self, handles: Dict[int, WarehouseHandle]) -> None:
        self.handles = dict(handles)

    def view_state(self) -> SignedBag:
        merged = SignedBag()
        for shard in sorted(self.handles):
            merged.add_bag(self.handles[shard].view_state())
        return merged

    def is_quiescent(self) -> bool:
        return all(handle.is_quiescent() for handle in self.handles.values())

    @property
    def algorithms(self) -> Dict[str, object]:
        """Every member view, across the shards' current catalogs."""
        return {
            name: member
            for shard in sorted(self.handles)
            for name, member in self.handles[shard].actor.algorithm.algorithms.items()
        }
