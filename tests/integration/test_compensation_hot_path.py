"""Invariants of the compensation hot path, pinned without timing.

Compensation is symbolic: ``Q_i = V<U_i> - sum Q_j<U_i>`` is built term by
term.  Two properties of that path are pinned here.

**Golden shipped queries.**  Any change to how terms are built, negated
or substituted must leave the shipped queries *byte-identical* — same
terms, same order, same coefficients — or the paper's M/B accounting
moves.  A SHA-256 over the codec encoding of every routed
``QueryRequest`` of a seeded 3-source ``run_concurrent`` ECA run, plus
each view's final contents, is pinned at ``batch_k=1`` and
``batch_k=4``.  If a change is *meant* to alter the shipped queries (a
query normal form that cancels terms, say), recompute the digests with
``_digest`` and say why in the change log; otherwise a mismatch is a
regression.  At ``batch_k=8`` no shipped query may hold a term together
with its negation, and none may outgrow the batch.

**Work follows the updates, not the UQS depth.**  Terms derived by
substitution and negation share their parent's
:class:`~repro.relational.expressions.TermShape`, so the number of
``ProductSchema`` resolutions is bounded by the views.  And compensating
terms that come out fully bound are never built: ECA joins each update
against its indexed in-flight terms, so a run builds a bounded number of
terms per update however deep the UQS grows.
"""

from __future__ import annotations

import hashlib
import json

import pytest

import repro.runtime.actors as actors
from repro.core.eca import ECA
from repro.durability.codec import encode_value
from repro.relational.engine import evaluate_view
from repro.relational.expressions import Term
from repro.relational.schema import ProductSchema, RelationSchema
from repro.relational.views import View
from repro.runtime import run_concurrent
from repro.source.memory import MemorySource
from repro.warehouse.catalog import WarehouseCatalog
from repro.workloads.random_gen import random_workload

N_SOURCES = 3
SEED = 5

#: ``batch_k -> updates per source``.  Sources run far ahead of the
#: warehouse, so UQS compensation is deep; at ``batch_k=4`` each batch
#: compensates every in-flight query against all four members, and the
#: run's cost grows steeply with length, hence the shorter stream.
UPDATES_PER_SOURCE = {1: 100, 4: 24}

#: ``batch_k -> (requests shipped, sha256 of requests + final views)``.
GOLDEN = {
    1: (300, "51bf2c5459d82a5f205813f3ffafebb2ea8c4bb4daea5397487aa727a5ed2ec2"),
    4: (26, "7ebad23688dc5a46cc5a97e0667be2da9ea1743e56433161d50b1cd2440a5678"),
}


def _fanout(updates_per_source):
    """Three sources, each owning ``r1(W, X) ⋈ r2(X, Y)`` and one view."""
    sources = {}
    algorithms = {}
    updates = []
    for index in range(N_SOURCES):
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
        updates.extend(
            random_workload(
                schemas,
                updates_per_source,
                seed=SEED * 1000 + index,
                initial=initial,
                respect_keys=True,
            )
        )
    return sources, WarehouseCatalog(algorithms, share_compensation=False), updates


def _run(monkeypatch, updates_per_source, batch_k):
    """Run the seeded workload; return its routed requests and catalog."""
    shipped = []
    original = actors.dispatch_event

    def recording(algorithm, origin, message, *args, **kwargs):
        result = original(algorithm, origin, message, *args, **kwargs)
        shipped.extend(result[2])
        return result

    monkeypatch.setattr(actors, "dispatch_event", recording)
    sources, catalog, updates = _fanout(updates_per_source)
    run_concurrent(
        sources,
        catalog,
        updates,
        clients=0,
        batch_k=batch_k,
        seed=SEED,
        record_trace=False,
    )
    return shipped, catalog


def _digest(monkeypatch, batch_k):
    """Run the seeded workload; return (requests shipped, digest)."""
    shipped, catalog = _run(monkeypatch, UPDATES_PER_SOURCE[batch_k], batch_k)
    requests = [
        [destination, encode_value(request)] for destination, request in shipped
    ]
    views = {
        name: encode_value(algorithm.mv)
        for name, algorithm in sorted(catalog.algorithms.items())
    }
    payload = json.dumps({"requests": requests, "views": views}, sort_keys=True)
    return len(shipped), hashlib.sha256(payload.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("batch_k", sorted(GOLDEN))
def test_shipped_queries_and_final_views_are_byte_identical(monkeypatch, batch_k):
    assert _digest(monkeypatch, batch_k) == GOLDEN[batch_k]


def test_batched_queries_ship_no_cancelling_pairs(monkeypatch):
    """At ``batch_k=8`` no shipped query holds a term and its negation.

    Compensating an in-flight query ``P`` against a whole batch is
    ``-sum_i D(P<U_i>, U_{i+1..k})``; spelling it ``D(P, batch) - P``
    ships ``+P`` and ``-P`` side by side, and those pairs come back in
    every later compensation.  Over two-relation views every compensating
    term binds both relations and is evaluated at the warehouse, so a
    shipped query holds at most the batch's own ``k`` delta terms.
    """
    batch_k = 8
    shipped, _ = _run(monkeypatch, 24, batch_k)
    assert shipped
    for _destination, request in shipped:
        terms = set(request.query.terms)
        assert not any(term.negate() in terms for term in terms), request
        assert len(request.query.terms) <= batch_k


def test_product_schemas_scale_with_views_not_terms(monkeypatch):
    """A 3-source x 100-update run resolves a handful of products in all,
    and builds terms in proportion to its updates."""
    calls = {"ProductSchema": 0, "Term": 0}

    def counting(owner, name):
        original = getattr(owner, "__init__")

        def init(self, *args, **kwargs):
            calls[name] += 1
            original(self, *args, **kwargs)

        monkeypatch.setattr(owner, "__init__", init)

    counting(ProductSchema, "ProductSchema")
    counting(Term, "Term")
    sources, catalog, updates = _fanout(100)
    run_concurrent(
        sources, catalog, updates, clients=0, seed=SEED, record_trace=False
    )
    views = len(catalog.algorithms)
    # The UQS runs deep (up to 83 in-flight queries per view), yet each
    # update builds only its own delta term: compensation builds none ...
    assert calls["Term"] <= 2 * len(updates)
    # ... and every term shares the shape its view resolved once.
    assert calls["ProductSchema"] <= 2 * views
