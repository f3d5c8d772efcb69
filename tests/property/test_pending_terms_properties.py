"""Property tests: indexed compensation equals the term-by-term reference.

:class:`~repro.core.compensation.PendingTerms` files in-flight terms with
one free operand as signed maps of bound tuples and joins each update
against them, instead of substituting the update into every in-flight
query and evaluating the fully bound results.  Both must give the same
thing: the same COLLECT value, and the same remote terms to ship, in the
same order.  :class:`ReferencePending` is the term-by-term loop, kept
here as the oracle.

Two levels are checked:

- one compensation step, over random in-flight queries with random
  per-query ``seen`` prefixes (BatchECA's case) and batches of one to four
  updates, on two- and three-relation views, a self-join view and views
  whose conditions hold ``<`` and ``OR`` (no hash key there);
- whole runs on the synchronous kernel: an ECA (buffered or not) or a
  BatchECA against a twin whose compensation runs through the reference,
  with kernel batches of one to four updates and, at a random step, the
  index rebuilt by ``restore_pending_state`` from a codec round trip.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple
from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.batch as batch_module
import repro.core.eca as eca_module
from repro.core.batch import BatchECA
from repro.core.compensation import PendingTerms, backdate
from repro.core.eca import ECA
from repro.durability.codec import decode_value, encode_value
from repro.kernel.sync import SyncKernel
from repro.relational.bag import SignedBag
from repro.relational.conditions import Attr, Comparison
from repro.relational.engine import evaluate_view
from repro.relational.expressions import BoundOperand, Query, Term
from repro.relational.schema import RelationSchema
from repro.relational.tuples import SignedTuple
from repro.relational.views import View
from repro.source.memory import MemorySource
from repro.source.updates import Update, delete, insert
from repro.workloads.random_gen import random_workload

DOMAIN = 3

R1 = RelationSchema("r1", ("W", "X"))
R2 = RelationSchema("r2", ("X", "Y"))
R3 = RelationSchema("r3", ("Y", "Z"))
EMP = RelationSchema("emp", ("name", "dept"))
DEPT = RelationSchema("dept", ("id", "floor"))


def _cmp(left: str, op: str, right: str) -> Comparison:
    return Comparison(Attr(left), op, Attr(right))


def _views() -> Dict[str, Tuple[View, List[RelationSchema]]]:
    """name -> (view, the base relations a source must hold)."""
    e1, e2 = EMP.aliased("e1"), EMP.aliased("e2")
    return {
        "two": (View.natural_join("two", [R1, R2], ["W", "Y"]), [R1, R2]),
        "three": (View.natural_join("three", [R1, R2, R3], ["W", "Z"]), [R1, R2, R3]),
        "self-join": (
            View(
                "self-join",
                [e1, e2, DEPT],
                ["e1.name", "e2.name", "dept.floor"],
                _cmp("e1.dept", "=", "e2.dept") & _cmp("e2.dept", "=", "dept.id"),
            ),
            [EMP, DEPT],
        ),
        "less-than": (
            View("less-than", [R1, R2], ["r1.W", "r2.Y"], _cmp("r1.X", "<", "r2.X")),
            [R1, R2],
        ),
        "or": (
            View(
                "or",
                [R1, R2, R3],
                ["r1.W", "r3.Z"],
                _cmp("r1.X", "=", "r2.X")
                & (_cmp("r2.Y", "<", "r3.Y") | _cmp("r1.W", "=", "r3.Z")),
            ),
            [R1, R2, R3],
        ),
    }


VIEWS = _views()


class ReferencePending:
    """The term-by-term reference for :class:`PendingTerms`.

    Substitutes every update into every filed query, backdates the result
    against the rest of the batch, and evaluates whatever came out fully
    bound.
    """

    def __init__(self) -> None:
        self.queries: Dict[object, Tuple[Query, Optional[int]]] = {}

    @classmethod
    def of(cls, in_flight) -> "ReferencePending":
        index = cls()
        for key, (query, seen) in enumerate(in_flight):
            index.add(key, query, seen)
        return index

    def add(self, key, query: Query, seen: Optional[int] = None) -> None:
        self.queries[key] = (query, seen)

    def discard(self, key, query: Query) -> None:
        del self.queries[key]

    def compensate(self, batch: Sequence[Update]) -> Tuple[SignedBag, Query]:
        terms: List[Term] = []
        for query, seen in self.queries.values():
            steps = batch if seen is None else batch[:seen]
            for index, update in enumerate(steps):
                substituted = query.substitute(update.relation, update.signed_tuple())
                terms += (-backdate(substituted, batch[index + 1 :])).terms
        correction = Query(terms)
        return correction.fully_bound_terms().evaluate({}), correction.source_terms()


# --------------------------------------------------------------------- #
# One compensation step
# --------------------------------------------------------------------- #

values = st.integers(0, DOMAIN - 1)
signs = st.sampled_from([1, -1])


def _signed_row(arity: int):
    return st.builds(SignedTuple, st.tuples(*[values] * arity), signs)


@st.composite
def _pending_term(draw, term: Term) -> Term:
    operands = term.operands
    bound = draw(st.lists(st.booleans(), min_size=len(operands), max_size=len(operands)))
    if all(bound):
        # In-flight (shipped) terms always read at least one relation.
        bound[draw(st.integers(0, len(operands) - 1))] = False
    chosen = [
        BoundOperand(op.schema, draw(_signed_row(op.schema.arity))) if is_bound else op
        for op, is_bound in zip(operands, bound)
    ]
    coefficient = draw(signs)
    if draw(st.booleans()):
        return Term(chosen, term.projection, term.condition, coefficient, shape=term.shape)
    # A freshly resolved shape, as terms decoded from a log have.
    return Term(chosen, term.projection, term.condition, coefficient)


@st.composite
def _update(draw, bases: List[RelationSchema]) -> Update:
    schema = draw(st.sampled_from(bases))
    row = draw(st.tuples(*[values] * schema.arity))
    return (insert if draw(st.booleans()) else delete)(schema.name, row)


@st.composite
def compensation_steps(draw):
    view, bases = VIEWS[draw(st.sampled_from(sorted(VIEWS)))]
    term = view.as_query().terms[0]
    in_flight = [
        (
            Query(draw(st.lists(_pending_term(term), min_size=1, max_size=3))),
            draw(st.none() | st.integers(0, 4)),
        )
        for _ in range(draw(st.integers(0, 6)))
    ]
    batch = draw(st.lists(_update(bases), min_size=1, max_size=4))
    return in_flight, batch


@settings(max_examples=300, deadline=None)
@given(compensation_steps())
def test_index_matches_the_term_by_term_reference(step):
    in_flight, batch = step
    local, correction = PendingTerms.of(in_flight).compensate(batch)
    expected_local, expected_remote = ReferencePending.of(in_flight).compensate(batch)
    # ECA's dispatch evaluates the correction's own fully bound terms too.
    local.add_bag(correction.fully_bound_terms().evaluate({}))
    assert local == expected_local
    assert correction.source_terms().terms == expected_remote.terms


def test_filing_and_discarding_leaves_an_empty_index():
    view, _ = VIEWS["three"]
    term = view.as_query().terms[0]
    r1 = BoundOperand(R1, SignedTuple((1, 2)))
    r3 = BoundOperand(R3, SignedTuple((2, 0)))
    _, r2, free_r3 = term.operands
    query = Query(
        [
            # Two free operands: filed whole.
            Term([r1, r2, free_r3], term.projection, term.condition, shape=term.shape),
            # One free operand: filed in a family.
            Term([r1, r2, r3], term.projection, term.condition, -1, shape=term.shape),
        ]
    )
    index = PendingTerms()
    index.add(7, query)
    index.discard(7, query)
    local, correction = index.compensate([insert("r2", (2, 2)), insert("r1", (0, 2))])
    assert local.is_empty() and correction.is_empty()


# --------------------------------------------------------------------- #
# Whole runs against a reference twin
# --------------------------------------------------------------------- #


def _reference_patches():
    return (
        patch.object(eca_module, "PendingTerms", ReferencePending),
        patch.object(batch_module, "PendingTerms", ReferencePending),
    )


def _under_reference(fn, *args):
    first, second = _reference_patches()
    with first, second:
        return fn(*args)


def _build(view, bases, initial, factory):
    source = MemorySource(bases, initial)
    return source, factory(view, evaluate_view(view, source.snapshot()))


def _same_state(indexed, reference) -> None:
    assert indexed.uqs == reference.uqs
    assert indexed.view_state() == reference.view_state()
    assert indexed.collect == reference.collect


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(VIEWS)),
    st.integers(0, 10_000),
    st.sampled_from(["eca", "eca-unbuffered", "batch-eca"]),
    st.integers(1, 4),
    st.data(),
)
def test_runs_match_a_reference_twin(view_name, seed, family, batch_k, data):
    view, bases = VIEWS[view_name]
    initial = {
        schema.name: data.draw(
            st.lists(st.tuples(*[values] * schema.arity), max_size=4, unique=True)
        )
        for schema in bases
    }
    workload = random_workload(bases, 12, seed=seed, initial=initial, domain=DOMAIN)
    if family == "batch-eca":
        size = data.draw(st.integers(1, 4))

        def factory(v, iv):
            return BatchECA(v, iv, batch_size=size)
    else:
        buffer = family == "eca"

        def factory(v, iv):
            return ECA(v, iv, buffer_answers=buffer)

    source, indexed = _build(view, bases, initial, factory)
    twin_source, reference = _under_reference(_build, view, bases, initial, factory)
    kernel = SyncKernel({"s": source}, indexed, workload, batch_k=batch_k)
    twin = SyncKernel({"s": twin_source}, reference, workload, batch_k=batch_k)
    restore_at = data.draw(st.integers(0, 40))
    for step in range(200):
        actions = kernel.available_actions()
        if not actions:
            break
        action = actions[data.draw(st.integers(0, len(actions) - 1))]
        kernel.step(action)
        _under_reference(twin.step, action)
        _same_state(indexed, reference)
        if step == restore_at:
            # Rebuild the index from the decoded (freshly resolved) UQS.
            encoded = json.dumps(encode_value(indexed.pending_state()))
            indexed.restore_pending_state(decode_value(json.loads(encoded)))
    assert kernel.trace.view_states == twin.trace.view_states
