"""Property tests for the columnar batch layer.

Two contracts the columnar refactor must honor on *all* inputs:

1. Every batch operator (`batch_select`, `batch_project`, `batch_join`,
   `batch_union`, `batch_negate`) is extensionally equal to the obvious
   per-tuple reference computed over ``SignedBag`` items — consolidation
   order and internal row layout may differ, but ``to_bag()`` may not.
2. The columnar round trip is lossless: ``SignedBag.to_columns`` /
   ``SignedBag.from_columns`` compose to the identity, for any signed
   bag, and the reference row-at-a-time evaluator (`Query.evaluate`)
   agrees with the batched engine on whole queries (the same divergence
   check the CI ``bench-smoke`` job runs on the measured workload).

The batch-k=1 / identity-codec legacy-equivalence properties live at the
bottom: a ``run_concurrent`` at ``batch_k=1`` and ``wire_codec=None``
must produce byte-for-byte the trace, action log, and byte accounting
the pre-batching runtime produced (asserted structurally: no UpdateBatch
ever appears, no ``@k`` action suffix, sizer-based byte counts).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.eca import ECA
from repro.kernel.conformance import replay_concurrent
from repro.relational.bag import SignedBag
from repro.relational.batch_ops import (
    batch_join,
    batch_negate,
    batch_project,
    batch_select,
    batch_union,
)
from repro.relational.columns import ColumnBatch
from repro.relational.conditions import Attr, Comparison, Const
from repro.relational.engine import evaluate_query
from repro.relational.schema import RelationSchema
from repro.relational.views import View
from repro.runtime.harness import run_concurrent
from repro.source.memory import MemorySource
from repro.source.updates import insert

rows2 = st.tuples(st.integers(0, 3), st.integers(0, 3))
counts = st.integers(-2, 2).filter(bool)
signed_relation = st.lists(st.tuples(rows2, counts), max_size=6)


def to_bag(pairs):
    bag = SignedBag()
    for row, count in pairs:
        bag.add(row, count)
    return bag


def resolve2(name):
    return {"A": 0, "B": 1}[name]


# --------------------------------------------------------------------- #
# Round trip
# --------------------------------------------------------------------- #


@settings(max_examples=60, deadline=None)
@given(signed_relation)
def test_columns_round_trip_is_identity(pairs):
    bag = to_bag(pairs)
    columns, cts = bag.to_columns(width=2)
    assert SignedBag.from_columns(columns, cts) == bag
    assert ColumnBatch.from_bag(bag, 2).to_bag() == bag


@settings(max_examples=60, deadline=None)
@given(signed_relation, st.integers(-2, 2).filter(bool))
def test_from_columns_applies_the_coefficient(pairs, coefficient):
    bag = to_bag(pairs)
    columns, cts = bag.to_columns(width=2)
    scaled = SignedBag.from_columns(columns, cts, coefficient=coefficient)
    expected = SignedBag()
    for row, count in bag.items():
        expected.add(row, count * coefficient)
    assert scaled == expected


# --------------------------------------------------------------------- #
# Operators vs the per-tuple reference
# --------------------------------------------------------------------- #


@settings(max_examples=60, deadline=None)
@given(signed_relation, st.integers(0, 3))
def test_batch_select_matches_per_tuple_filter(pairs, threshold):
    bag = to_bag(pairs)
    condition = Comparison(Attr("A"), ">", Const(threshold))
    batch = ColumnBatch.from_bag(bag, 2)
    got = batch_select(batch, condition, resolve2).to_bag()
    expected = SignedBag()
    for row, count in bag.items():
        if row[0] > threshold:
            expected.add(row, count)
    assert got == expected


@settings(max_examples=60, deadline=None)
@given(signed_relation, st.permutations([0, 1]))
def test_batch_project_matches_per_tuple_projection(pairs, positions):
    bag = to_bag(pairs)
    batch = ColumnBatch.from_bag(bag, 2)
    got = batch_project(batch, list(positions)).to_bag()
    expected = SignedBag()
    for row, count in bag.items():
        expected.add(tuple(row[i] for i in positions), count)
    assert got == expected


@settings(max_examples=60, deadline=None)
@given(signed_relation, signed_relation)
def test_batch_join_matches_per_tuple_hash_join(left_pairs, right_pairs):
    left, right = to_bag(left_pairs), to_bag(right_pairs)
    got = batch_join(
        ColumnBatch.from_bag(left, 2), ColumnBatch.from_bag(right, 2), [(1, 0)]
    ).to_bag()
    expected = SignedBag()
    for lrow, lcount in left.items():
        for rrow, rcount in right.items():
            if lrow[1] == rrow[0]:
                expected.add(lrow + rrow, lcount * rcount)
    assert got == expected


@settings(max_examples=60, deadline=None)
@given(signed_relation, signed_relation)
def test_batch_join_without_keys_is_the_cartesian_product(left_pairs, right_pairs):
    left, right = to_bag(left_pairs), to_bag(right_pairs)
    got = batch_join(
        ColumnBatch.from_bag(left, 2), ColumnBatch.from_bag(right, 2), []
    ).to_bag()
    expected = SignedBag()
    for lrow, lcount in left.items():
        for rrow, rcount in right.items():
            expected.add(lrow + rrow, lcount * rcount)
    assert got == expected


@settings(max_examples=60, deadline=None)
@given(signed_relation, signed_relation)
def test_batch_union_matches_bag_addition(left_pairs, right_pairs):
    left, right = to_bag(left_pairs), to_bag(right_pairs)
    got = batch_union(
        ColumnBatch.from_bag(left, 2), ColumnBatch.from_bag(right, 2)
    ).to_bag()
    assert got == left + right


@settings(max_examples=60, deadline=None)
@given(signed_relation)
def test_batch_negate_matches_bag_negation(pairs):
    bag = to_bag(pairs)
    got = batch_negate(ColumnBatch.from_bag(bag, 2)).to_bag()
    assert got == SignedBag() - bag


# --------------------------------------------------------------------- #
# Whole-query divergence check (what bench-smoke runs on the measured
# workload)
# --------------------------------------------------------------------- #

SCHEMAS = [
    RelationSchema("r1", ("W", "X")),
    RelationSchema("r2", ("X", "Y")),
    RelationSchema("r3", ("Y", "Z")),
]

relation = st.lists(rows2, max_size=5)
states = st.fixed_dictionaries({"r1": relation, "r2": relation, "r3": relation})


@settings(max_examples=40, deadline=None)
@given(states, st.booleans())
def test_batched_engine_agrees_with_scalar_oracle(state, with_condition):
    extra = Comparison(Attr("W"), ">", Attr("Z")) if with_condition else None
    view = View.natural_join("V", SCHEMAS, ["W", "Z"], extra)
    bags = {name: SignedBag.from_rows(rows) for name, rows in state.items()}
    query = view.as_query()
    assert evaluate_query(query, bags) == query.evaluate(bags)


# --------------------------------------------------------------------- #
# batch_k=1 + identity codec == the legacy protocol, byte for byte
# --------------------------------------------------------------------- #


def _run(seed, batch_k, wire_codec=None):
    schema_r = RelationSchema("r", ("A", "B"), key=("A",))
    schema_s = RelationSchema("s", ("B", "C"), key=("C",))
    source = MemorySource(
        [schema_r, schema_s], {"r": [(1, 2)], "s": [(2, 9)]}
    )
    view = View.natural_join("v", [schema_r, schema_s], projection=("A", "C"))
    workload = [
        insert("r", (5, 2)),
        insert("s", (2, 11)),
        insert("r", (6, 2)),
        insert("s", (4, 7)),
        insert("r", (7, 4)),
    ]
    result = run_concurrent(
        {"src": source},
        ECA(view),
        workload,
        seed=seed,
        max_burst=3,
        batch_k=batch_k,
        wire_codec=wire_codec,
    )
    return result, workload


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 400))
def test_batch_k1_reproduces_the_legacy_run_exactly(seed):
    """batch_k=1 must be indistinguishable from not passing batch_k at all."""
    legacy, _ = _run(seed, batch_k=1)
    default, _ = _run(seed, batch_k=1, wire_codec="none")
    assert legacy.action_log == default.action_log
    assert all("@" not in a for a in legacy.action_log)
    assert [(e.kind, e.detail) for e in legacy.trace.events] == [
        (e.kind, e.detail) for e in default.trace.events
    ]
    assert legacy.final_view == default.final_view
    assert {n: s.sent_bytes for n, s in legacy.channel_stats.items()} == {
        n: s.sent_bytes for n, s in default.channel_stats.items()
    }


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 400), st.sampled_from([2, 3, 8]))
def test_batched_runs_converge_and_replay_on_the_sync_kernel(seed, k):
    batched, workload = _run(seed, batch_k=k)
    legacy, _ = _run(seed, batch_k=1)
    # Same final state regardless of coalescing ...
    assert batched.final_view == legacy.final_view
    # ... and the batched action log replays exactly on the sync kernel.
    schema_r = RelationSchema("r", ("A", "B"), key=("A",))
    schema_s = RelationSchema("s", ("B", "C"), key=("C",))
    twin = MemorySource([schema_r, schema_s], {"r": [(1, 2)], "s": [(2, 9)]})
    view = View.natural_join("v", [schema_r, schema_s], projection=("A", "C"))
    kernel = replay_concurrent(
        batched.action_log, {"src": twin}, ECA(view), {"src": workload}
    )
    assert [(e.kind, e.detail) for e in batched.trace.events] == [
        (e.kind, e.detail) for e in kernel.trace.events
    ]
    assert kernel.algorithm.view_state() == batched.final_view
