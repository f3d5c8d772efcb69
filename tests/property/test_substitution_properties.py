"""Property tests for the substitution operator — Lemma B.2 in particular.

Lemma B.2 is the engine of the whole correctness proof:

    Q[ss_{j-1}] = Q[ss_j] - Q<U_j>[ss_j]   for any query Q

i.e. the effect of an update on any query is exactly the substituted
query, evaluated on the post-update state.  We check it for random
states, random updates (inserts and deletes), and query shapes up to the
compensated forms ECA actually emits.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.bag import SignedBag
from repro.relational.conditions import Attr, Comparison
from repro.relational.schema import RelationSchema
from repro.relational.tuples import MINUS, PLUS, SignedTuple
from repro.relational.views import View
from repro.source.updates import delete, insert

SCHEMAS = [
    RelationSchema("r1", ("W", "X")),
    RelationSchema("r2", ("X", "Y")),
]

rows2 = st.tuples(st.integers(0, 3), st.integers(0, 3))
relation = st.lists(rows2, max_size=5)
states = st.fixed_dictionaries({"r1": relation, "r2": relation})


def make_view():
    return View.natural_join(
        "V", SCHEMAS, ["W", "Y"], Comparison(Attr("W"), "<=", Attr("Y"))
    )


def apply_update(bags, update):
    after = {name: bag.copy() for name, bag in bags.items()}
    after[update.relation].add(update.values, update.sign)
    return after


def to_bags(state):
    return {name: SignedBag.from_rows(rows) for name, rows in state.items()}


def draw_update(data, bags):
    """An insert of any row, or a delete of a row present in ``bags``.

    Deletes are drawn from the rows the state holds, so every drawn
    update is applicable and nothing has to be filtered out.
    """
    relation = data.draw(st.sampled_from(["r1", "r2"]))
    present = sorted(row for row, count in bags[relation].items() if count > 0)
    if present and data.draw(st.booleans()):
        return delete(relation, data.draw(st.sampled_from(present)))
    return insert(relation, data.draw(rows2))


def updates():
    return st.builds(
        lambda rel, row, is_insert: (insert if is_insert else delete)(rel, row),
        st.sampled_from(["r1", "r2"]),
        rows2,
        st.booleans(),
    )


@settings(max_examples=80, deadline=None)
@given(states, st.data())
def test_lemma_b2_for_the_view_query(state, data):
    """V[ss_{j-1}] = V[ss_j] - V<U_j>[ss_j]."""
    view = make_view()
    before = to_bags(state)
    update = draw_update(data, before)
    after = apply_update(before, update)
    query = view.as_query()
    substituted = view.substitute(update.relation, update.signed_tuple())
    assert query.evaluate(before) == query.evaluate(after) - substituted.evaluate(
        after
    )


@settings(max_examples=80, deadline=None)
@given(states, st.data(), rows2, st.sampled_from([PLUS, MINUS]))
def test_lemma_b2_for_bound_queries(state, data, bound_row, sign):
    """The lemma holds for already-substituted (compensating) queries."""
    view = make_view()
    before = to_bags(state)
    update = draw_update(data, before)
    after = apply_update(before, update)
    other = "r2" if update.relation == "r1" else "r1"
    query = view.substitute(other, SignedTuple(bound_row, sign))
    substituted = query.substitute(update.relation, update.signed_tuple())
    assert query.evaluate(before) == query.evaluate(after) - substituted.evaluate(
        after
    )


@settings(max_examples=60, deadline=None)
@given(states, st.data())
def test_lemma_b2_composes_over_two_updates(state, data):
    """Q[ss_0] = Q[ss_2] - Q<U2>[ss_2] - Q<U1>[ss_2] + Q<U1,U2>[ss_2] —
    the expansion LCA's backdating and ECA's chained compensation rely
    on."""
    view = make_view()
    s0 = to_bags(state)
    u1 = draw_update(data, s0)
    s1 = apply_update(s0, u1)
    u2 = draw_update(data, s1)
    s2 = apply_update(s1, u2)
    q = view.as_query()
    q1 = q.substitute(u1.relation, u1.signed_tuple())
    q2 = q.substitute(u2.relation, u2.signed_tuple())
    q12 = q1.substitute(u2.relation, u2.signed_tuple())
    expanded = (
        q.evaluate(s2) - q2.evaluate(s2) - q1.evaluate(s2) + q12.evaluate(s2)
    )
    assert q.evaluate(s0) == expanded


@given(rows2, rows2)
def test_same_relation_double_substitution_vanishes(row_a, row_b):
    view = make_view()
    q = view.substitute("r1", SignedTuple(row_a))
    assert q.substitute("r1", SignedTuple(row_b)).is_empty()


@settings(max_examples=60, deadline=None)
@given(states, updates())
def test_substitution_distributes_over_query_sum(state, update):
    view = make_view()
    bags = to_bags(state)
    q = view.as_query()
    summed = (q + q).substitute(update.relation, update.signed_tuple())
    single = q.substitute(update.relation, update.signed_tuple())
    assert summed.evaluate(bags) == (single + single).evaluate(bags)


@settings(max_examples=60, deadline=None)
@given(states, updates())
def test_negation_commutes_with_substitution(state, update):
    view = make_view()
    bags = to_bags(state)
    q = view.as_query()
    a = (-q).substitute(update.relation, update.signed_tuple()).evaluate(bags)
    b = (-(q.substitute(update.relation, update.signed_tuple()))).evaluate(bags)
    assert a == b
