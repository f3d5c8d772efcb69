"""Columnar hash-join evaluation engine for terms and queries.

:meth:`repro.relational.expressions.Term.evaluate` is the *reference*
evaluator: it materializes the full cross product one tuple at a time,
which is exactly the paper's semantics but quadratic-to-cubic in relation
size.  This module provides an equivalent evaluator that:

1. flattens the condition into conjuncts;
2. joins operands left to right, using attribute-equality conjuncts that
   bridge the joined prefix and the next operand as hash-join keys;
3. applies every other conjunct as a filter at the earliest step where all
   of its attributes are available;
4. projects and accumulates signed multiplicities.

Since the columnar refactor the working set is a
:class:`~repro.relational.columns.ColumnBatch` — parallel column lists
plus a signed count vector — and every join/filter/projection step runs
through the vectorized operators in :mod:`repro.relational.batch_ops`
(``map``/``compress`` passes, no per-tuple objects; lint rule RPR009).
The CI ``bench-smoke`` job checks it against the reference evaluator on
the measured workload.

Equivalence with the reference evaluator is property-tested
(``tests/property/test_engine_equivalence.py`` and
``tests/property/test_columnar_properties.py``).  The in-memory source and
the consistency oracle use this engine; the paper's cost model is *not*
affected (I/O costs are modeled separately, following Appendix D).
"""

from __future__ import annotations

from typing import List, Mapping, Tuple

from repro.errors import ExpressionError
from repro.relational.bag import SignedBag
from repro.relational.batch_ops import MaskFn, batch_join, compile_mask
from repro.relational.columns import ColumnBatch
from repro.relational.conditions import (
    Attr,
    Comparison,
    Condition,
    flatten_conjuncts,
)
from repro.relational.expressions import Query, Term
from repro.relational.schema import ProductSchema

State = Mapping[str, SignedBag]

#: One join step of a term plan: the conjuncts to filter by once the step's
#: operand is joined in, and the (prefix position, local position) key pairs.
_Step = Tuple[List[Condition], List[Tuple[int, int]]]
#: A term plan: its join steps, and each step's compiled filter masks.
_Plan = Tuple[List[_Step], List[List[MaskFn]]]


def _max_position(conjunct: Condition, product: ProductSchema) -> int:
    """Largest product-row position the conjunct reads (-1 if none)."""
    highest = -1
    for name in conjunct.attributes():
        highest = max(highest, product.resolve(name))
    return highest


def _operand_batch(operand, state: State) -> ColumnBatch:
    """An operand's extent as a columnar batch."""
    if operand.is_bound:
        return ColumnBatch(
            [[value] for value in operand.tuple.values], [operand.tuple.sign]
        )
    try:
        bag = state[operand.source_relation]
    except KeyError:
        raise ExpressionError(
            f"state has no relation {operand.source_relation!r}"
        ) from None
    return ColumnBatch.from_bag(bag, operand.schema.arity)


def _term_plan(term: Term) -> _Plan:
    """The term's join plan, compiled on first use and kept on its shape.

    The plan depends only on the operand schemas and the condition, so
    every term sharing a :class:`~repro.relational.expressions.TermShape`
    shares it.
    """
    shape = term.shape
    if shape.plan is None:
        steps = _plan_steps(shape.product, shape.condition)
        masks: List[List[MaskFn]] = []
        for filters, _ in steps:
            compiled = (compile_mask(c, shape.product.resolve) for c in filters)
            masks.append([mask for mask in compiled if mask is not None])
        shape.plan = (steps, masks)
    return shape.plan  # type: ignore[return-value]


def _plan_steps(product: ProductSchema, condition: Condition) -> List[_Step]:
    """Assign conjuncts to join steps and classify hash-join keys.

    Step ``i`` covers product positions ``[0, widths[i])``; each conjunct
    lands at the earliest step where it is decidable.  An attribute
    equality with one side in the joined prefix and one in the new
    operand becomes a hash-join key; everything else is a filter.
    """
    offsets: List[int] = []
    offset = 0
    for schema in product.schemas:
        offsets.append(offset)
        offset += schema.arity
    widths = offsets[1:] + [offset]

    steps: List[_Step] = [([], []) for _ in product.schemas]
    for conjunct in flatten_conjuncts(condition):
        highest = _max_position(conjunct, product)
        step = 0
        while widths[step] <= highest:
            step += 1
        is_bridge_equality = (
            step > 0
            and isinstance(conjunct, Comparison)
            and conjunct.op == "="
            and isinstance(conjunct.left, Attr)
            and isinstance(conjunct.right, Attr)
        )
        if is_bridge_equality:
            left = product.resolve(conjunct.left.name)
            right = product.resolve(conjunct.right.name)
            prefix_width = widths[step - 1]
            sides = sorted((left, right))
            if sides[0] < prefix_width <= sides[1]:
                # One side in the already-joined prefix, one in the new
                # operand: a genuine hash-join key.
                steps[step][1].append((sides[0], sides[1] - prefix_width))
                continue
        steps[step][0].append(conjunct)
    return steps


def evaluate_term(term: Term, state: State) -> SignedBag:
    """Evaluate one term with columnar hash joins; equals ``term.evaluate``."""
    steps, masks = _term_plan(term)

    joined = _operand_batch(term.operands[0], state)
    for mask in masks[0]:
        joined = joined.compress(mask(joined.columns, len(joined.counts)))

    for step in range(1, len(term.operands)):
        if joined.is_empty():
            # The batch is narrower than the full product here, so the
            # projection below could not resolve — but it is empty anyway.
            return SignedBag()
        _, keys = steps[step]
        joined = batch_join(joined, _operand_batch(term.operands[step], state), keys)
        for mask in masks[step]:
            joined = joined.compress(mask(joined.columns, len(joined.counts)))

    return joined.gather_columns(term.shape.positions).to_bag(term.coefficient)


def evaluate_query(query: Query, state: State) -> SignedBag:
    """Sum of the optimized term evaluations."""
    result = SignedBag()
    for term in query.terms:
        result.add_bag(evaluate_term(term, state))
    return result


def evaluate_view(view, state: State) -> SignedBag:
    """Optimized oracle ``V[ss]``.

    Accepts any view-like object: plain :class:`View`, ``UnionView``, or
    anything exposing ``evaluate_oracle`` (e.g. a multi-view
    :class:`~repro.warehouse.catalog.WarehouseCatalog`, whose oracle rows
    are tagged with their view name).
    """
    custom = getattr(view, "evaluate_oracle", None)
    if custom is not None:
        return custom(state)
    return evaluate_query(view.as_query(), state)
