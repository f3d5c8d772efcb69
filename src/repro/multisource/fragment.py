"""Query fragmentation by relation ownership.

A term ``pi_proj(sigma_cond(~r1 x ... x ~rn))`` whose free relations live
at several sources cannot be shipped anywhere whole.  The straightforward
fragmentation (the paper: "fragmenting itself does not pose a novel
problem, at least in the straightforward relational case"):

- for each source owning at least one free relation, build a *fragment
  term* over that source's free relations plus every bound tuple (bound
  tuples travel as constants and carry the join constraints), projecting
  all columns of the source's free relations;
- at the warehouse, cross the fragment answers, rebuild full product rows
  (bound operand values inlined), and apply the original condition,
  projection, coefficient, and bound-tuple signs.

The fragments are *filters*, not the final semantics: each fragment
applies only the conjuncts decidable within it, and the warehouse
re-applies the full condition on reassembled rows (idempotent for the
conjuncts a fragment already enforced).

What fragmentation cannot give you is *atomicity*: the fragments of one
query are evaluated at different sources at different times, so their
answers may reflect different global states.  That is the multi-source
anomaly the paper defers, and the reason the naive algorithm in
:mod:`repro.multisource.algorithms` is incorrect.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.errors import SchemaError
from repro.relational.bag import SignedBag
from repro.relational.conditions import conjunction, flatten_conjuncts
from repro.relational.expressions import BoundOperand, Query, RelationOperand, Term
from repro.relational.schema import ProductSchema
from repro.relational.tuples import SignedTuple

Row = Tuple[object, ...]


class FragmentPlan:
    """The decomposition of one term across sources, plus reassembly."""

    def __init__(self, term: Term, owners: Mapping[str, str]) -> None:
        self.term = term
        #: source name -> fragment term to ship there.
        self.fragments: Dict[str, Term] = {}
        #: source name -> free operand indices covered by that fragment.
        self._free_of: Dict[str, List[int]] = {}
        for index, operand in enumerate(term.operands):
            if operand.is_bound:
                continue
            try:
                owner = owners[operand.source_relation]
            except KeyError:
                raise SchemaError(
                    f"relation {operand.source_relation!r} has no owning source"
                ) from None
            self._free_of.setdefault(owner, []).append(index)
        for source, indices in self._free_of.items():
            self.fragments[source] = self._build_fragment(indices)

    # ------------------------------------------------------------------ #
    # Fragment construction
    # ------------------------------------------------------------------ #

    def _build_fragment(self, free_indices: Sequence[int]) -> Term:
        operands = []
        for index, operand in enumerate(self.term.operands):
            if index in free_indices:
                operands.append(RelationOperand(operand.schema))
            elif operand.is_bound:
                # Constants travel with every fragment, sign stripped —
                # signs and the coefficient are applied exactly once, at
                # reassembly.
                operands.append(
                    BoundOperand(operand.schema, SignedTuple(operand.tuple.values))
                )
        sub_product = ProductSchema([op.schema for op in operands])
        projection = [
            f"{self.term.operands[i].schema.name}.{attribute}"
            for i in free_indices
            for attribute in self.term.operands[i].schema.attributes
        ]
        decidable = []
        for conjunct in flatten_conjuncts(self.term.condition):
            try:
                for name in conjunct.attributes():
                    sub_product.resolve(name)
            except SchemaError:
                continue
            decidable.append(conjunct)
        return Term(operands, projection, conjunction(decidable))

    # ------------------------------------------------------------------ #
    # Reassembly
    # ------------------------------------------------------------------ #

    def reassemble(self, answers: Mapping[str, SignedBag]) -> SignedBag:
        """Combine fragment answers into the term's value.

        ``answers`` maps each fragment's source to the bag it returned
        (rows are the fragment's projected columns, in fragment order).
        """
        missing = set(self.fragments) - set(answers)
        if missing:
            raise SchemaError(f"missing fragment answers from {sorted(missing)}")
        sources = sorted(self.fragments)
        extents = [list(answers[source].items()) for source in sources]

        sign = self.term.coefficient
        for operand in self.term.operands:
            if operand.is_bound:
                sign *= operand.tuple.sign

        predicate = self.term.shape.predicate()
        positions = self.term.shape.positions
        # Per source, the offset of each covered operand's columns within
        # that source's fragment rows.
        layout: Dict[str, Dict[int, int]] = {}
        for source in sources:
            offset = 0
            layout[source] = {}
            for index in self._free_of[source]:
                layout[source][index] = offset
                offset += self.term.operands[index].schema.arity

        result = SignedBag()
        for combo in itertools.product(*extents):
            pieces: List[Row] = []
            count = sign
            by_source = dict(zip(sources, combo))
            for index, operand in enumerate(self.term.operands):
                if operand.is_bound:
                    pieces.append(operand.tuple.values)
                    continue
                owner = next(s for s in sources if index in self._free_of[s])
                row, _ = by_source[owner]
                start = layout[owner][index]
                pieces.append(row[start : start + operand.schema.arity])
            for _, multiplicity in combo:
                count *= multiplicity
            full_row: Row = tuple(itertools.chain.from_iterable(pieces))
            if not predicate(full_row):
                continue
            result.add(tuple(full_row[i] for i in positions), count)
        return result

    def is_local(self) -> bool:
        """True when the term is fully bound (no fragments at all)."""
        return not self.fragments

    def spans_sources(self) -> bool:
        return len(self.fragments) > 1


def fragment_query(query: Query, owners: Mapping[str, str]) -> List[FragmentPlan]:
    """One :class:`FragmentPlan` per term of ``query``."""
    return [FragmentPlan(term, owners) for term in query.terms]
