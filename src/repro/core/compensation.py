"""Compensation algebra shared by the ECA family.

Lemma B.2 — ``Q[ss_{j-1}] = Q[ss_j] - Q<U_j>[ss_j]`` — composes over a
sequence of updates into an alternating sum (the inclusion-exclusion over
prefixes).  :func:`backdate` materializes that sum: a query expression
that, evaluated on the state *after* ``updates`` have executed, yields the
value the original query had *before* them.

Consumers:

- every ECA-family ``W_up`` (ECA, BatchECA, DeferredECA) ships one query,
  :func:`batch_delta_query` over its updates plus the
  :func:`staged_compensation` of the queries in flight, which it keeps in a
  :class:`PendingTerms` index: ECA maintains one over its UQS, every
  pending query having seen all of the next update or kernel-coalesced
  batch; BatchECA and DeferredECA build one at flush time, with each
  query's own count of buffered updates it saw;
- LCA backdates a queued update's query against updates already seen.

Terms that end up fully bound vanish naturally on evaluation; callers
split them off with :meth:`Query.fully_bound_terms` for local evaluation.
:class:`PendingTerms` never builds most of them: a pending term with one
free operand is bound by at most one update and then evaluated at the
warehouse (Appendix D), so the index keeps such terms as signed maps of
their bound tuples and joins each update against them directly.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.relational.bag import SignedBag
from repro.relational.conditions import equality_pairs
from repro.relational.expressions import BoundOperand, Query, Row, Term, TermShape
from repro.relational.tuples import SignedTuple
from repro.relational.views import View
from repro.source.updates import Update


def backdate(query: Query, updates: Sequence[Update]) -> Query:
    """The query reading as of *before* ``updates`` (in source order).

    ``D(Q, []) = Q`` and ``D(Q, [U, rest...]) = D(Q, rest) - D(Q<U>, rest)``.
    The recursion collapses quickly in practice: substituting a second
    update on the same relation annihilates a term, and a view over n
    relations vanishes entirely after n substitutions.
    """
    if query.is_empty() or not updates:
        return query
    head, rest = updates[0], updates[1:]
    substituted = query.substitute(head.relation, head.signed_tuple())
    return backdate(query, rest) - backdate(substituted, rest)


def batch_delta_query(view: View, updates: Sequence[Update]) -> Query:
    """One query whose post-batch evaluation is the whole batch's delta.

    ``sum_j D(V<U_j>, updates[j+1:])`` — each update's incremental query,
    backdated against the updates that follow it in the batch, so that
    evaluating every term on the post-batch state telescopes
    ``V[ss_pre] -> V[ss_post]``.

    Updates on relations the view does not involve are skipped entirely
    (they cannot affect the view *or* the backdating of updates that do).
    """
    relevant: List[Update] = [u for u in updates if view.involves(u.relation)]
    terms: List[Term] = []
    for index, update in enumerate(relevant):
        base = view.substitute(update.relation, update.signed_tuple())
        tail = relevant[index + 1 :]
        terms.extend((backdate(base, tail) if tail else base).terms)
    return Query(terms)


def staged_compensation(
    in_flight: Iterable[Tuple[Query, int]], batch: Sequence[Update]
) -> Query:
    """Correction for in-flight queries that saw a prefix of ``batch``.

    ``in_flight`` holds ``(query, seen)`` pairs: the query's answer was
    (or will be) evaluated on the state after ``batch[:seen]``.  The
    correction, *itself evaluated after the whole batch*, is

        - sum over (Q, seen) of sum over i < seen of D(Q<batch[i]>, batch[i+1:])

    Each contaminating update's substituted query is backdated against the
    **entire rest of the batch** — including updates the query never saw —
    because the correction's own evaluation happens post-batch.  With
    ``seen == len(batch)`` a query's correction has the value
    ``D(Q, batch) - Q``, without that spelling's zero-valued ``+Q ... -Q``
    terms; for a one-update batch it is ECA's ``-Q<U>``, term for term.
    """
    # Each update's relation, signed tuple and tail, derived once per batch
    # rather than once per (query, update) pair.
    steps = [
        (update.relation, update.signed_tuple(), batch[index + 1 :])
        for index, update in enumerate(batch)
    ]
    size = len(steps)
    terms: List[Term] = []
    for query, seen in in_flight:
        for relation, signed, tail in steps if seen >= size else steps[:seen]:
            substituted = query.substitute(relation, signed)
            if tail and substituted.terms:
                remaining = [u for u in tail if _touches(substituted, u)]
                substituted = backdate(substituted, remaining)
            terms += map(Term.negate, substituted.terms)
    return Query(terms)


def _touches(query: Query, update: Update) -> bool:
    return any(update.relation in term.shape.occurrences for term in query.terms)


class _Family:
    """Pending terms of one shape whose only free operand is ``free``.

    Substituting an update on ``free``'s relation binds that operand (the
    relation's other occurrences in a self-join are bound already) and
    leaves a fully bound term, which ``backdate`` returns unchanged; an
    update on any other relation of the shape hits only bound operands and
    vanishes (Section 4.2).  So the family keeps no terms, only a signed
    map from the bound operands' values (those ``before`` and ``after`` the
    free operand, in operand order) to the net coefficient of the terms
    holding them.  The map is bucketed on the bound side of the
    ``Attr = Attr`` conjuncts that bridge the free operand; an update
    probes one bucket with its own values, and the shape's full predicate
    checks every row the bucket yields.
    """

    __slots__ = ("shape", "seen", "relation", "_free", "_key", "_probe", "buckets")

    def __init__(self, shape: TermShape, free: int, seen: Optional[int]) -> None:
        self.shape = shape
        #: Updates of the batch the family's queries saw; None for all.
        self.seen = seen
        product = shape.product
        schema = product.schemas[free]
        self.relation = schema.base
        self._free = free
        start, stop = product.relation_span(schema.name)
        key: List[int] = []
        probe: List[int] = []
        for left, right in equality_pairs(shape.condition):
            a, b = product.resolve(left), product.resolve(right)
            if (start <= a < stop) == (start <= b < stop):
                continue
            inside, outside = (a, b) if start <= a < stop else (b, a)
            # ``outside`` indexes the product row; the map holds the bound
            # values with the free operand's columns cut out.
            key.append(outside if outside < start else outside - (stop - start))
            probe.append(inside - start)
        #: Positions of the bucket key in ``before + after``.
        self._key = tuple(key)
        #: The same key's positions in an update's tuple.
        self._probe = tuple(probe)
        self.buckets: Dict[Row, Dict[Tuple[Row, Row], int]] = {}

    def add(self, term: Term, sign: int) -> None:
        """File ``sign * term`` (``sign=-1`` takes a filed term back out)."""
        net = term.coefficient * sign
        left: List[Row] = []
        right: List[Row] = []
        for index, operand in enumerate(term.operands):
            if isinstance(operand, BoundOperand):
                net *= operand.tuple.sign
                (left if index < self._free else right).append(operand.tuple.values)
        before = tuple(chain.from_iterable(left))
        after = tuple(chain.from_iterable(right))
        bound = before + after
        key = tuple([bound[i] for i in self._key])
        bucket = self.buckets.setdefault(key, {})
        entry = (before, after)
        total = bucket.get(entry, 0) + net
        if total:
            bucket[entry] = total
        else:
            del bucket[entry]
            if not bucket:
                del self.buckets[key]

    def compensate(self, signed: SignedTuple, out: SignedBag) -> None:
        """Add ``-sum T<U>`` over the family's terms to ``out``."""
        values = signed.values
        bucket = self.buckets.get(tuple([values[i] for i in self._probe]))
        if not bucket:
            return
        predicate = self.shape.predicate()
        positions = self.shape.positions
        sign = -signed.sign
        for (before, after), net in bucket.items():
            row = before + values + after
            if predicate(row):
                out.add(tuple([row[i] for i in positions]), net * sign)


def _sole_free_operand(term: Term) -> Optional[int]:
    """The index of ``term``'s free operand, if it has exactly one."""
    free: Optional[int] = None
    for index, operand in enumerate(term.operands):
        if not isinstance(operand, BoundOperand):
            if free is not None:
                return None
            free = index
    return free


class PendingTerms:
    """In-flight queries, indexed for :func:`staged_compensation`.

    Each filed query is split.  Its terms with exactly one free operand go
    into a family keyed by ``(shape, free operand, seen)``; see
    :class:`_Family`.  Its other terms, with two or more free operands,
    are kept as a query in filing order.  :meth:`compensate` then returns
    what ``staged_compensation`` over the filed queries would, split the
    way ECA's dispatch splits it: the families' part already evaluated, since
    every such term comes out fully bound, and the remaining terms'
    correction as a query, term for term and in the same order.

    ``seen`` is how many of the next batch's updates a query saw; ``None``
    (ECA's UQS, which FIFO delivery puts behind every update still to
    come) means all of them.
    """

    def __init__(self) -> None:
        self._families: Dict[Tuple[TermShape, int, Optional[int]], _Family] = {}
        self._by_relation: Dict[str, List[_Family]] = {}
        #: Filing key -> the query's other terms and its ``seen``.
        self._rest: Dict[Hashable, Tuple[Query, Optional[int]]] = {}

    @classmethod
    def of(cls, in_flight: Iterable[Tuple[Query, Optional[int]]]) -> "PendingTerms":
        """An index of ``(query, seen)`` pairs, in their order."""
        index = cls()
        for key, (query, seen) in enumerate(in_flight):
            index.add(key, query, seen)
        return index

    def add(self, key: Hashable, query: Query, seen: Optional[int] = None) -> None:
        """File ``query`` under ``key`` (unique among the filed queries)."""
        rest = self._file(query, seen, 1)
        if rest:
            self._rest[key] = (Query(rest), seen)

    def discard(self, key: Hashable, query: Query) -> None:
        """Take back what ``add(key, query)`` filed."""
        self._file(query, None, -1)
        self._rest.pop(key, None)

    def _file(self, query: Query, seen: Optional[int], sign: int) -> List[Term]:
        rest: List[Term] = []
        for term in query.terms:
            free = _sole_free_operand(term)
            if free is None:
                rest.append(term)
                continue
            key = (term.shape, free, seen)
            family = self._families.get(key)
            if family is None:
                family = self._families[key] = _Family(term.shape, free, seen)
                self._by_relation.setdefault(family.relation, []).append(family)
            family.add(term, sign)
        return rest

    def compensate(self, batch: Sequence[Update]) -> Tuple[SignedBag, Query]:
        """The filed queries' correction for ``batch``: ``(local, query)``.

        ``local`` is the value of the fully bound terms from the families,
        for COLLECT; ``query`` is :func:`staged_compensation` of the other
        terms, to ship after splitting off any of its own fully bound terms.
        """
        local = SignedBag()
        for index, update in enumerate(batch):
            families = self._by_relation.get(update.relation)
            if not families:
                continue
            signed = update.signed_tuple()
            for family in families:
                if family.seen is None or index < family.seen:
                    family.compensate(signed, local)
        size = len(batch)
        correction = staged_compensation(
            [(query, size if seen is None else seen) for query, seen in self._rest.values()],
            batch,
        )
        return local, correction
