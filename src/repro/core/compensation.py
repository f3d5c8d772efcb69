"""Compensation algebra shared by the ECA family.

Lemma B.2 — ``Q[ss_{j-1}] = Q[ss_j] - Q<U_j>[ss_j]`` — composes over a
sequence of updates into an alternating sum (the inclusion-exclusion over
prefixes).  :func:`backdate` materializes that sum: a query expression
that, evaluated on the state *after* ``updates`` have executed, yields the
value the original query had *before* them.

Consumers:

- every ECA-family ``W_up`` (ECA, BatchECA, DeferredECA) ships one query,
  :func:`batch_delta_query` over its updates plus one
  :func:`staged_compensation` over the queries in flight: ECA for one
  update or a kernel-coalesced batch, with every pending query having
  seen all of it; BatchECA and DeferredECA at flush time, with each
  query's own count of buffered updates it saw;
- LCA backdates a queued update's query against updates already seen.

Terms that end up fully bound vanish naturally on evaluation; callers
split them off with :meth:`Query.fully_bound_terms` for local evaluation.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from repro.relational.expressions import Query, Term
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
