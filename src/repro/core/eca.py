"""Algorithm 5.2 — the Eager Compensating Algorithm (ECA).

On receiving update ``U_i`` the warehouse sends

    Q_i = V<U_i> - sum over Q_j in UQS of Q_j<U_i>

The compensating terms offset the effect ``U_i`` will have on the pending
queries: FIFO delivery guarantees that if the warehouse has seen ``U_i``
before ``Q_j``'s answer, the source executed ``U_i`` before evaluating
``Q_j``, so ``Q_j`` will "see" ``U_i``'s tuple.

Answers accumulate in ``COLLECT`` and are installed into the view only when
the UQS drains — installing earlier would expose invalid intermediate
states (convergent but not consistent; see Section 5.2).

Following Appendix D, terms of ``Q_i`` in which *every* relation is bound
to a concrete tuple are not shipped to the source: they reference no base
data, so the warehouse evaluates them locally and feeds the result straight
into ``COLLECT``.  Most compensating terms are of that kind: ``Q_j<U_i>``
binds the last free operand of every UQS term with one left.  ECA keeps
its UQS filed in a :class:`~repro.core.compensation.PendingTerms` index,
which joins ``U_i`` against those terms' bound tuples directly, so an
update costs the pending terms it matches rather than the UQS depth.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.compensation import PendingTerms, batch_delta_query
from repro.core.protocol import WarehouseAlgorithm
from repro.messaging.messages import (
    QueryAnswer,
    QueryRequest,
    UpdateBatch,
    UpdateNotification,
)
from repro.relational.bag import SignedBag
from repro.relational.expressions import Query
from repro.relational.views import View
from repro.source.updates import Update


class ECA(WarehouseAlgorithm):
    """The Eager Compensating Algorithm — strongly consistent.

    Parameters
    ----------
    view, initial:
        As for every :class:`WarehouseAlgorithm`.
    buffer_answers:
        When True (the paper's algorithm, default) answers collect until
        the UQS is empty.  When False, each answer is applied to the view
        immediately — the variant Section 5.2 warns about, kept here so the
        consistency checker can demonstrate it is convergent but *not*
        consistent.
    """

    name = "eca"

    def __init__(
        self,
        view: View,
        initial: Optional[SignedBag] = None,
        buffer_answers: bool = True,
    ) -> None:
        super().__init__(view, initial)
        self.collect = SignedBag()
        self.buffer_answers = buffer_answers
        #: The UQS, filed for compensation (derived from ``uqs``).
        self._pending_terms = PendingTerms()

    # ------------------------------------------------------------------ #
    # W_up
    # ------------------------------------------------------------------ #

    def handle_update(self, notification: UpdateNotification) -> List[QueryRequest]:
        if not self.relevant(notification):
            return []
        return self._compensate([notification.update])

    def handle_update_batch(self, batch: UpdateBatch) -> List[QueryRequest]:
        """The k-update generalization: one ``Q<U1,...,Uk>`` per batch.

        The batch's own delta is ``sum_j D(V<U_j>, rest-of-batch)``
        (Lemma B.2 backdating, so each member's incremental query reads as
        of its own source state), and every in-flight query, having seen
        the whole batch, is compensated against all k members at once —
        k round trips become one.
        """
        updates = [
            n.update for n in batch.notifications if self.relevant(n)
        ]
        if not updates:
            return []
        return self._compensate(updates)

    def _compensate(
        self, updates: List[Update], pending: Optional[PendingTerms] = None
    ) -> List[QueryRequest]:
        """Ship ``V<updates>`` less the updates' effect on in-flight queries.

        ``pending`` holds the in-flight queries with the count of
        ``updates`` each saw; by default the UQS, each entry of which
        (FIFO) will be evaluated after all of ``updates``.  For one update
        this is the paper's ``V<U_i> - sum Q_j<U_i>``.
        """
        if pending is None:
            pending = self._pending_terms
        local, correction = pending.compensate(updates)
        return self._dispatch(batch_delta_query(self.view, updates) + correction, local)

    def _dispatch(self, query: Query, local: SignedBag) -> List[QueryRequest]:
        """Evaluate fully-bound terms locally; ship the rest to the source.

        ``local`` is the already-evaluated part of the compensation.
        """
        bound = query.fully_bound_terms()
        if not bound.is_empty():
            local.add_bag(bound.evaluate({}))
        if not local.is_empty():
            self._absorb(local)
        remote = query.source_terms()
        if remote.is_empty():
            # Nothing to ask the source; a flush may be due right now.
            self._maybe_install()
            return []
        return [self._make_request(remote)]

    def _make_request(self, query: Query) -> QueryRequest:
        request = super()._make_request(query)
        self._pending_terms.add(request.query_id, query)
        return request

    def _retire(self, answer: QueryAnswer) -> Query:
        query = super()._retire(answer)
        self._pending_terms.discard(answer.query_id, query)
        return query

    # ------------------------------------------------------------------ #
    # W_ans
    # ------------------------------------------------------------------ #

    def handle_answer(self, answer: QueryAnswer) -> List[QueryRequest]:
        self._retire(answer)
        self._absorb(answer.answer)
        self._maybe_install()
        return []

    # ------------------------------------------------------------------ #
    # COLLECT handling
    # ------------------------------------------------------------------ #

    def _absorb(self, delta: SignedBag) -> None:
        if self.buffer_answers:
            self.collect.add_bag(delta)
        else:
            # The unbuffered strawman applies answers immediately; its
            # intermediate states may hold negative replication counts
            # (invalid states), but the final sum converges.
            self.mv.apply_delta(delta, on_negative="allow")

    def _maybe_install(self) -> None:
        if not self.buffer_answers:
            return
        if self.uqs:
            return
        if self.collect.is_empty():
            return
        self.mv.apply_delta(self.collect)
        self.collect = SignedBag()

    def is_quiescent(self) -> bool:
        return not self.uqs and self.collect.is_empty()

    def gauges(self) -> Dict[str, int]:
        out = super().gauges()
        out["collect_tuples"] = self.collect.total_count()
        return out

    # ------------------------------------------------------------------ #
    # Durability hooks
    # ------------------------------------------------------------------ #

    def pending_state(self) -> Dict[str, Any]:
        state = super().pending_state()
        state["collect"] = self.collect.copy()
        return state

    def restore_pending_state(self, state: Dict[str, Any]) -> None:
        super().restore_pending_state(state)
        self.collect = state["collect"].copy()
        self._pending_terms = PendingTerms()
        for query_id in sorted(self.uqs):
            self._pending_terms.add(query_id, self.uqs[query_id])

    def durable_config(self) -> Dict[str, Any]:
        return {"buffer_answers": self.buffer_answers}
