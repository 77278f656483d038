"""Contextualized selection-state management (paper §5.3).

The selection layer can be configured to instantiate a unique selection
state for each user, context or session, stored in an external database
(Redis in the paper, :class:`~repro.state.kvstore.KeyValueStore` here).  The
:class:`SelectionStateManager` owns that mapping: it lazily initialises the
state for a new context via the policy's ``init`` function, reads and writes
states through the store, and exposes the observe path used when feedback
arrives.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.types import ModelId
from repro.selection.policy import SelectionPolicy, SelectionState
from repro.state.kvstore import KeyValueStore

#: Context key used when a query carries no user/session id.
DEFAULT_CONTEXT = "__global__"


class SelectionStateManager:
    """Per-context selection state backed by a key-value store."""

    def __init__(
        self,
        policy: SelectionPolicy,
        model_ids: Sequence[ModelId],
        store: Optional[KeyValueStore] = None,
        namespace: str = "selection-state",
    ) -> None:
        self.policy = policy
        self.model_ids = list(model_ids)
        self.store = store or KeyValueStore()
        self.namespace = namespace

    # -- state plumbing -------------------------------------------------------

    def get_state(self, context: Optional[str] = None) -> SelectionState:
        """Fetch (lazily creating) the selection state for one context."""
        key = context or DEFAULT_CONTEXT
        state = self.store.get(self.namespace, key)
        if state is None:
            state = self.policy.init(self.model_ids)
            self.store.put(self.namespace, key, state)
        return state

    def put_state(self, state: SelectionState, context: Optional[str] = None) -> None:
        """Persist an updated selection state for one context."""
        self.store.put(self.namespace, context or DEFAULT_CONTEXT, state)

    def prune(self, keep_contexts: Iterable[Optional[str]]) -> List[str]:
        """Drop every instantiated context state except ``keep_contexts``.

        Contexts accumulate forever otherwise — one state per user/session
        that ever issued a query, long after those sessions ended.  The
        routing layer calls this when it retires a serving-set namespace
        (``prune(())`` clears it entirely); applications can call it with
        their live session ids to garbage-collect per-user state.  Returns
        the context keys that were dropped.
        """
        keep = {context or DEFAULT_CONTEXT for context in keep_contexts}
        dropped = [key for key in self.store.keys(self.namespace) if key not in keep]
        for key in dropped:
            self.store.delete(self.namespace, key)
        return dropped

    # -- policy operations ----------------------------------------------------

    def select_with_state(
        self, x: Any, context: Optional[str] = None
    ) -> Tuple[List[str], SelectionState]:
        """Choose which models to query for input ``x`` in ``context``, and
        return them with the context's state.

        The serving engine threads the returned state into :meth:`combine`
        for the same query, saving a second store read per prediction.
        """
        state = self.get_state(context)
        return self.policy.select(state, x), state

    def combine(
        self,
        x: Any,
        predictions: Dict[str, Any],
        context: Optional[str] = None,
        state: Optional[SelectionState] = None,
    ) -> Tuple[Any, float]:
        """Combine available predictions into (output, confidence).

        ``state`` lets a caller that already holds the context's state (from
        :meth:`select_with_state`) skip the store read.
        """
        if state is None:
            state = self.get_state(context)
        return self.policy.combine(state, x, predictions)

    def observe(
        self,
        x: Any,
        feedback: Any,
        predictions: Dict[str, Any],
        context: Optional[str] = None,
    ) -> SelectionState:
        """Apply feedback to the context's state and persist the result."""
        state = self.get_state(context)
        updated = self.policy.observe(state, x, feedback, predictions)
        self.put_state(updated, context)
        return updated
