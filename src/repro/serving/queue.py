"""Bounded, priority-ordered admission queue with deterministic eviction.

The queue is the server's backpressure mechanism: depth is capped, and
when full a newly arriving request is admitted only by *displacing* a
strictly lower-priority resident.  Ordering is a total deterministic key
— ``(-priority, arrival_s, request_id)`` — so two runs with the same
arrival schedule pop identical batches.

Eviction order is deterministic **by construction**, not by accident of
id assignment: every insertion is stamped with a monotonically
increasing admission sequence number, and the victim of a displacement
is the *last-admitted* resident of the lowest-priority tier.  Among
equal-priority, equal-age residents this is a total order that depends
only on the order the server admitted them (which replay reproduces
exactly), never on how external id generators happened to number the
requests — important once arrivals are merged from many per-tenant
streams.  Earlier peers of equal rank therefore always keep their
place: the newest arrival at the bottom tier has had the least time
invested and displacing it reorders the least.

Beside the priority order the queue keeps a **deadline index**: a
min-heap of ``(deadline_s, seq, request)`` over the residents that have
a deadline.  Entries are deleted lazily — popping, removing or evicting
a resident only forgets its admission sequence, and the stale heap entry
is discarded when it reaches the top or when the heap is compacted (as
soon as dead entries outnumber live ones, so the heap stays O(depth)).
:meth:`AdmissionQueue.drop_hopeless` therefore costs O(dropped · log n)
instead of a full rescan per dispatch pass, and drops exactly the set the
scan would: ``deadline - now`` is monotone in the deadline, so the
hopeless residents are always a prefix of the heap order.
"""

from __future__ import annotations

import bisect
import heapq

from repro.errors import ServingError
from repro.serving.request import InferenceRequest


def _order_key(req: InferenceRequest) -> tuple:
    return (-req.priority, req.arrival_s, req.request_id)


class AdmissionQueue:
    """Depth-bounded priority queue of pending requests."""

    def __init__(self, max_depth: int) -> None:
        if max_depth < 1:
            raise ServingError(f"queue depth must be >= 1, got {max_depth}")
        self.max_depth = int(max_depth)
        self._keys: list[tuple] = []
        self._items: list[InferenceRequest] = []
        #: Admission sequence per resident, aligned with ``_items``.
        self._seqs: list[int] = []
        self._next_seq = 0
        #: Deadline index: a heap of ``(deadline_s, seq, request)`` with
        #: lazy deletion; an entry is live while its seq is in ``_live``.
        self._deadlines: list[tuple] = []
        self._live: set[int] = set()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        """True when the queue is at its depth bound."""
        return len(self._items) >= self.max_depth

    def peek(self) -> InferenceRequest | None:
        """Highest-ranked pending request, or None when empty."""
        return self._items[0] if self._items else None

    def push(self, request: InferenceRequest) -> None:
        """Insert below the depth bound (use :meth:`offer` at the edge)."""
        if self.full:
            raise ServingError("queue full; admission must go through offer()")
        key = _order_key(request)
        index = bisect.bisect_left(self._keys, key)
        self._keys.insert(index, key)
        self._items.insert(index, request)
        self._seqs.insert(index, self._next_seq)
        if request.deadline_s is not None:
            heapq.heappush(
                self._deadlines, (request.deadline_s, self._next_seq, request)
            )
            self._live.add(self._next_seq)
        self._next_seq += 1

    def _victim_index(self) -> int:
        """Index of the displacement victim: last-admitted of the lowest tier."""
        return min(
            range(len(self._items)),
            key=lambda i: (self._items[i].priority, -self._seqs[i]),
        )

    def offer(
        self, request: InferenceRequest
    ) -> tuple[bool, InferenceRequest | None]:
        """Try to admit ``request``; returns ``(admitted, evicted)``.

        Below the bound: admitted, nothing evicted.  At the bound: the
        lowest-priority resident is evicted iff the newcomer strictly
        outranks it; otherwise the newcomer is refused.  Ties within the
        lowest tier break on admission order (last admitted goes) — see
        the module docstring for why that, and not request id, is the
        replay-stable choice.
        """
        if not self.full:
            self.push(request)
            return True, None
        index = self._victim_index()
        victim = self._items[index]
        if request.priority <= victim.priority:
            return False, None
        self._delete(index)
        self.push(request)
        return True, victim

    def _forget(self, seqs) -> None:
        """Retire ``seqs`` from the deadline index (lazy deletion)."""
        self._live.difference_update(seqs)
        if len(self._deadlines) > 2 * len(self._live):
            # Dead entries outnumber live ones: compact so the heap stays
            # proportional to the queue, not to its history.
            self._deadlines = [
                entry for entry in self._deadlines if entry[1] in self._live
            ]
            heapq.heapify(self._deadlines)

    def _delete(self, index: int) -> None:
        del self._keys[index]
        del self._items[index]
        self._forget((self._seqs.pop(index),))

    def remove(self, request: InferenceRequest) -> None:
        """Remove a specific resident (must be present)."""
        self._delete(self._keys.index(_order_key(request)))

    def pop_batch(self, limit: int) -> list[InferenceRequest]:
        """Pop up to ``limit`` requests in priority order."""
        if limit < 1:
            raise ServingError(f"batch limit must be >= 1, got {limit}")
        taken = self._items[:limit]
        del self._items[:limit]
        del self._keys[:limit]
        self._forget(self._seqs[:limit])
        del self._seqs[:limit]
        return taken

    def drop_hopeless(
        self, now_s: float, min_service_s: float
    ) -> list[InferenceRequest]:
        """Remove queued requests that can no longer meet their deadline.

        A request is hopeless once even an immediate solo dispatch would
        finish past its deadline — the "early shedding" half of deadline
        enforcement: capacity is never spent on work that is already lost.

        Hopeless residents are popped off the deadline index (earliest
        deadline first) and returned in pop order, as a full scan of the
        queue would list them.
        """
        heap, live = self._deadlines, self._live
        hits = []
        while heap:
            _, seq, req = heap[0]
            if seq in live:
                if not req.slack_s(now_s) < min_service_s:
                    break
                hits.append((seq, req))
            heapq.heappop(heap)
        if not hits:
            return []
        self._forget([seq for seq, _ in hits])
        indices = []
        for seq, req in hits:
            # Keys are unique per resident in a run; the seq scan only
            # disambiguates equal keys pushed by hand.
            index = bisect.bisect_left(self._keys, _order_key(req))
            while self._seqs[index] != seq:
                index += 1
            indices.append(index)
        indices.sort()
        dropped = [self._items[i] for i in indices]
        for index in reversed(indices):
            del self._keys[index]
            del self._items[index]
            del self._seqs[index]
        return dropped

    def snapshot(self) -> tuple[InferenceRequest, ...]:
        """Pending requests in pop order (for reports/tests)."""
        return tuple(self._items)
