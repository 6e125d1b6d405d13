"""The write-side update queue with same-target coalescing.

Under heavy update traffic many edge changes hit the same target node
(a paper accumulating citations, a video whose related-list is
rewritten).  Theorem 1 generalizes: *any* set of changes to one ``Q``
row is still rank-one, so a drain that groups pending updates by target
costs one pruned kernel run per distinct row instead of one per edge —
the engine's consolidated path.  The scheduler does the queue-side half
of that bargain:

* **cancellation** — an insert annihilates a pending delete of the same
  edge (and vice versa), so churn never reaches the kernel at all;
* **coalescing** — surviving updates are emitted grouped by target
  (removals before insertions within a group), which is exactly the
  shape :func:`repro.incremental.row_update.consolidate_batch` turns
  into composite row updates.

The scheduler is graph-agnostic and implements **net semantics**: only
the updates that survive cancellation are validated (by the engine, at
apply time).  A cancelled pair is never checked against the graph — an
invalid insert followed by its delete coalesces to a no-op rather than
raising the ``EdgeExistsError`` sequential application would have
produced.  Callers that need per-update validation should apply updates
through the engine directly instead of queueing them.  FIFO target
order is preserved (groups are emitted in first-touched order), which
keeps drains deterministic for the equivalence tests.

Its counts are registry instruments (:meth:`UpdateScheduler.report`).
A drain is counted when it pops the queue: a batch the engine rejects
is re-queued through :meth:`~UpdateScheduler.submit_many`, so it counts
as submitted again and as drained again when its retry pops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from ..graph.updates import EdgeUpdate, UpdateBatch
from ..telemetry import NULL_TELEMETRY


#: Bucket bounds of the row-groups-per-drain histogram (counts).
DRAIN_GROUP_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)


@dataclass
class _TargetGroup:
    """Pending net changes to one target's in-neighbor set."""

    added: Dict[int, None] = field(default_factory=dict)  # ordered set
    removed: Dict[int, None] = field(default_factory=dict)


class UpdateScheduler:
    """FIFO edge-update queue that coalesces per target at drain time.

    ``registry`` is the :class:`~repro.telemetry.MetricRegistry` its
    counts live in (None: the shared disabled one).
    """

    def __init__(self, registry=None) -> None:
        if registry is None:
            registry = NULL_TELEMETRY.registry
        self._submitted = registry.counter(
            "repro_scheduler_submitted_total", help="Updates submitted"
        )
        self._cancelled = registry.counter(
            "repro_scheduler_cancelled_pairs_total",
            help="Inverse update pairs cancelled in the queue",
        )
        self._drained = registry.counter(
            "repro_scheduler_drained_updates_total",
            help="Net updates popped by drains",
        )
        #: Per non-empty drain: its count is the drained batches, its
        #: sum the drained row groups.
        self._groups_hist = registry.histogram(
            "repro_scheduler_drain_groups",
            buckets=DRAIN_GROUP_BUCKETS,
            help="Row groups per drained batch",
        )
        self._groups: Dict[int, _TargetGroup] = {}
        self._pending = 0
        #: Targets whose group currently holds a net change — maintained
        #: incrementally so every target-level question is O(1): the
        #: backpressure fast path (:meth:`has_pending_target`), the
        #: :attr:`pending_targets` gauge (previously an O(#targets)
        #: scan per metrics read), and :attr:`active_targets`.
        self._active: set = set()

    def __len__(self) -> int:
        """Net updates currently pending (after cancellation).

        Maintained as a counter so the background writer's bounded-queue
        check is O(1) per submit rather than O(#targets).
        """
        return self._pending

    @property
    def pending_targets(self) -> int:
        """Distinct target rows the pending updates will touch (O(1))."""
        return len(self._active)

    @property
    def active_targets(self) -> frozenset:
        """The distinct pending target rows (a frozen O(1)-maintained view).

        One drained row group is produced per member, so consumers —
        metrics, tests — read this instead of scanning the queue.
        """
        return frozenset(self._active)

    def submit(self, update: EdgeUpdate) -> None:
        """Enqueue one edge update, cancelling against pending inverses."""
        self._submitted.inc()
        group = self._groups.setdefault(update.target, _TargetGroup())
        if update.is_insert:
            if update.source in group.removed:
                del group.removed[update.source]
                self._cancelled.inc()
                self._pending -= 1
            elif update.source not in group.added:
                # Duplicate same-direction submits are no-ops for the
                # net queue — the counter must not drift above it.
                group.added[update.source] = None
                self._pending += 1
        else:
            if update.source in group.added:
                del group.added[update.source]
                self._cancelled.inc()
                self._pending -= 1
            elif update.source not in group.removed:
                group.removed[update.source] = None
                self._pending += 1
        if group.added or group.removed:
            self._active.add(update.target)
        else:
            self._active.discard(update.target)

    def has_pending_target(self, target: int) -> bool:
        """Whether any net change to ``target``'s row is queued (O(1)).

        Used by the ``drop-coalesce`` backpressure policy: an update
        whose target already has a pending row group coalesces into it
        (or cancels a queued inverse) without adding a new kernel run,
        so it is accepted even when the queue is at capacity.
        """
        return target in self._active

    def pending_effect(self, source: int, target: int) -> "bool | None":
        """The queued net effect on edge ``(source, target)``, if any.

        Returns True when an insert is pending, False when a delete is
        pending, and None when the queue holds no net change for the
        edge.  The front door's update admission uses this to validate
        an incoming update against *graph ∪ queue* — an insert that is
        a duplicate only because an identical insert is already queued
        must be rejected up front, or the eventual drain would fail the
        whole batch (a poison batch pausing the background writer).
        """
        group = self._groups.get(target)
        if group is None:
            return None
        if source in group.added:
            return True
        if source in group.removed:
            return False
        return None

    def submit_many(self, updates: Iterable[EdgeUpdate]) -> None:
        """Enqueue a stream of updates."""
        for update in updates:
            self.submit(update)

    def drain(self) -> UpdateBatch:
        """Pop everything pending as one coalesced :class:`UpdateBatch`.

        Updates come out grouped by target (first-touched target order,
        removals before insertions within each group) — the layout the
        consolidated row-update path groups in a single pass.  Returns
        an empty batch when nothing is pending.
        """
        updates: List[EdgeUpdate] = []
        groups = 0
        for target, group in self._groups.items():
            if not group.added and not group.removed:
                continue
            groups += 1
            for source in group.removed:
                updates.append(EdgeUpdate.delete(source, target))
            for source in group.added:
                updates.append(EdgeUpdate.insert(source, target))
        self._groups.clear()
        self._active.clear()
        self._pending = 0
        if updates:
            self._drained.inc(len(updates))
            self._groups_hist.observe(groups)
        return UpdateBatch(updates)

    def report(self) -> dict:
        """The ``metrics_report()["scheduler"]`` section.

        Read off the registry instruments, so every count reads zero
        when telemetry is disabled.
        """
        groups = self._groups_hist
        drained = int(self._drained.value)
        return {
            "submitted": int(self._submitted.value),
            "cancelled_pairs": int(self._cancelled.value),
            "drained_updates": drained,
            "drained_batches": groups.count,
            "drained_groups": int(groups.sum),
            "max_drained_groups": int(groups.max),
            # Mean updates represented per drained row group (>= 1.0).
            "coalescing_ratio": drained / groups.sum if groups.sum else 1.0,
        }

    def peek(self) -> List[Tuple[int, int, int]]:
        """Pending net changes as ``(target, +adds, -removes)`` triples."""
        return [
            (target, len(group.added), len(group.removed))
            for target, group in self._groups.items()
            if group.added or group.removed
        ]

    def __repr__(self) -> str:
        return (
            f"UpdateScheduler(pending={len(self)}, "
            f"targets={self.pending_targets})"
        )
