"""Top-k push subscriptions: drain-driven deltas, digest-verified.

A WebSocket subscriber asks for the live top-``k`` pair ranking.  The
front door does not rebroadcast the full ranking on every drain — it
pushes **only what changed**:

* after each drain the hub recomputes the ranking through the engine's
  incremental shard-local index (bit-identical to a brute-force dense
  scan, the repo's standing guarantee) and diffs it against what each
  subscriber last saw;
* unchanged rankings push nothing at all, and drains that moved no
  tracked pair are skipped *without recomputing* via the top-k index's
  ``revision`` counter (read under the writer's apply lock, re-read
  after the query so an index replaced by a larger ``k`` is absorbed
  rather than re-triggering);
* a changed ranking pushes ``{positions changed, new size, digest}``
  where the digest is SHA-1 over the canonical full ranking — the
  client patches its copy and verifies the digest, so a missed or
  reordered delta is detected immediately instead of silently
  diverging.

Because both sides of the diff come from the bit-identical ranking
path, "the reconstructed client ranking equals a full recompute" is an
exact equality, not an approximation — the test suite and the load
generator both assert it.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
from typing import Dict, List, Optional, Tuple

from ..exceptions import ConfigError
from ..telemetry import NULL_TELEMETRY, GaugeGroup

Ranking = List[Tuple[int, int, float]]


def ranking_digest(ranking: Ranking) -> str:
    """SHA-1 over the canonical ranking text.

    Scores render via ``repr`` (shortest float64 round-trip), so two
    rankings digest equal **iff** they are bit-identical.
    """
    canonical = "|".join(
        f"{a},{b},{score!r}" for a, b, score in ranking
    )
    return hashlib.sha1(canonical.encode("ascii")).hexdigest()


def diff_ranking(old: Ranking, new: Ranking) -> List[list]:
    """Positions where ``new`` differs from ``old`` (wire-shaped).

    Each changed entry is ``[position, a, b, score]``; positions past
    ``len(new)`` are communicated by the delta's ``size`` field (the
    client truncates), so a shrink costs zero entries.
    """
    return [
        [position, entry[0], entry[1], entry[2]]
        for position, entry in enumerate(new)
        if position >= len(old) or old[position] != entry
    ]


def apply_delta(old: Ranking, size: int, changed: List[list]) -> Ranking:
    """Client-side reconstruction: patch ``old`` into the new ranking."""
    new = list(old[:size])
    if len(new) < size:
        new.extend([(0, 0, 0.0)] * (size - len(new)))
    for position, a, b, score in changed:
        new[position] = (int(a), int(b), float(score))
    return new


class _NullLock:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class Subscriber:
    """One WebSocket client's subscription state."""

    __slots__ = (
        "id",
        "k",
        "queue",
        "last_ranking",
        "last_revision",
        "last_version",
        "primed",
        "pushes",
        "skipped_by_revision",
        "quiet_rounds",
    )

    def __init__(self, subscriber_id: int, k: int, queue) -> None:
        self.id = subscriber_id
        self.k = k
        self.queue = queue
        self.last_ranking: Ranking = []
        self.last_revision: Optional[int] = None
        self.last_version: Optional[int] = None
        self.primed = False
        self.pushes = 0
        self.skipped_by_revision = 0
        self.quiet_rounds = 0


class TopKSubscriptions:
    """The subscription hub: registry + per-drain delta computation.

    ``add``/``remove`` run on the event loop; :meth:`poll` and
    :meth:`prime` run in the executor thread pool (they take the
    writer's apply lock around engine queries), so the registry is
    guarded by a plain mutex.
    """

    def __init__(self, service, max_k: int, registry=None) -> None:
        self._service = service
        self.max_k = int(max_k)
        self._subscribers: Dict[int, Subscriber] = {}
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.polls = 0
        self.deltas_pushed = 0
        if registry is None:
            registry = NULL_TELEMETRY.registry
        gauges = GaugeGroup(registry, "repro_subscriptions")
        gauges.expose("active", lambda: len(self._subscribers))
        gauges.expose("max_k", lambda: self.max_k)
        gauges.expose("polls", lambda: self.polls)
        gauges.expose("deltas_pushed", lambda: self.deltas_pushed)
        gauges.expose(
            "skipped_by_revision",
            lambda: self._sum_field("skipped_by_revision"),
        )
        gauges.expose(
            "quiet_rounds", lambda: self._sum_field("quiet_rounds")
        )
        self._gauges = gauges

    def _sum_field(self, field: str) -> int:
        with self._lock:
            return sum(
                getattr(subscriber, field)
                for subscriber in self._subscribers.values()
            )

    def __len__(self) -> int:
        return len(self._subscribers)

    def add(self, k: int, queue) -> Subscriber:
        if not (1 <= k <= self.max_k):
            raise ConfigError(
                f"subscription k must be in [1, {self.max_k}], got {k}"
            )
        subscriber = Subscriber(next(self._ids), int(k), queue)
        with self._lock:
            self._subscribers[subscriber.id] = subscriber
        return subscriber

    def remove(self, subscriber: Subscriber) -> None:
        with self._lock:
            self._subscribers.pop(subscriber.id, None)

    def drain_subscribers(self) -> List[Subscriber]:
        """Unregister everyone (shutdown); returns them for the
        terminal frame."""
        with self._lock:
            subscribers = list(self._subscribers.values())
            self._subscribers.clear()
        return subscribers

    # ------------------------------------------------------------- #
    # Blocking half (executor thread pool)
    # ------------------------------------------------------------- #

    def _apply_lock(self):
        writer = self._service.writer
        return writer.apply_lock if writer is not None else _NullLock()

    def prime(self, subscriber: Subscriber) -> dict:
        """Compute the initial full-ranking message for a new subscriber."""
        with self._apply_lock():
            ranking = self._service.engine.top_k(subscriber.k)
            index = self._service.engine.topk_index
            revision = index.revision if index is not None else None
            version = self._service.version
        subscriber.last_ranking = ranking
        subscriber.last_revision = revision
        subscriber.last_version = version
        subscriber.primed = True
        return {
            "type": "snapshot",
            "k": subscriber.k,
            "version": version,
            "ranking": [[a, b, score] for a, b, score in ranking],
            "digest": ranking_digest(ranking),
        }

    def poll(self) -> List[Tuple[Subscriber, dict]]:
        """One post-drain round: delta messages for changed subscribers.

        Runs every subscriber's skip/diff against **one** consistent
        engine state (the apply lock is held across the revision reads
        and every ranking query), so all deltas of a round describe the
        same version.
        """
        with self._lock:
            subscribers = [
                subscriber
                for subscriber in self._subscribers.values()
                if subscriber.primed
            ]
        if not subscribers:
            return []
        self.polls += 1
        messages: List[Tuple[Subscriber, dict]] = []
        try:
            with self._apply_lock():
                index = self._service.engine.topk_index
                revision = index.revision if index is not None else None
                stale = [
                    subscriber
                    for subscriber in subscribers
                    if revision is None
                    or subscriber.last_revision != revision
                ]
                for subscriber in subscribers:
                    if subscriber not in stale:
                        subscriber.skipped_by_revision += 1
                rankings: Dict[int, Ranking] = {}
                for subscriber in stale:
                    if subscriber.k not in rankings:
                        rankings[subscriber.k] = self._service.engine.top_k(
                            subscriber.k
                        )
                # Re-read after the queries: a k above the index's
                # capacity replaces it with one at a higher revision,
                # and absorbing that here keeps the next no-op drain
                # skippable.
                index = self._service.engine.topk_index
                revision_after = (
                    index.revision if index is not None else None
                )
                version = self._service.version
        except Exception:
            # A dying executor surfaces here (pipelined sync point);
            # the service's own failure handling owns it — this round
            # just pushes nothing.
            return []
        for subscriber in stale:
            ranking = rankings[subscriber.k]
            changed = diff_ranking(subscriber.last_ranking, ranking)
            shrunk = len(ranking) != len(subscriber.last_ranking)
            subscriber.last_revision = revision_after
            subscriber.last_version = version
            if not changed and not shrunk:
                subscriber.quiet_rounds += 1
                continue
            subscriber.last_ranking = ranking
            subscriber.pushes += 1
            self.deltas_pushed += 1
            messages.append(
                (
                    subscriber,
                    {
                        "type": "delta",
                        "k": subscriber.k,
                        "version": version,
                        "size": len(ranking),
                        "changed": changed,
                        "digest": ranking_digest(ranking),
                    },
                )
            )
        return messages

    def report(self) -> dict:
        """Subscription gauges for the metrics endpoint.

        Rendered through the :class:`GaugeGroup` so the JSON dict and
        the registry's Prometheus gauges share one set of readers; key
        names are the historical ones.
        """
        return self._gauges.report()
