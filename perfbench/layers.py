"""Per-layer timing from outside the program.

:class:`LayerTimer` replaces public functions and methods of the
program's modules with wrappers that time each call; :meth:`restore`
puts the originals back, and :meth:`install` may wrap them again, so a
run can alternate traced and untraced legs.  Nested wrapped calls are
tracked on a stack, so every call records its wall time and its self
time (wall time minus the wrapped calls made inside it).
:class:`PlanCounter` counts the work in each applied plan and reads no
clock; it runs in traced and untraced runs alike, so both report the
same work counts.

Single-threaded use only: the in-process workloads call the program
from one thread.
"""

from __future__ import annotations

import contextlib
import functools
import time
from typing import Callable, Dict, List, Sequence, Tuple


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def replace(self, owner, attribute: str, make: Callable) -> None:
        original = owner.__dict__[attribute]
        self._undo.append((owner, attribute, original))
        setattr(owner, attribute, make(original))

    def restore(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)


class LayerTimer:
    """Wall and self time of every call to the wrapped functions.

    ``targets`` are ``(owner, attribute, name)`` triples: a module
    function or class method and the metric it feeds.  ``calls[name]``
    is a list of ``(wall_seconds, self_seconds)``; calls land only while
    :attr:`recording` is true, so set-up and warm-up work is excluded.
    """

    def __init__(self, targets: Sequence[Tuple[object, str, str]]) -> None:
        self.targets = tuple(targets)
        self.calls: Dict[str, List[Tuple[float, float]]] = {
            name: [] for _, _, name in self.targets
        }
        self.recording = False
        self._stack: List[List[float]] = []
        self._patches = _Patches()

    def _make(self, name: str):
        samples = self.calls[name]
        stack = self._stack

        def make(original):
            @functools.wraps(original)
            def timed(*args, **kwargs):
                children = [0.0]
                stack.append(children)
                started = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    wall = time.perf_counter() - started
                    stack.pop()
                    if stack:
                        stack[-1][0] += wall
                    if self.recording:
                        samples.append((wall, wall - children[0]))

            return timed

        return make

    def install(self) -> None:
        for owner, attribute, name in self.targets:
            self._patches.replace(owner, attribute, self._make(name))

    def restore(self) -> None:
        self._patches.restore()

    @contextlib.contextmanager
    def active(self):
        """Install and record every call for the duration of a ``with``."""
        self.install()
        self.recording = True
        try:
            yield self
        finally:
            self.recording = False
            self.restore()

    def walls(self, name: str) -> List[float]:
        return [wall for wall, _ in self.calls.get(name, ())]

    def selfs(self, name: str) -> List[float]:
        return [own for _, own in self.calls.get(name, ())]

    def total(self, name: str) -> float:
        return sum(self.walls(name))


class PlanCounter:
    """Counts the work of every plan the score store applies.

    Wraps ``apply_plan`` of the given score-store class; per applied
    non-empty plan it adds the plan rank, the scatter block
    ``|rows| × |cols|`` (written twice, block and transpose) and the
    Theorem-4 affected area the kernel recorded while planning (summed
    over its iterations).
    """

    FIELDS = (
        "plans", "plan_rank_sum", "scatter_entries", "affected_area",
        "affected_iterations",
    )

    def __init__(self, score_store_class) -> None:
        self.counting = False
        self.totals = dict.fromkeys(self.FIELDS, 0)
        self._patches = _Patches()
        totals = self.totals

        def make(original):
            @functools.wraps(original)
            def counted(store, plan):
                if self.counting and not plan.is_noop:
                    totals["plans"] += 1
                    totals["plan_rank_sum"] += plan.rank
                    totals["scatter_entries"] += plan.support_size()
                    if plan.affected is not None:
                        totals["affected_area"] += sum(
                            plan.affected.area_sizes()
                        )
                        totals["affected_iterations"] += (
                            plan.affected.iterations
                        )
                return original(store, plan)

            return counted

        self._patches.replace(score_store_class, "apply_plan", make)

    def counts(self) -> Dict[str, int]:
        return dict(self.totals)

    def restore(self) -> None:
        self._patches.restore()


def difference(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    """Per-key ``after - before`` of two count snapshots."""
    return {key: after[key] - before.get(key, 0) for key in after}


def accumulate(into: Dict[str, int], counts: Dict[str, int]) -> None:
    for key, value in counts.items():
        into[key] = into.get(key, 0) + value
