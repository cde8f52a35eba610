"""Spans and counters recorded from outside the riemmean package.

`patch` swaps a function (or a method of the manifold classes) for a
wrapper in every riemmean module that holds it, so calls made inside the
package go through the wrapper too.  A target that no longer exists is
reported as absent instead of failing.  Spans are aggregated in memory per
name: calls, total time, self time (total minus the time of wrapped
callees) and calls that raised.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Iterable

perf_counter = time.perf_counter


def _riemmean_modules():
    return [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "riemmean"]


def patch(owner, attr: str, make_wrapper: Callable) -> list[tuple]:
    """Replace ``owner.attr`` by ``make_wrapper(original)``.

    ``owner`` is a class (the method is replaced on that class only, and only
    if the class defines it itself) or a module (every riemmean module
    binding the same function object is updated).  Returns the replaced
    bindings as ``(namespace, name, original)`` for `unpatch`; an empty list
    when the attribute does not exist.
    """
    original = vars(owner).get(attr)
    if original is None:
        return []
    wrapped = make_wrapper(original)
    owners = [owner] if isinstance(owner, type) else _riemmean_modules()
    replaced = [(o, k, original) for o in owners for k, v in list(vars(o).items())
                if v is original]
    for o, k, _ in replaced:
        setattr(o, k, wrapped)
    return replaced


def unpatch(replaced: Iterable[tuple]) -> None:
    for owner, name, original in replaced:
        setattr(owner, name, original)


class SpanStats:
    __slots__ = ("calls", "total", "self_time", "raised", "under_parent")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.raised = 0
        # time of spans whose direct wrapped caller is `Tracer.root_parent`
        self.under_parent = 0.0


class Tracer:
    """Aggregated spans with self time, plus free-form counters."""

    def __init__(self, root_parent: str):
        self.spans: dict[str, SpanStats] = {}
        self.counters: dict[str, int] = {}
        self.absent: set[str] = set()
        self._patched: list[tuple] = []
        self.root_parent = root_parent
        # one [name, time of wrapped callees] frame per open span
        self._stack: list[list] = []

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def span(self, name: str, on_call=None, on_return=None) -> Callable:
        """Wrapper factory for `patch`: records span ``name`` around each
        call; ``on_call(args, kwargs)`` and ``on_return(result)`` feed
        counters."""
        stats = self.spans.setdefault(name, SpanStats())
        stack = self._stack
        root_parent = self.root_parent

        def make(fn):
            def wrapper(*args, **kwargs):
                if on_call is not None:
                    on_call(args, kwargs)
                frame = [name, 0.0]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    out = fn(*args, **kwargs)
                except BaseException:
                    stats.raised += 1
                    raise
                finally:
                    dt = perf_counter() - t0
                    stack.pop()
                    stats.calls += 1
                    stats.total += dt
                    stats.self_time += dt - frame[1]
                    if stack:
                        parent = stack[-1]
                        parent[1] += dt
                        if parent[0] == root_parent:
                            stats.under_parent += dt
                if on_return is not None:
                    on_return(out)
                return out

            return wrapper

        return make

    def wrap(self, owner, attr: str, name: str, on_call=None, on_return=None) -> None:
        self.wrap_methods([owner], attr, name, on_call, on_return)

    def wrap_methods(self, owners, attr: str, name: str, on_call=None,
                     on_return=None) -> None:
        """One span over ``attr`` of every owner that defines it; the span
        is reported absent when none does."""
        make = self.span(name, on_call, on_return)
        patched = [b for owner in owners for b in patch(owner, attr, make)]
        if patched:
            self._patched += patched
        else:
            self.absent.add(name)
            del self.spans[name]

    def remove(self) -> None:
        """Restore every function wrapped since the last `remove`."""
        unpatch(reversed(self._patched))
        self._patched = []

    def present(self, name: str) -> bool:
        return name in self.spans
