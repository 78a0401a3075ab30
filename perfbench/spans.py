"""In-memory span tracer that wraps library bindings from outside.

``Tracer.install`` replaces each traced function on every module of the
package that binds it (``enumeration.Mag``-style imports included), and
wraps ``Mag.__init__`` in place so every construction is seen whatever
name the caller used.  No library file changes; ``uninstall`` puts every
binding back.

Spans are aggregated per (span, parent) as they close: calls, total time,
self time (the span minus the time its child spans cover) and, for
generators, items yielded.  Functions whose tail matters also keep every
call's duration.  Hooks that derive counts from arguments and results run
outside every span's clock, so they add to tracing overhead only.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

from magmoves.errors import InputError


class Tracer:
    def __init__(self) -> None:
        # (span, parent) -> [calls, total_s, self_s, yields]
        self.agg: dict[tuple[str, str], list] = {}
        self.samples: dict[str, array] = {}
        self.counts: Counter = Counter()
        self.sets: dict[str, set] = defaultdict(set)
        self._stack: list[list] = []  # open spans: [name, child_s]
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _close(self, name, parent, frame, dt, calls=1):
        rec = self.agg.get((name, parent))
        if rec is None:
            rec = self.agg[(name, parent)] = [0, 0.0, 0.0, 0]
        rec[0] += calls
        rec[1] += dt
        rec[2] += dt - frame[1]

    def _function(self, name, fn, hook, tail):
        stack, clock, close = self._stack, time.perf_counter, self._close
        samples = self.samples.setdefault(name, array("d")) if tail else None
        counts = self.counts

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else ""
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except InputError:
                counts[name + ".rejected"] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                close(name, parent, frame, t1 - t0)
                if stack:
                    stack[-1][1] += t1 - t0
            if samples is not None:
                samples.append(t1 - t0)
            if hook is not None:
                hook(self, args, result)
            if stack:
                stack[-1][1] += clock() - t1
            return result

        return traced

    def _generator(self, name, fn):
        stack, clock, close = self._stack, time.perf_counter, self._close

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else ""
            inner = fn(*args, **kwargs)  # creating a generator runs none of its body
            close(name, parent, [name, 0.0], 0.0)
            return _resume(inner, parent)

        def _resume(inner, parent):
            try:
                while True:
                    frame = [name, 0.0]
                    stack.append(frame)
                    t0 = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        dt = clock() - t0
                        stack.pop()
                        close(name, parent, frame, dt, calls=0)
                        if stack:
                            stack[-1][1] += dt
                    self.agg[(name, parent)][3] += 1
                    yield item
            finally:
                inner.close()

        return traced

    # -- installing --------------------------------------------------------

    def install(self, modules, targets) -> None:
        """Wrap each target on every module in ``modules`` that binds it.

        A target is ``(span, owner, attr, hook, tail)``.  When ``owner`` is a
        class, its ``attr`` method is wrapped in place instead.
        """
        for span, owner, attr, hook, tail in targets:
            orig = getattr(owner, attr)
            if inspect.isgeneratorfunction(orig):
                wrapped = self._generator(span, orig)
            else:
                wrapped = self._function(span, orig, hook, tail)
            if isinstance(owner, type):
                self._swap(owner, attr, orig, wrapped)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._swap(mod, key, orig, wrapped)

    def _swap(self, owner, key, orig, wrapped) -> None:
        setattr(owner, key, wrapped)
        self._undo.append((owner, key, orig))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)

    # -- reading -----------------------------------------------------------

    def total(self, name: str, field: int, parent: str | None = None):
        return sum(
            rec[field]
            for (span, par), rec in self.agg.items()
            if span == name and (parent is None or par == parent)
        )

    def tail_ms(self, name: str) -> float | None:
        """Highest per-call percentile with at least ten calls beyond it."""
        s = np.frombuffer(self.samples.get(name, array("d")), dtype=np.float64)
        if len(s) < 11:
            return None
        return float(np.partition(s, len(s) - 11)[len(s) - 11]) * 1e3

    def dump(self) -> dict:
        return {
            "spans": [
                {
                    "span": span,
                    "parent": parent,
                    "calls": rec[0],
                    "total_s": rec[1],
                    "self_s": rec[2],
                    "yields": rec[3],
                }
                for (span, parent), rec in sorted(self.agg.items())
            ],
            "counts": dict(self.counts),
        }


def package_modules() -> list:
    """The package and every loaded submodule, the bindings to patch."""
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "magmoves" or name.startswith("magmoves."))
    ]
