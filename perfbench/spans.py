"""Call spans around the public functions of the traced subseqrep modules.

``traced(tracer)`` wraps every public function defined in ``cli``,
``core``, ``lcs``, ``tables``, ``lsrs`` and ``plus3`` and patches each
wrapper into every namespace that holds the original, because modules
import each other's functions by name (``tables`` calls its own
``lcs2_all_prefixes`` binding, not ``lcs.lcs2_all_prefixes``).  Module
objects come from ``sys.modules``: ``subseqrep.lsrs`` and
``subseqrep.plus3`` as attributes are the re-exported functions.

Spans are aggregated as they close: calls, inclusive time and self time
(inclusive minus the time of child spans) per ``module.function``.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
from dataclasses import dataclass
from time import perf_counter

MODULES = ("cli", "core", "lcs", "tables", "lsrs", "plus3")


# DP cells of one all-prefix LCS call, from its argument lengths
CELLS = {
    "lcs.lcs2_all_prefixes": lambda a, b: len(a) * len(b),
    "lcs.lcs3_all_prefixes": lambda a, b, c: len(a) * len(b) * len(c),
}


@dataclass
class Stat:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    cells: int = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.top_level = 0.0  # summed inclusive time of spans without a parent
        self._children: list[float] = []  # child time per open span

    def wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, Stat())
        stack = self._children
        cells = CELLS.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                d = perf_counter() - t0
                child = stack.pop()
                stat.calls += 1
                stat.total += d
                stat.self_time += d - child
                if cells is not None:
                    stat.cells += cells(*args, **kwargs)
                if stack:
                    stack[-1] += d
                else:
                    self.top_level += d

        return span

    def get(self, name: str) -> Stat:
        return self.stats.get(name, Stat())


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install spans for the duration of the block, then restore the originals."""
    modules = [sys.modules[f"subseqrep.{m}"] for m in MODULES]
    wrappers = {}
    for short, mod in zip(MODULES, modules):
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                wrappers[id(obj)] = (obj, tracer.wrap(f"{short}.{attr}", obj))
    patched = []
    for ns in modules + [sys.modules["subseqrep"]]:
        for attr, obj in list(vars(ns).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(ns, attr, hit[1])
                patched.append((ns, attr, obj))
    try:
        yield tracer
    finally:
        for ns, attr, obj in patched:
            setattr(ns, attr, obj)
