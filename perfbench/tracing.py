"""Span tracer for the traced benchmark run.

The library is not instrumented.  Instead, the public functions of each
module are replaced, by name, with timing wrappers in every cayleydist
module that binds them.  A call from one module into another goes through
such a module attribute (search -> metric.min_transposition_mf, metric ->
its own dist, ...), so it is caught as a child span of its caller.  The
wrappers are installed only around traced repetitions; untraced
repetitions call the original functions.

Spans (name, start, end, parent) are kept in flat arrays in memory and
written out when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import math
import time
from array import array
from collections import defaultdict
from types import ModuleType
from typing import Iterable, Iterator


def _order(args: tuple) -> int:
    """The order n a call works at, read from its first argument."""
    if not args:
        return 0
    first = args[0]
    if isinstance(first, int):
        return first
    for attr in ("n", "order"):  # GroupTable / Permutation, GroupKind
        value = getattr(first, attr, None)
        if isinstance(value, int):
            return value
    try:
        return len(first)  # a table given as rows
    except TypeError:
        return 0


class Tracer:
    """Timing wrappers for named library functions, plus their spans."""

    def __init__(
        self, targets: Iterable[tuple[str, ModuleType, str]], modules: Iterable[ModuleType]
    ) -> None:
        self.modules = tuple(modules)
        self.names: list[str] = []
        self._wrappers: list[tuple[str, object, object]] = []
        self._installed: list[tuple[ModuleType, str, object]] = []
        self.name_id = array("i")
        self.parent = array("q")
        self.order = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        for layer, module, fname in targets:
            original = getattr(module, fname)
            nid = len(self.names)
            self.names.append(f"{layer}.{fname}")
            if inspect.isgeneratorfunction(original):
                wrapper = self._wrap_generator(nid, original)
            else:
                wrapper = self._wrap(nid, original)
            self._wrappers.append((fname, original, wrapper))

    def install(self) -> None:
        for fname, original, wrapper in self._wrappers:
            for mod in self.modules:
                if getattr(mod, fname, None) is original:
                    setattr(mod, fname, wrapper)
                    self._installed.append((mod, fname, original))

    def uninstall(self) -> None:
        for mod, fname, original in reversed(self._installed):
            setattr(mod, fname, original)
        self._installed.clear()
        self._stack.clear()

    def span_count(self) -> int:
        return len(self.start)

    def _open(self, nid: int, args: tuple) -> int:
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.order.append(_order(args))
        self.end.append(math.nan)
        self.start.append(time.perf_counter())
        return sid

    def _wrap(self, nid: int, original):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            sid = self._open(nid, args)
            self._stack.append(sid)
            try:
                return original(*args, **kwargs)
            finally:
                self.end[sid] = time.perf_counter()
                self._stack.pop()

        return traced

    def _wrap_generator(self, nid: int, original):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self._consume(nid, args, original(*args, **kwargs))

        return traced

    def _consume(self, nid: int, args: tuple, inner: Iterator) -> Iterator:
        # The call only creates the generator; its work happens while it is
        # consumed, so the span runs from the first item to exhaustion.
        sid = self._open(nid, args)
        try:
            yield from inner
        finally:
            self.end[sid] = time.perf_counter()

    def spans(self, lo: int, hi: int) -> Iterator[tuple[str, int, int, float, float]]:
        """(name, parent, order, start, end) for spans lo..hi-1."""
        for sid in range(lo, hi):
            yield (
                self.names[self.name_id[sid]],
                self.parent[sid],
                self.order[sid],
                self.start[sid],
                self.end[sid],
            )

    def summary(self, lo: int, hi: int) -> dict[str, dict[str, float]]:
        """Total time, self time and calls per span name over spans lo..hi-1.

        Self time is a span's duration minus the part of its interval that
        its child spans cover; children may overlap (a generator consumed
        while a sibling runs), so their union is taken.
        """
        children: dict[int, list[int]] = defaultdict(list)
        for sid in range(lo, hi):
            if self.parent[sid] >= lo:
                children[self.parent[sid]].append(sid)
        out = {name: {"s": 0.0, "self_s": 0.0, "calls": 0} for name in self.names}
        for sid in range(lo, hi):
            start, end = self.start[sid], self.end[sid]
            covered, reach = 0.0, start
            for cid in sorted(children.get(sid, ()), key=self.start.__getitem__):
                c0, c1 = max(self.start[cid], reach), min(self.end[cid], end)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            entry = out[self.names[self.name_id[sid]]]
            entry["s"] += end - start
            entry["self_s"] += end - start - covered
            entry["calls"] += 1
        return out

    def write(self, path: str, reps: list[tuple[int, int]]) -> None:
        """Write every span, one per line, tab-separated and gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("rep\tspan\tparent\tname\tn\tstart\tend\n")
            for rep, (lo, hi) in enumerate(reps):
                for sid, (name, parent, n, start, end) in zip(
                    range(lo, hi), self.spans(lo, hi)
                ):
                    fh.write(f"{rep}\t{sid}\t{parent}\t{name}\t{n}\t{start!r}\t{end!r}\n")
