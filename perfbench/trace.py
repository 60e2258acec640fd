"""Spans recorded from outside sylk, around the calls into each layer.

A span is ``(name, start, end, parent, run_id)``; the layer is the name's
prefix before the first dot.  Spans are kept in memory and written out
when the run ends.  The benchmark opens spans around its own calls into
sylk's public functions, and :class:`Patches` wraps the module-level
names ``run_flagship`` calls (``route_and_write``, ``Manifest.commit``,
...) so their calls inside sylk are spanned too.  Only driver-side calls
are seen: work inside Ray tasks is part of the driver call that waits
for it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import threading
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float | None
    parent: int  # index into Tracer.spans, -1 for a root
    run_id: str

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class NullTracer:
    """The untraced stand-in: spans cost one ``nullcontext``."""

    def span(self, name: str):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()

    @contextlib.contextmanager
    def span(self, name: str):
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            # a thread that run_flagship starts for a unit has no span of
            # its own yet: its parent is the main thread's open span
            main = self._stacks.get(self._main) or [-1]
            parent = stack[-1] if stack else main[-1]
            idx = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), None, parent,
                                   self.run_id))
            stack.append(idx)
        try:
            yield idx
        finally:
            end = time.perf_counter()
            with self._lock:
                self.spans[idx].end = end
                stack.pop()

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def children(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = {}
        for i, s in enumerate(self.spans):
            kids.setdefault(s.parent, []).append(i)
        return kids

    def subtree(self, root: int) -> list[int]:
        kids = self.children()
        out, todo = [], [root]
        while todo:
            i = todo.pop()
            out.append(i)
            todo.extend(kids.get(i, []))
        return out

    def self_times(self, root: int) -> dict[str, float]:
        """Seconds of ``root``'s wall attributed to each layer.

        At every instant the time goes to the innermost open spans; when
        several run at once (run_flagship's unit threads) it is split
        evenly between them.  The values therefore sum to the root's
        wall exactly."""
        ids = self.subtree(root)
        parent = {i: self.spans[i].parent for i in ids}
        cuts = sorted({t for i in ids for t in (self.spans[i].start,
                                                self.spans[i].end)})
        out: dict[str, float] = {}
        for a, b in zip(cuts, cuts[1:]):
            active = {i for i in ids
                      if self.spans[i].start <= a and self.spans[i].end >= b}
            leaves = active - {parent[i] for i in active}
            for i in leaves:
                layer = self.spans[i].layer
                out[layer] = out.get(layer, 0.0) + (b - a) / len(leaves)
        return out

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps({"name": s.name, "start": s.start,
                                    "end": s.end, "parent": s.parent,
                                    "run_id": s.run_id}) + "\n")


class Patches:
    """Wrap module attributes for the traced run, and undo it.

    A name that no longer exists is recorded in ``absent`` instead of
    failing the run: the layers it fed report as absent."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.absent: dict[str, str] = {}
        self._undo: list[tuple[object, str, object]] = []

    def _target(self, path: str):
        mod_name, _, attr = path.rpartition(".")
        owner = None
        try:
            owner = importlib.import_module(mod_name)
        except ImportError:
            # "pkg.module.Class.method": import the module, then getattr
            mod2, _, cls = mod_name.rpartition(".")
            try:
                owner = getattr(importlib.import_module(mod2), cls, None)
            except ImportError:
                owner = None
        if owner is None or not hasattr(owner, attr):
            self.absent[path] = "no longer exists"
            return None, attr, None
        return owner, attr, getattr(owner, attr)

    def span(self, path: str, span_name: str, after=None) -> None:
        """Wrap ``path`` so each call is a span named ``span_name``;
        ``after(result, args, kwargs)`` records counts outside the span."""
        owner, attr, orig = self._target(path)
        if owner is None:
            return
        tracer = self.tracer

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            with tracer.span(span_name):
                res = orig(*args, **kwargs)
            if after is not None:
                after(res, args, kwargs)
            return res

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def counter(self, path: str, count_name: str, measure=None) -> None:
        """Wrap ``path`` to count its calls (or ``measure(result)``) with
        no span: for names called per row or per probe."""
        owner, attr, orig = self._target(path)
        if owner is None:
            return
        tracer = self.tracer

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            res = orig(*args, **kwargs)
            tracer.count(count_name, 1 if measure is None else measure(res))
            return res

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()
