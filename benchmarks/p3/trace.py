"""Outside-in span tracer for the P3 benchmark.

The tracer never edits the program under test.  It replaces attributes
(class methods, module-level bindings) with wrappers that record one
span per call and restores the identical original objects afterwards.
A span is ``(layer, name, start_ns, end_ns, parent, tid, tag, counts)``:

- ``parent`` is the id of the innermost open span on the same thread,
  or -- for layers declared with ``inherit`` -- the latest open span of
  the named layer when the thread has none (a dispatch thread inherits
  the ``submit`` call that started it);
- ``tag`` is an optional value taken from the call's arguments (a shard
  id), used to stitch spans of forked worker processes under the server
  span that waited for them;
- ``counts`` is, for layers declared with a ``counts`` callable, how much
  that callable's totals grew during the call (simulated work done in a
  papid worker call), else None.

Spans stay in memory and are written out once, at the end.  Self time
is a span's duration minus the part of it that its children cover
(:func:`self_times`); children may run concurrently on other threads,
so their intervals are merged before subtracting.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
import types
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: span record field order (kept as tuples: thousands per second).
FIELDS = ("layer", "name", "start_ns", "end_ns", "parent", "tid", "tag",
          "counts")

_ABSENT = object()


class Tracer:
    """Installs span-recording wrappers and holds the recorded spans."""

    def __init__(self) -> None:
        self.spans: Dict[int, tuple] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._latest_open: Dict[str, int] = {}
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- patching -------------------------------------------------------

    def patch(self, owner: Any, attr: str, new: Any) -> None:
        """Set ``owner.attr = new``, remembering what to restore."""
        original = vars(owner).get(attr, _ABSENT)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, new)

    def restore(self) -> None:
        """Undo every patch, newest first, to the identical originals."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def reset(self) -> None:
        """Drop recorded spans (a forked child starts with none)."""
        self.spans = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._latest_open = {}

    # -- spans ----------------------------------------------------------

    def traced(self, fn: Callable, layer: str, name: Optional[str] = None,
               tag: Optional[Callable[[tuple], Any]] = None,
               inherit: Optional[str] = None,
               counts: Optional[Callable[[], Dict[str, int]]] = None
               ) -> Callable:
        """A wrapper around *fn* that records one span per call.

        *counts* is read at the start and end of the call, inside the
        span, so its own cost is billed to this layer's self time.
        """
        name = name or getattr(fn, "__qualname__", repr(fn))
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if stack:
                parent = stack[-1]
            elif inherit is not None:
                parent = tracer._latest_open.get(inherit, -1)
            else:
                parent = -1
            sid = next(tracer._ids)
            prev_open = tracer._latest_open.get(layer, -1)
            tracer._latest_open[layer] = sid
            stack.append(sid)
            t0 = clock()
            before = counts() if counts is not None else None
            try:
                return fn(*args, **kwargs)
            finally:
                grew = None
                if counts is not None:
                    after = counts()
                    grew = {k: after[k] - before[k] for k in after}
                t1 = clock()
                stack.pop()
                tracer._latest_open[layer] = prev_open
                tracer.spans[sid] = (
                    layer, name, t0, t1, parent, threading.get_ident(),
                    tag(args) if tag is not None else None, grew,
                )

        return wrapper

    def wrap(self, owner: Any, attr: str, layer: str, **kw) -> None:
        """Trace ``owner.attr`` (a function or method) as *layer*."""
        fn = getattr(owner, attr)
        qual = f"{getattr(owner, '__name__', owner)}.{attr}"
        self.patch(owner, attr, self.traced(fn, layer, name=qual, **kw))

    def wrap_public(self, cls: type, layer: str) -> None:
        """Trace every public plain method defined on *cls* itself."""
        for attr, value in sorted(vars(cls).items()):
            if not attr.startswith("_") and isinstance(
                value, types.FunctionType
            ):
                self.wrap(cls, attr, layer)

    def wrap_overrides(self, base: type, attrs: Iterable[str],
                       layer: str) -> None:
        """Trace *attrs* on *base* and on every subclass overriding them."""
        for cls in [base, *all_subclasses(base)]:
            for attr in attrs:
                if isinstance(vars(cls).get(attr), types.FunctionType):
                    self.wrap(cls, attr, layer)

    def wrap_factory(self, owner: Any, attr: str, layer: str) -> None:
        """Trace the callables that ``owner.attr(...)`` returns."""
        factory = getattr(owner, attr)
        tracer = self

        @functools.wraps(factory)
        def make(*args, **kwargs):
            return tracer.traced(factory(*args, **kwargs), layer)

        self.patch(owner, attr, make)

    # -- output ---------------------------------------------------------

    def records(self) -> List[dict]:
        return [
            dict(zip(("id",) + FIELDS, (sid,) + rec))
            for sid, rec in sorted(self.spans.items())
        ]

    def dump(self, path: str) -> None:
        """Write spans as JSON lines, after a ``{"pid": ...}`` header."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"pid": os.getpid()}) + "\n")
            for rec in self.records():
                fh.write(json.dumps(rec) + "\n")


def all_subclasses(cls: type) -> List[type]:
    out, todo = [], list(cls.__subclasses__())
    while todo:
        sub = todo.pop()
        if sub not in out:
            out.append(sub)
            todo.extend(sub.__subclasses__())
    return out


def load_dump(path: str) -> Tuple[dict, List[dict]]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    return lines[0], lines[1:]


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------


def union_length(intervals: Iterable[Tuple[int, int]]) -> int:
    """Total length covered by possibly overlapping ``[lo, hi)`` pairs."""
    total = 0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: List[dict]) -> Dict[Any, int]:
    """Span id -> self ns: duration minus what its children cover.

    Children are clipped to the parent's interval (a worker span cannot
    bill more than the wait that contained it).
    """
    children: Dict[Any, List[Tuple[int, int]]] = {}
    for s in spans:
        if s["parent"] != -1:
            children.setdefault(s["parent"], []).append(
                (s["start_ns"], s["end_ns"])
            )
    out = {}
    for s in spans:
        lo, hi = s["start_ns"], s["end_ns"]
        kids = [
            (max(a, lo), min(b, hi))
            for a, b in children.get(s["id"], ())
            if min(b, hi) > max(a, lo)
        ]
        out[s["id"]] = (hi - lo) - union_length(kids)
    return out
