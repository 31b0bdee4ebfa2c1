"""In-memory span tracing for the benchmark's traced run.

The tracer wraps public functions of ``vsci`` at the names their callers look
up (``vsci.denoisers.conv_forward``, ``vsci.maps.gap_project``, ...), because
``vsci`` modules bind names with ``from .conv import conv_forward``: wrapping
``vsci.conv.conv_forward`` alone would miss those calls. Each call becomes a
span (name, start, end, parent); a layer's self time is its span's duration
minus the durations of its direct children. Nothing is written until
:meth:`Tracer.write` is called at the end of a run.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Collects nested spans and installs/removes function wraps."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.attrs: dict[int, dict] = {}
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object, bool]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(float("nan"))
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    # -- wraps -------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, hook=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span per call.

        ``hook(args, result)`` may return a dict of span attributes (flop
        counts, iteration counts). An exception is recorded as the span
        attribute ``raised`` and re-raised unchanged.
        """
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                tracer._close(idx)
                tracer.attrs[idx] = {"raised": type(exc).__name__}
                raise
            tracer._close(idx)
            if hook is not None:
                tracer.attrs[idx] = hook(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original, own))

    def unwrap_all(self) -> None:
        """Restore every wrapped name, newest first."""
        while self._installed:
            owner, attr, original, own = self._installed.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    @contextmanager
    def installed(self, targets):
        """Install ``(owner, attr, name, hook)`` wraps for the block's duration."""
        try:
            for owner, attr, name, hook in targets:
                self.wrap(owner, attr, name, hook)
            yield self
        finally:
            self.unwrap_all()

    # -- aggregation ---------------------------------------------------------

    def aggregate(self, root_name: str) -> "Summary":
        """Sum the spans that descend from roots named ``root_name``."""
        n = len(self.names)
        durations = [self.ends[i] - self.starts[i] for i in range(n)]
        child_sum = [0.0] * n
        root = [0] * n
        for i in range(n):
            p = self.parents[i]
            if p < 0:
                root[i] = i
            else:
                root[i] = root[p]
                child_sum[p] += durations[i]
        summary = Summary()
        for i in range(n):
            if self.names[root[i]] != root_name:
                continue
            if i == root[i]:
                summary.roots += 1
                continue
            parent = self.names[self.parents[i]]
            attrs = self.attrs.get(i, {})
            for key in (self.names[i], (parent, self.names[i])):
                summary.add(key, durations[i], durations[i] - child_sum[i], attrs)
        return summary

    def write(self, path: str) -> None:
        """Write spans as JSON lines: [name, start_s, end_s, parent_index, attrs]."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps([name, self.starts[i], self.ends[i],
                                     self.parents[i], self.attrs.get(i, {})]) + "\n")


class Summary:
    """Span totals keyed by span name and by (parent name, span name).

    Each record holds ``calls``, ``total_s`` (span durations), ``self_s``
    (durations minus direct children) and ``attrs`` (numeric attributes
    summed; a string attribute ``k: v`` is counted under ``"k:v"``).
    """

    def __init__(self):
        self.roots = 0
        self._recs: dict = {}

    def add(self, key, total: float, self_s: float, attrs: dict) -> None:
        rec = self._recs.setdefault(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                          "attrs": defaultdict(float)})
        rec["calls"] += 1
        rec["total_s"] += total
        rec["self_s"] += self_s
        for k, v in attrs.items():
            if isinstance(v, (bool, str)):
                rec["attrs"][f"{k}:{v}"] += 1
            else:
                rec["attrs"][k] += v

    def get(self, key, field: str = "self_s") -> float:
        rec = self._recs.get(key)
        return 0.0 if rec is None else float(rec[field])

    def attr(self, key, name: str) -> float:
        rec = self._recs.get(key)
        return 0.0 if rec is None else float(rec["attrs"].get(name, 0.0))

    def names(self) -> list:
        return [k for k in self._recs if isinstance(k, str)]
