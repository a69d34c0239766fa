"""In-memory spans around calls into xfermon, recorded from benchmark code.

A span is (id, name, start, end, parent id, thread id, items). The part of
a name before the first dot is the layer. Wrappers are installed on
attributes of xfermon objects, classes or modules for the traced run only,
and removed by ``restore``; nothing in xfermon itself changes. Spans are
kept in memory and written out once, when the run ends.
"""
from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("sim", "agent", "metrics", "collector", "diagnose")


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, items: int = 1):
        """Span around a block of benchmark code; yields a one-slot list
        whose value the block may set to the number of items it handled."""
        slot = [items]
        if not self.enabled:
            yield slot
            return
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield slot
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, threading.get_ident(), slot[0]))

    def wrap(self, name: str, fn, count=None):
        """``fn`` with a span per call while tracing is enabled.

        ``count(args, result)`` gives the items the call handled (default 1).
        """
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            items = count(args, result) if count is not None else 1
            tracer.spans.append((sid, name, start, end, parent, threading.get_ident(), items))
            return result

        return traced

    def patch(self, owner, attr: str, name: str, count=None, hook=None) -> None:
        """Replace ``owner.attr`` with a traced wrapper until ``restore``.

        ``hook(args, result)`` runs after each call while tracing is
        enabled, for bookkeeping that spans cannot express (queue lags).
        """
        had_own = attr in vars(owner)
        original = vars(owner).get(attr)
        fn = getattr(owner, attr)
        if hook is not None:
            inner = fn
            tracer = self

            def fn(*args, **kwargs):
                result = inner(*args, **kwargs)
                if tracer.enabled:
                    hook(args, result)
                return result

        setattr(owner, attr, self.wrap(name, fn, count))
        self._patches.append((owner, attr, had_own, original))

    def restore(self) -> None:
        for owner, attr, had_own, original in reversed(self._patches):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # ------------------------------------------------------------------
    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, items, total and self seconds.

        Self time is a span's duration minus that of its direct children,
        which always run on the same thread.
        """
        child_time: dict[int, float] = defaultdict(float)
        for sid, _, start, end, parent, _, _ in self.spans:
            if parent:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for sid, name, start, end, _, _, items in self.spans:
            agg = out.setdefault(name, {"calls": 0, "items": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["items"] += items
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child_time.get(sid, 0.0)
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Each layer's share of all self time, in percent, and span count."""
        by_layer = {layer: [0.0, 0] for layer in LAYERS}
        for name, agg in self.summary().items():
            layer = name.split(".", 1)[0]
            if layer in by_layer:
                by_layer[layer][0] += agg["self_s"]
                by_layer[layer][1] += agg["calls"]
        total = sum(v[0] for v in by_layer.values()) or 1.0
        out: dict[str, float] = {}
        for layer, (self_s, calls) in by_layer.items():
            out[f"{layer}.self_pct"] = 100.0 * self_s / total
            out[f"{layer}.spans"] = calls
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "name", "start", "end", "parent", "thread", "items")
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))))
                fh.write("\n")


def per_call(summary: dict, name: str, scale: float, per_item: bool = False) -> float:
    """Mean duration of one call (or one item) of ``name``, times ``scale``;
    0 when the workload made no such call."""
    agg = summary.get(name)
    count = agg and (agg["items"] if per_item else agg["calls"])
    return scale * agg["total_s"] / count if count else 0.0
