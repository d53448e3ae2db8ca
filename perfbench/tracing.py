"""Spans recorded from the benchmark's own files.

The package itself is never edited: a Tracer replaces, for the length of a
traced run, the module attributes through which one bayescfar module calls
the layer below it, and puts the originals back afterwards. Each call through
a replaced attribute becomes a span (name, start, end, parent). Spans are
kept in memory in flat arrays and only summarised or written out at the end.

A span name is "<layer>.<what>"; the layer is the bayescfar module the
callee lives in, or "bench" for the benchmark's own loop and checks.
"""

from __future__ import annotations

import importlib
import threading
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

# (module whose global is replaced, attribute, span name). A boundary whose
# attribute does not exist in the code under test is skipped and reported.
BOUNDARIES = (
    ("bayescfar.simulate", "bayes_os_decide", "detectors.decide.bayes_os"),
    ("bayescfar.simulate", "ca_cfar_decide", "detectors.decide.ca_cfar"),
    ("bayescfar.simulate", "min_cfar_decide", "detectors.decide.min_cfar"),
    ("bayescfar.simulate", "threshold_multiplier", "detectors.threshold_multiplier"),
    ("bayescfar.simulate", "CrpWindow", "clutter_models.window_build"),
    ("bayescfar.simulate", "estimate_pfa", "simulate.estimate_pfa"),
    ("bayescfar.detectors", "kth_order_statistic", "clutter_models.kth_order_statistic"),
    ("bayescfar.detectors", "window_sum", "clutter_models.window_sum"),
    ("bayescfar.detectors", "os_pfa", "predictive.os_pfa"),
    ("bayescfar.detectors", "solve_monotone_decreasing", "numerics.bisect"),
    ("bayescfar.predictive", "alternating_binomial_sum", "numerics.altsum"),
    ("bayescfar.predictive", "integrate_semi_infinite", "numerics.quad"),
    ("bayescfar.cli", "bayes_os_threshold", "detectors.bayes_os_threshold"),
    ("bayescfar.cli", "os_pfa", "predictive.os_pfa"),
    ("bayescfar.cli", "scan_profile", "simulate.scan_profile"),
    ("bayescfar.cli", "estimate_pfa", "simulate.estimate_pfa"),
)

def _observe_cancellation(tracer: "Tracer", result) -> None:
    # AlternatingSum.cancellation picks the os_pfa tier: float series up to
    # 1e4, exact rational recheck above, quadrature fallback above 1e8
    ratio = getattr(result, "cancellation", None)
    if ratio is None:
        return
    if ratio > 1e4:
        tracer.count("numerics.altsum.cancellation_gt_1e4")
    if ratio > 1e8:
        tracer.count("numerics.altsum.cancellation_gt_1e8")


_OBSERVERS = {"numerics.altsum": _observe_cancellation}


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Stand-in for untraced runs: spans cost one attribute lookup."""

    def span(self, name: str):
        return _NULL_SPAN

    def suspended(self):
        return _NULL_SPAN

    def install(self) -> None:
        pass

    def uninstall(self) -> None:
        pass


class _Span:
    __slots__ = ("tracer", "name_id", "index")

    def __init__(self, tracer: "Tracer", name_id: int):
        self.tracer = tracer
        self.name_id = name_id

    def __enter__(self):
        self.index = self.tracer._open(self.name_id)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.index)
        return False


class _Suspended:
    __slots__ = ("tracer",)

    def __init__(self, tracer: "Tracer"):
        self.tracer = tracer

    def __enter__(self):
        self.tracer._suspended = True
        return self

    def __exit__(self, *exc):
        self.tracer._suspended = False
        return False


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = {}
        self.missing: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._suspended = False

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name_id: int) -> int:
        stack = self._stack()
        with self._lock:
            index = len(self.start)
            self.name_id.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            self.start.append(perf_counter())
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack().pop()

    def span(self, name: str) -> _Span:
        return _Span(self, self._id(name))

    def count(self, name: str) -> None:
        self.counters[name] = self.counters.get(name, 0) + 1

    def suspended(self) -> _Suspended:
        """Calls through the wrappers go unrecorded inside this block."""
        return _Suspended(self)

    def _wrap(self, fn, name: str):
        name_id = self._id(name)
        observe = _OBSERVERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if tracer._suspended:
                return fn(*args, **kwargs)
            index = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if observe is not None:
                observe(tracer, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace each boundary attribute with a span-recording wrapper."""
        for module_name, attr, name in BOUNDARIES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(original, name))
            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        """Put back every attribute install replaced."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def summary(self) -> dict:
        """Calls, inclusive and self seconds per span name, and top-level time.

        A span's self time is its duration minus the durations of its direct
        children, so the self times of all spans add up to the time covered
        by top-level spans.
        """
        names = self.names
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        own = dur - child
        width = len(names)
        calls = np.bincount(ids, minlength=width)
        incl = np.bincount(ids, weights=dur, minlength=width)
        self_s = np.bincount(ids, weights=own, minlength=width)
        return {
            "spans": int(len(dur)),
            "top_level_s": float(dur[~nested].sum()),
            "by_name": {
                name: {"calls": int(calls[i]), "incl_s": float(incl[i]), "self_s": float(self_s[i])}
                for i, name in enumerate(names)
            },
            "counters": dict(self.counters),
            "missing": list(self.missing),
        }

    def save(self, path: Path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
