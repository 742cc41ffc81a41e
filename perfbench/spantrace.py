"""In-memory span tracing for the benchmark's traced runs.

The benchmark never edits the package: :func:`install` wraps the public
entry points of each layer (plus three private seams, named there) and
each serve client job in the child process of a traced pass, and a
:class:`Recorder` keeps every span in memory until the pass ends.
Spans sit at call boundaries that run a
handful of times per grid point or figure; nothing is recorded per
memory request.  Trace generation is timed per chunk of
:data:`GEN_CHUNK` requests, which is what lets a lazily consumed trace
(Fig. 4/12's analyses) be split from the analysis that consumes it.

:func:`self_times` turns spans into exclusive (self) time: a span's
duration minus the part of its interval covered by its children.
:func:`layer_report` sums self time per layer and derives the
per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import dataclasses
import functools
import threading
import time
from itertools import islice
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: Requests pulled from a workload generator per timed chunk.
GEN_CHUNK = 8192

#: The designs whose replay the benchmark reports one by one.
DESIGNS = ("baseline", "page", "footprint", "block", "ideal")

#: Layer of each span name.  Spans not listed (the benchmark's own
#: ``pass`` root) are not a layer: their self time is unattributed.
LAYER_OF_SPAN = {
    "workloads.gen": "workloads",
    "workloads.trace_cache": "workloads",
    "sim.run_point": "sim.build",
    "sim.run": "sim.replay",
    "exp.store.open": "exp.store.open",
    "exp.store.get": "exp.store.get",
    "exp.store.put": "exp.store.put",
    "exp.runner.sweep": "exp.runner.sweep",
    "reporting.run_figure": "reporting.run_figure",
    "reporting.render": "reporting.render",
    "analysis": "analysis",
    "serve.job": "serve.client",
}

#: Layers that wait on other threads instead of doing work; they are
#: left out of the share of wall time that leaf layers account for.
WAITING_LAYERS = frozenset({"serve.client"})


class Recorder:
    """Spans kept in memory, each with its parent on the same thread.

    A span is a dict: ``id``, ``parent`` (None for a thread's root),
    ``name``, ``start``/``end`` (``time.perf_counter`` seconds),
    ``thread`` and free-form ``attrs``.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _stack(self) -> List[Dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new(self, name: str, start: float, attrs: Dict[str, Any]) -> Dict[str, Any]:
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        return {
            "id": span_id,
            "parent": stack[-1]["id"] if stack else None,
            "name": name,
            "start": start,
            "end": start,
            "thread": threading.get_ident(),
            "attrs": attrs,
        }

    def begin(self, name: str, **attrs: Any) -> Dict[str, Any]:
        """Open a span on this thread; close it with :meth:`end`."""
        span = self._new(name, time.perf_counter(), attrs)
        self._stack().append(span)
        return span

    def end(self, span: Dict[str, Any]) -> None:
        span["end"] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    def leaf(self, name: str, start: float, end: float, **attrs: Any) -> None:
        """Record a finished span that had no children."""
        span = self._new(name, start, attrs)
        span["end"] = end
        with self._lock:
            self.spans.append(span)

    def current(self) -> Optional[Dict[str, Any]]:
        stack = self._stack()
        return stack[-1] if stack else None

    def wrap(self, name: str, func, attrs=None):
        """``func`` with every call recorded as a ``name`` span.

        ``attrs(args, kwargs)``, when given, names span attributes taken
        from the call's arguments.
        """

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = self.begin(name, **(attrs(args, kwargs) if attrs else {}))
            try:
                return func(*args, **kwargs)
            finally:
                self.end(span)

        return traced


def install(recorder: Recorder) -> None:
    """Wrap each layer's entry points so calls land in ``recorder``.

    Patches classes and module attributes of this process only; the
    traced pass runs in a child process of its own.  Three seams are
    private: ``ResultStore._load`` (a full parse of the store file is
    the store's *open*, whether first or after another writer appended),
    ``repro.vector.engine.build_kernel`` (whether a point ran a batch
    kernel or fell back to the scalar loop) and the figure registry,
    whose entries get a timed ``render``.
    """
    import repro.exp.runner as runner_module
    import repro.reporting as reporting
    import repro.reporting.figures as figures
    import repro.reporting.registry as registry
    import repro.vector.engine as vector_engine
    from repro.exp.runner import SweepRunner
    from repro.exp.store import ResultStore
    from repro.sim.simulator import Simulator
    from repro.workloads.synthetic import SyntheticWorkload
    from repro.workloads.trace import TraceCache

    generate = SyntheticWorkload.requests

    def chunked_requests(self, count):
        inner = generate(self, count)
        while True:
            start = time.perf_counter()
            chunk = list(islice(inner, GEN_CHUNK))
            if not chunk:
                return
            recorder.leaf(
                "workloads.gen", start, time.perf_counter(), requests=len(chunk)
            )
            yield from chunk

    SyntheticWorkload.requests = functools.wraps(generate)(chunked_requests)
    TraceCache.requests = recorder.wrap("workloads.trace_cache", TraceCache.requests)
    TraceCache.columnar = recorder.wrap("workloads.trace_cache", TraceCache.columnar)

    runner_module.run_point = recorder.wrap(
        "sim.run_point", runner_module.run_point
    )
    Simulator.run = recorder.wrap(
        "sim.run",
        Simulator.run,
        lambda args, kwargs: {
            "design": args[0].config.cache.design,
            "requests": args[0].config.num_requests,
        },
    )
    build_kernel = vector_engine.build_kernel

    def counted_build_kernel(sim):
        kernel = build_kernel(sim)
        span = recorder.current()
        if span is not None:
            span["attrs"]["kernel"] = kernel is not None
        return kernel

    vector_engine.build_kernel = counted_build_kernel

    load = ResultStore._load

    def timed_load(self):
        before = self._index
        start = time.perf_counter()
        index = load(self)
        if index is not before:
            recorder.leaf("exp.store.open", start, time.perf_counter(),
                          records=len(index))
        return index

    ResultStore._load = timed_load
    ResultStore.get = recorder.wrap("exp.store.get", ResultStore.get)
    ResultStore.put = recorder.wrap("exp.store.put", ResultStore.put)
    SweepRunner.run = recorder.wrap("exp.runner.sweep", SweepRunner.run)

    traced_run_figure = recorder.wrap(
        "reporting.run_figure",
        registry.run_figure,
        lambda args, kwargs: {"figure": args[0] if args else kwargs["name"]},
    )
    registry.run_figure = traced_run_figure
    reporting.run_figure = traced_run_figure
    for name, figure in list(registry._REGISTRY.items()):
        registry._REGISTRY[name] = dataclasses.replace(figure, render=recorder.wrap(
            "reporting.render", figure.render,
            lambda args, kwargs, name=name: {"figure": name},
        ))
    for name in ("density_profiles", "access_counts_per_page", "coverage_curve"):
        setattr(figures, name, recorder.wrap("analysis", getattr(figures, name)))

    import scenarios

    scenarios._Client.run_job = recorder.wrap("serve.job", scenarios._Client.run_job)


def _covered(intervals: Iterable[Tuple[float, float]], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(lo, start), min(hi, end)) for lo, hi in intervals if hi > start and lo < end
    )
    total = 0.0
    cursor = start
    for lo, hi in clipped:
        lo = max(lo, cursor)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: Sequence[Dict[str, Any]]) -> Dict[int, float]:
    """Each span's self time: its duration minus what its children cover.

    Children that overlap each other (or stick out of their parent)
    count once and only inside the parent's interval, so self time is
    never negative and the self times of a tree sum to its root's
    duration.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    return {
        span["id"]: (span["end"] - span["start"])
        - _covered(children.get(span["id"], ()), span["start"], span["end"])
        for span in spans
    }


def _ancestor_attr(span, by_id, name: str, key: str):
    """``attrs[key]`` of the nearest ancestor span called ``name``."""
    parent = by_id.get(span["parent"])
    while parent is not None:
        if parent["name"] == name:
            return parent["attrs"].get(key)
        parent = by_id.get(parent["parent"])
    return None


def layer_report(spans: Sequence[Dict[str, Any]], wall_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced pass, by metric name.

    Times are self times summed over the pass, in seconds; a layer the
    workload does not exercise reads 0.  ``layers.leaf_share_pct`` is
    the share of ``wall_s`` that named layers account for.
    """
    own = self_times(spans)
    by_id = {span["id"]: span for span in spans}
    layer_s: Dict[str, float] = {}
    replay_s = dict.fromkeys(DESIGNS, 0.0)
    replay_requests = dict.fromkeys(DESIGNS, 0)
    analysis_s = {"fig04": 0.0, "fig12": 0.0}
    out: Dict[str, float] = {
        "workloads.gen_requests": 0,
        "vector.kernel_points": 0,
        "vector.fallback_points": 0,
        "exp.store.opens": 0,
        "exp.store.get_calls": 0,
        "exp.store.put_calls": 0,
        "reporting.figures": 0,
    }
    for span in spans:
        layer = LAYER_OF_SPAN.get(span["name"])
        if layer is None:
            continue
        seconds = own[span["id"]]
        layer_s[layer] = layer_s.get(layer, 0.0) + seconds
        attrs = span["attrs"]
        name = span["name"]
        if name == "workloads.gen":
            out["workloads.gen_requests"] += attrs["requests"]
        elif name == "sim.run":
            design = attrs["design"]
            if design in replay_s:
                replay_s[design] += seconds
                replay_requests[design] += attrs["requests"]
            if "kernel" in attrs:
                out["vector.kernel_points" if attrs["kernel"]
                    else "vector.fallback_points"] += 1
        elif name == "exp.store.open":
            out["exp.store.opens"] += 1
        elif name == "exp.store.get":
            out["exp.store.get_calls"] += 1
        elif name == "exp.store.put":
            out["exp.store.put_calls"] += 1
        elif name == "reporting.render":
            out["reporting.figures"] += 1
        elif name == "analysis":
            figure = _ancestor_attr(span, by_id, "reporting.render", "figure")
            if figure in analysis_s:
                analysis_s[figure] += seconds
    out["workloads.gen_s"] = layer_s.get("workloads", 0.0)
    out["sim.build_s"] = layer_s.get("sim.build", 0.0)
    for design in DESIGNS:
        out[f"sim.replay_s.{design}"] = replay_s[design]
        out[f"sim.requests_per_s.{design}"] = (
            replay_requests[design] / replay_s[design] if replay_s[design] else 0.0
        )
    for name in ("open", "get", "put"):
        out[f"exp.store.{name}_s"] = layer_s.get(f"exp.store.{name}", 0.0)
    out["exp.runner.sweep_s"] = layer_s.get("exp.runner.sweep", 0.0)
    out["reporting.run_figure_s"] = layer_s.get("reporting.run_figure", 0.0)
    out["reporting.render_s"] = layer_s.get("reporting.render", 0.0)
    out["analysis.fig04_s"] = analysis_s["fig04"]
    out["analysis.fig12_s"] = analysis_s["fig12"]
    working = sum(s for layer, s in layer_s.items() if layer not in WAITING_LAYERS)
    out["layers.leaf_share_pct"] = 100.0 * working / wall_s if wall_s > 0 else 0.0
    return out
