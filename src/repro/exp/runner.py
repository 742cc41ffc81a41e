"""Sweep orchestration: store lookups, backend dispatch, progress.

The runner resolves a spec into points, serves what it can from the
:class:`~repro.exp.store.ResultStore`, and hands the remaining points to
an execution backend (:mod:`repro.exp.backends`) — in-process, a
process pool, or one shard of a partitioned grid.  Every point is an
independent simulation with its own deterministic seed (the seed is part
of the point), so the execution schedule cannot change any result:
serial, ``jobs=N`` and sharded-then-merged runs are bit-identical.  Only
the parent process writes to the store, whatever the backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.exp.backends import SweepBackend, make_backend
from repro.exp.plugins import load_plugins, merge_plugins
from repro.exp.spec import ExperimentPoint, ExperimentSpec
from repro.exp.store import ResultStore
from repro.obs.metrics import registry
from repro.obs.spans import tracer
from repro.sim.simulator import SimulationResult, Simulator

_POINT_FIELDS = frozenset(ExperimentPoint.__dataclass_fields__)


def run_point(point: ExperimentPoint) -> SimulationResult:
    """Simulate one point, ignoring any store.

    The single simulation entry every backend funnels through (looked
    up late, as ``runner.run_point``, so tests can monkeypatch it).

    With tracing on (``$REPRO_TRACE``), the whole simulation is one
    ``point.simulate`` span — emitted from whichever process ran the
    point, including pool workers and fleet members, since they inherit
    the sink through the environment.  The span wraps the point, never
    the replay loop: zero per-request overhead either way.
    """
    trace = tracer()
    if not trace.enabled:
        return Simulator(point.config()).run()
    with trace.span(
        "point.simulate",
        key=point.key(),
        label=point.label(),
        design=point.design,
        workload=str(point.workload),
    ):
        return Simulator(point.config()).run()


@dataclass(frozen=True)
class SweepProgress:
    """One progress tick: ``completed`` of ``total`` points done."""

    completed: int
    total: int
    point: ExperimentPoint
    cached: bool


class SweepResult(Mapping):
    """Results of one sweep: a mapping from point to result.

    Besides plain mapping access, :meth:`get` looks a single result up by
    axis values (point fields and cache/system/timing override names)::

        sweep.get(workload="web_search", design="footprint", capacity_mb=256)
        sweep.get(workload="web_search", fht_entries=1024)
        sweep.get(workload="web_search", stacked_latency_scale=0.5)
    """

    def __init__(
        self,
        points: Iterable[ExperimentPoint],
        results: Dict[ExperimentPoint, SimulationResult],
        cached: Iterable[ExperimentPoint] = (),
        simulated: Iterable[ExperimentPoint] = (),
    ) -> None:
        self.points = tuple(points)
        self._results = dict(results)
        self.cached = frozenset(cached)
        self.simulated = frozenset(simulated)

    def __getitem__(self, point: ExperimentPoint) -> SimulationResult:
        return self._results[point]

    def __iter__(self) -> Iterator[ExperimentPoint]:
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def hits(self) -> int:
        """Points served from the store."""
        return len(self.cached)

    @property
    def misses(self) -> int:
        """Points that had to be simulated.

        Key-duplicate points (two spellings of one config) count in
        neither bucket: they are filled from the duplicate's single run.
        """
        return len(self.simulated)

    @staticmethod
    def _matches(point: ExperimentPoint, filters: Dict[str, object]) -> bool:
        kwargs = dict(point.cache_kwargs)
        kwargs.update(point.system_kwargs)
        kwargs.update(point.timing_kwargs)
        for name, wanted in filters.items():
            if name in _POINT_FIELDS:
                if getattr(point, name) != wanted:
                    return False
            elif name not in kwargs or kwargs[name] != wanted:
                return False
        return True

    def select(self, **filters) -> List[Tuple[ExperimentPoint, SimulationResult]]:
        """All (point, result) pairs matching the axis filters."""
        return [
            (point, self._results[point])
            for point in self.points
            if self._matches(point, filters)
        ]

    def get(self, **filters) -> SimulationResult:
        """The unique result matching the axis filters."""
        matches = self.select(**filters)
        if len(matches) != 1:
            raise KeyError(
                f"filters {filters!r} matched {len(matches)} points, expected 1"
            )
        return matches[0][1]


class SweepRunner:
    """Run sweeps against a store through a pluggable execution backend.

    Parameters
    ----------
    store:
        Result store consulted before and updated after each simulation;
        None disables persistence entirely.
    jobs:
        Worker processes: 1 (default) runs in-process, 0 means one per
        CPU, N > 1 uses a pool of N.  Shorthand for the default
        backends; ignored when ``backend`` is given explicitly.
    use_cache:
        When False, stored results are ignored (but fresh results are
        still written back) — the CLI's ``--no-cache``.
    progress:
        Optional callable receiving a :class:`SweepProgress` per point.
    backend:
        Any :class:`~repro.exp.backends.SweepBackend`.  Default: the
        backend ``jobs`` implies (serial for 1, a process pool
        otherwise).
    plugins:
        Plugin modules (:mod:`repro.exp.plugins`) to bootstrap in every
        execution context, merged with the spec's own ``plugins``.

    Guarantees:

    * **Determinism** — every point is an independent simulation with
      its own seed (the seed is part of the point), so serial,
      ``jobs=N``, sharded and store-served runs return bit-identical
      results.
    * **Single writer** — only the parent process appends to the store;
      backends yield results back as they complete, and each is
      persisted the moment it arrives, so an interrupted sweep keeps
      everything already simulated.
    * **Key dedup** — points that resolve to one config (two spellings
      of the same experiment) simulate once and share the result.
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        jobs: int = 1,
        use_cache: bool = True,
        progress: Optional[Callable[[SweepProgress], None]] = None,
        backend: Optional[SweepBackend] = None,
        plugins: Sequence[str] = (),
    ) -> None:
        if jobs < 0:
            raise ValueError("jobs must be non-negative")
        self.store = store
        self.jobs = jobs
        self.backend = backend if backend is not None else make_backend(jobs=jobs)
        self.use_cache = use_cache
        self.progress = progress
        self.plugins = tuple(plugins)

    def run_one(self, point: ExperimentPoint) -> SimulationResult:
        """One point through the store: lookup, else simulate and record."""
        if self.store is not None and self.use_cache:
            hit = self.store.get(point)
            if hit is not None:
                return hit
        result = run_point(point)
        if self.store is not None:
            self.store.put(point, result)
        return result

    def run(
        self,
        spec: Union[ExperimentSpec, Iterable[ExperimentPoint]],
        plugins: Sequence[str] = (),
    ) -> SweepResult:
        """Execute ``spec``'s points through the backend.

        The backend's :meth:`~repro.exp.backends.SweepBackend.select`
        runs on the full grid first (a shard backend claims its
        partition there), then store lookups, then execution of the
        remainder.  The returned :class:`SweepResult` covers exactly the
        selected points.

        Plugins bootstrapped for this run are the union of the runner's
        own, the per-call ``plugins`` (how :func:`~repro.reporting.run_figure`
        forwards its figure specs' plugins alongside a plain point
        iterable), and — when ``spec`` is an
        :class:`~repro.exp.spec.ExperimentSpec` — the spec's.
        """
        if isinstance(spec, ExperimentSpec):
            points = spec.points()
            plugins = merge_plugins(self.plugins, plugins, spec.plugins)
        else:
            points = tuple(spec)
            plugins = merge_plugins(self.plugins, plugins)
        load_plugins(plugins)
        points = tuple(self.backend.select(points))
        trace = tracer()
        backend_name = getattr(
            self.backend, "name", type(self.backend).__name__
        )
        with trace.span(
            "sweep.run", backend=backend_name, points=len(points)
        ) as run_span:
            results: Dict[ExperimentPoint, SimulationResult] = {}
            cached: List[ExperimentPoint] = []
            pending: List[ExperimentPoint] = []
            pending_keys = set()
            for point in points:
                hit = (
                    self.store.get(point)
                    if self.store is not None and self.use_cache
                    else None
                )
                if hit is not None:
                    results[point] = hit
                    cached.append(point)
                elif point.key() not in pending_keys:
                    # Distinct spellings of one config (e.g. a default written
                    # out explicitly) simulate once and share the result.
                    pending_keys.add(point.key())
                    pending.append(point)

            done = 0

            def report(point: ExperimentPoint, served: str) -> None:
                nonlocal done
                done += 1
                if trace.enabled:
                    trace.event(
                        "sweep.point",
                        key=point.key(),
                        label=point.label(),
                        served=served,
                    )
                if self.progress is not None:
                    self.progress(
                        SweepProgress(
                            done, len(points), point, served != "simulated"
                        )
                    )

            for point in cached:
                report(point, "store")

            if pending:
                # Completion order, not submission order: each result is
                # persisted the moment the backend yields it, so an
                # interrupted sweep keeps everything already simulated.
                with trace.span(
                    "sweep.execute", backend=backend_name, pending=len(pending)
                ):
                    for point, result in self.backend.execute(
                        pending, plugins=plugins
                    ):
                        results[point] = result
                        if self.store is not None:
                            self.store.put(point, result)
                        report(point, "simulated")

            # Key-duplicate points were simulated once; fill in the rest.
            # They count as neither store hits nor simulations.
            by_key = {point.key(): result for point, result in results.items()}
            for point in points:
                if point not in results:
                    results[point] = by_key[point.key()]
                    report(point, "duplicate")

            run_span.annotate(hits=len(cached), simulated=len(pending))

        reg = registry()
        counter = reg.counter(
            "repro_sweep_points_total",
            "sweep points by how they were served",
            served="store",
        )
        counter.inc(len(cached))
        reg.counter(
            "repro_sweep_points_total",
            "sweep points by how they were served",
            served="simulated",
        ).inc(len(pending))
        reg.counter(
            "repro_sweep_runs_total", "completed sweep runs", backend=backend_name
        ).inc()
        return SweepResult(points, results, cached, pending)
