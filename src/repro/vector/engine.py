"""Segmented replay: the one path every ``Simulator.run()`` takes.

:func:`replay` owns what a run shares across designs (Section 5.4): the
request stream, the warm-up phase ending in a stats reset *before* the
first measured request, the request budget and the summary.  It cuts
the stream into segments (:mod:`repro.vector.columns`: a trace and a
range, read as NumPy column slices or as request objects) and
hands each to a consumer with one method,
``run_segment(cols) -> instructions``: the design's batch kernel
(:mod:`repro.vector.kernels`) when one matches, otherwise
:class:`ScalarReplay`, the scalar reference.  ``Simulator(config,
engine="interp")`` picks the scalar consumer for every design; the
equivalence tests compare the kernels against it.

* Cached segments carry the trace's memoised request objects, so the
  scalar consumer never rebuilds them.
* Generator workloads and explicit request lists are drained through one
  ``islice`` per segment, which leaves a generator suspended at its last
  yield, so a continuation run on the same system resumes identically.
"""

from __future__ import annotations

from itertools import islice

from repro.obs.metrics import registry
from repro.vector.columns import trace_segment
from repro.vector.kernels import build_kernel
from repro.workloads.synthetic import SyntheticWorkload
from repro.workloads.trace import MAX_CACHED_REQUESTS, Trace, shared_trace_cache

# Requests per segment.  Large enough to amortise the NumPy precompute,
# small enough that the per-segment lists stay cache-friendly; tests
# shrink it to exercise segment-boundary behaviour.
SEGMENT_REQUESTS = 1 << 16


class ScalarReplay:
    """The scalar reference consumer (also the no-kernel fallback).

    Requests enter at the system's frontend: the DRAM cache itself, or
    the extra-L2 slice in front of it (Section 6.3).  The per-core time
    accounting is inlined: same arithmetic, in the same order, as
    ``PerformanceModel.core_now``/``advance`` (see test_perf_model).
    """

    def __init__(self, sim) -> None:
        self.access = sim.system.frontend.access
        self.perf = sim.perf

    def run_segment(self, cols) -> int:
        access = self.access
        perf = self.perf
        core_time = perf._core_time
        num_cores = perf.num_cores
        base_cpi = perf.base_cpi
        exposed = perf.exposed_latency_fraction
        instructions = 0
        for request in cols.requests():
            core = request.core_id % num_cores
            result = access(request, int(core_time[core]))
            core_time[core] += (
                request.instruction_count * base_cpi + result.latency * exposed
            )
            instructions += request.instruction_count
        return instructions


def _iterator_source(source):
    """Segments from a request iterator, pulled exactly ``n`` at a time."""

    def take(n):
        mini = Trace.from_requests(islice(source, n))
        return trace_segment(mini, 0, len(mini))

    return take


def _trace_source(trace_for, cursor, end):
    """Segments of stream ``[cursor, end)``, read from ``trace_for(start, stop)``."""

    def take(n):
        nonlocal cursor
        stop = min(cursor + n, end)
        cols = trace_segment(trace_for(cursor, stop), cursor, stop)
        cursor += len(cols)
        return cols

    return take


def _segment_source(sim, trace):
    """A ``take(n) -> TraceColumns`` closure over the run's request stream."""
    limit = sim.config.num_requests
    if isinstance(trace, Trace):
        return _trace_source(lambda start, stop: trace, 0, min(limit, len(trace)))
    if trace is not None:
        return _iterator_source(iter(trace))

    workload = sim.system.workload
    cache = shared_trace_cache()
    # The stream gate.  An externally built system may have consumed its
    # generator already, so only a private one is served from the cache.
    # Paper-sized runs stay on the generator (materialising them would
    # hold hundreds of MB).  The choice is sticky per simulator: once a
    # run was served from the cache, continuations come from it too.
    if (
        sim._private_system
        and isinstance(workload, SyntheticWorkload)
        and (sim._stream_position > 0 or limit <= MAX_CACHED_REQUESTS)
    ):
        first = sim._stream_position
        sim._stream_position = first + limit

        def cached(start, stop):
            return cache.columnar(
                workload.profile,
                sim.config.seed,
                workload.page_size,
                stop - start,
                start=start,
                block_size=workload.block_size,
            )

        return _trace_source(cached, first, first + limit)
    return _iterator_source(workload.requests(limit))


def replay(sim, trace=None):
    """Run ``sim`` to completion and summarise its measured window.

    Reset, optional warm-up phase ending in a stats reset *before* the
    first measured request, replay until the request budget or the end
    of the trace, then summarise.  With an explicit ``trace``,
    ``config.num_requests`` still bounds how many requests are consumed.
    """
    if sim.engine == "interp":
        consumer = ScalarReplay(sim)
    else:
        consumer = build_kernel(sim)
        if consumer is None:
            # One counter touch per point makes the fallback visible.
            registry().counter(
                "repro_engine_fallback_total",
                "points replayed by the scalar loop for want of a batch kernel",
                design=sim.config.cache.design,
            ).inc()
            consumer = ScalarReplay(sim)

    take = _segment_source(sim, trace)
    perf = sim.perf
    system = sim.system
    warmup = sim.config.warmup_requests
    limit = sim.config.num_requests

    # Reset explicitly before replaying anything: the measured window
    # then always starts from a known state, whether warm-up completes
    # (reset again below), the trace ends early (degenerate short run:
    # everything from here on is measured), or run() is called again on
    # a reused simulator.
    system.reset_stats()
    perf.start_measurement()
    measuring = warmup == 0

    processed = 0
    instructions = 0
    while processed < limit:
        # The warm-up boundary must fall on a segment edge: cap segments
        # at the boundary, and reset stats only once a request actually
        # exists there (a trace ending exactly at the boundary stays
        # unmeasured).  Instruction counts accumulate locally and flush
        # to the model at the boundary and at the end.
        at_boundary = not measuring and processed == warmup
        boundary = limit if (measuring or at_boundary) else min(warmup, limit)
        n = min(boundary - processed, SEGMENT_REQUESTS)
        cols = take(n)
        got = len(cols)
        if got == 0:
            break
        if at_boundary:
            perf._instructions += instructions
            instructions = 0
            system.reset_stats()
            perf.start_measurement()
            measuring = True
        instructions += consumer.run_segment(cols)
        processed += got
        if got < n:
            break
    perf._instructions += instructions

    measured = processed - warmup if measuring else processed
    if not isinstance(consumer, ScalarReplay):
        # Point-boundary accounting only: one registry touch per replay,
        # never per request or per segment.
        registry().counter(
            "repro_engine_requests_total",
            "requests replayed, by execution engine",
            engine="vector",
        ).inc(processed)
    return sim._summarise(measured)
