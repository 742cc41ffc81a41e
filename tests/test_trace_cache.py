"""Determinism tests for the shared materialized-trace fast path.

The trace cache (:mod:`repro.workloads.trace`) is a pure optimization: a
request stream served cold, from a warm cache, as a longer trace's
prefix, inside a worker process, or through ``Simulator.run(trace=...)``
must be value-identical to what the live generator would produce.  These
tests pin that invariant — the byte-parity gate in CI depends on it.
"""

import dataclasses
import multiprocessing
import sys
import threading
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.vector.engine as vector_engine
from repro.mem.request import AccessType, MemoryRequest
from repro.sim.config import SimulationConfig
from repro.sim.simulator import Simulator
from repro.vector.columns import trace_segment
from repro.workloads.cloudsuite import make_workload
from repro.workloads.trace import COLUMNS, Trace, TraceCache, shared_trace_cache


def fresh_stream(n, seed=0, page_size=2048, workload="web_search"):
    return list(make_workload(workload, seed=seed, page_size=page_size).requests(n))


def profile_of(workload="web_search"):
    return make_workload(workload).profile


class TestFastConstructor:
    def test_equals_validated_construction(self):
        normal = MemoryRequest(
            address=4096, pc=0x400, access_type=AccessType.WRITE,
            core_id=3, instruction_count=17,
        )
        fast = MemoryRequest.fast(4096, 0x400, AccessType.WRITE, 3, 17)
        assert fast == normal
        assert dataclasses.asdict(fast) == dataclasses.asdict(normal)
        assert fast.is_write and fast.block_address() == 4096

    def test_defaults_match(self):
        assert MemoryRequest.fast(64) == MemoryRequest(address=64)


class TestTraceColumns:
    def test_round_trip(self):
        stream = fresh_stream(400)
        trace = Trace.from_requests(stream)
        assert len(trace) == 400
        assert list(trace) == stream
        assert trace.requests() == stream
        assert list(trace.addresses) == [r.address for r in stream]
        assert list(trace.writes) == [1 if r.is_write else 0 for r in stream]

    def test_request_objects_shared_across_calls(self):
        trace = Trace.from_requests(fresh_stream(50))
        assert trace.requests()[7] is trace.requests()[7]

    def test_limit(self):
        trace = Trace.from_requests(fresh_stream(50), limit=20)
        assert len(trace) == 20

    def test_indexing(self):
        stream = fresh_stream(30)
        trace = Trace.from_requests(stream)
        assert trace[5] == stream[5]
        assert trace[-1] == stream[-1]
        assert trace[3:7] == stream[3:7]


class TestTraceCacheDeterminism:
    def test_cold_equals_generator(self):
        cache = TraceCache(max_entries=4)
        served = cache.requests(profile_of(), 0, 2048, 600)
        assert served == fresh_stream(600)
        assert cache.misses == 1 and cache.hits == 0

    def test_warm_equals_cold(self):
        cache = TraceCache(max_entries=4)
        cold = cache.requests(profile_of(), 3, 2048, 500)
        warm = cache.requests(profile_of(), 3, 2048, 500)
        assert warm == cold
        assert cache.hits == 1
        # Warm serving reuses the very same request objects.
        assert warm[0] is cold[0]

    def test_prefix_of_longer_trace(self):
        cache = TraceCache(max_entries=4)
        short = cache.requests(profile_of(), 0, 2048, 300)
        long = cache.requests(profile_of(), 0, 2048, 900)
        assert long[:300] == short
        assert long == fresh_stream(900)

    def test_segment_serving_is_exact_continuation(self):
        cache = TraceCache(max_entries=4)
        first = cache.requests(profile_of(), 0, 2048, 400)
        second = cache.requests(profile_of(), 0, 2048, 400, start=400)
        assert first + second == fresh_stream(800)

    def test_distinct_keys_do_not_alias(self):
        cache = TraceCache(max_entries=8)
        base = cache.requests(profile_of(), 0, 2048, 200)
        assert cache.requests(profile_of(), 1, 2048, 200) != base
        assert cache.requests(profile_of(), 0, 4096, 200) != base
        assert cache.requests(profile_of("mapreduce"), 0, 2048, 200) != base

    def test_eviction_regenerates_identically(self):
        cache = TraceCache(max_entries=1)
        first = cache.requests(profile_of(), 0, 2048, 300)
        cache.requests(profile_of("mapreduce"), 0, 2048, 100)  # evicts web_search
        assert len(cache) == 1
        again = cache.requests(profile_of(), 0, 2048, 300)
        assert again == first
        assert cache.misses == 3  # every fill was a cold generation

    def test_disabled_cache_still_exact(self):
        # A cache cannot be switched off by its entry bound; one whose
        # request budget holds nothing keeps no trace and still serves the
        # generator's exact stream.
        with pytest.raises(ValueError):
            TraceCache(max_entries=0)
        cache = TraceCache(max_entries=1, max_total_requests=0)
        assert cache.requests(profile_of(), 0, 2048, 250) == fresh_stream(250)
        assert len(cache) == 0

    def test_total_request_budget_evicts_lru(self):
        cache = TraceCache(max_entries=8, max_total_requests=500)
        first = cache.requests(profile_of(), 0, 2048, 300)
        cache.requests(profile_of(), 1, 2048, 300)  # 600 total: seed-0 evicted
        assert cache.cached_requests <= 500
        assert len(cache) == 1
        assert cache.requests(profile_of(), 0, 2048, 300) == first

    def test_oversized_single_entry_evicted_after_serving(self):
        cache = TraceCache(max_entries=4, max_total_requests=100)
        served = cache.requests(profile_of(), 0, 2048, 250)
        assert len(cache) == 0  # over budget on its own: dropped, not pinned
        assert served == fresh_stream(250)
        assert cache.requests(profile_of(), 0, 2048, 250) == served

    def test_validation(self):
        cache = TraceCache(max_entries=2)
        with pytest.raises(ValueError):
            cache.requests(profile_of(), 0, 2048, -1)
        with pytest.raises(ValueError):
            TraceCache(max_entries=-1)


class TestCacheStats:
    def test_stats_snapshot(self):
        cache = TraceCache(max_entries=4)
        empty = cache.stats()
        assert empty["entries"] == 0
        assert empty["hit_rate"] is None
        assert empty["resident_bytes"] == 0

        cache.requests(profile_of(), 0, 2048, 300)   # miss
        cache.requests(profile_of(), 0, 2048, 300)   # hit
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["max_entries"] == 4
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == pytest.approx(0.5)
        assert stats["evictions"] == 0
        assert stats["cached_requests"] == 300
        assert stats["resident_bytes"] > 0

    def test_resident_bytes_count_allocated_columns(self):
        cache = TraceCache(max_entries=4)
        trace = cache.columnar(profile_of(), 0, 2048, 1000)
        cache.columnar(profile_of(), 0, 2048, 1001)  # grows with headroom
        allocated = sum(getattr(trace, name).nbytes for name, _ in COLUMNS)
        used = sum(len(trace) * getattr(trace, name).itemsize for name, _ in COLUMNS)
        assert len(trace.addresses) > len(trace) == 1001
        assert cache.stats()["resident_bytes"] == allocated > used

    def test_stats_count_evictions(self):
        cache = TraceCache(max_entries=1)
        cache.requests(profile_of(), 0, 2048, 100)
        cache.requests(profile_of("mapreduce"), 0, 2048, 100)
        assert cache.stats()["evictions"] == 1
        cache.clear()
        # clear() resets residency but keeps the lifetime counters.
        stats = cache.stats()
        assert stats["entries"] == 0
        assert stats["evictions"] == 1


@lru_cache(maxsize=None)
def reference_columns(n):
    """The first ``n`` fresh-generator requests, and their fields column
    by column."""
    stream = fresh_stream(n)
    return stream, {
        "addresses": [r.address for r in stream],
        "pcs": [r.pc for r in stream],
        "writes": [1 if r.is_write else 0 for r in stream],
        "core_ids": [r.core_id for r in stream],
        "instruction_counts": [r.instruction_count for r in stream],
    }


class TestAppendOnlyColumns:
    """Slices of a trace's columns stay valid while the trace grows."""

    def test_held_view_survives_extension(self):
        cache = TraceCache(max_entries=4)
        trace = cache.columnar(profile_of(), 0, 2048, 1000)
        pcs = trace_segment(trace, 0, 1000).pcs
        before = pcs.tolist()
        longer = cache.columnar(profile_of(), 0, 2048, 5000)
        assert longer is trace and len(longer) == 5000
        assert pcs.tolist() == before
        assert longer.pcs[:1000].tolist() == before
        assert longer.pcs[:5000].tolist() == reference_columns(5000)[1]["pcs"]

    def test_threads_share_one_trace(self, monkeypatch):
        """Three designs replay one cached trace at different lengths on
        three threads: the longer runs extend the trace while the others'
        kernels hold their segments' columns."""
        monkeypatch.setattr(vector_engine, "SEGMENT_REQUESTS", 1024)
        configs = [
            SimulationConfig.scaled(
                "web_search", design, 256, scale=256, num_requests=n, seed=9
            )
            for design, n in (("footprint", 6_000), ("baseline", 12_000), ("page", 20_000))
        ]
        expected = [Simulator(config).run() for config in configs]
        shared_trace_cache().clear()
        results = [None] * len(configs)

        def run(i):
            results[i] = Simulator(configs[i]).run()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(configs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == expected

    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 1500), st.integers(0, 1500), st.booleans()
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_interleaved_extend_and_read(self, reads):
        """Every segment read, whether column slices or request objects,
        equals the fresh generator's requests, and stays equal while later
        reads extend the trace under it."""
        stream, reference = reference_columns(3000)
        cache = TraceCache(max_entries=1)
        held = []
        for start, n, as_objects in reads:
            trace = cache.columnar(profile_of(), 0, 2048, n, start=start)
            segment = trace_segment(trace, start, start + n)
            assert len(segment) == n
            if as_objects:
                held.append((start, start + n, segment.requests()))
            else:
                held.append((start, start + n, {
                    name: getattr(segment, name) for name, _ in COLUMNS
                }))
            for lo, hi, value in held:
                if isinstance(value, list):
                    assert value == stream[lo:hi]
                else:
                    for name, column in value.items():
                        assert column.tolist() == reference[name][lo:hi]


def _worker_stream_fields(args):
    """Materialise a trace inside a worker process (module-level for mp)."""
    workload, seed, n = args
    from repro.workloads.cloudsuite import make_workload
    from repro.workloads.trace import shared_trace_cache

    profile = make_workload(workload).profile
    served = shared_trace_cache().requests(profile, seed, 2048, n)
    return [
        (r.address, r.pc, r.is_write, r.core_id, r.instruction_count)
        for r in served
    ]


class TestWorkerProcessDeterminism:
    def test_worker_serves_identical_stream(self):
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(1) as pool:
            remote = pool.map(_worker_stream_fields, [("web_search", 0, 300)])[0]
        local = [
            (r.address, r.pc, r.is_write, r.core_id, r.instruction_count)
            for r in fresh_stream(300)
        ]
        assert remote == local


class TestSimulatorFastPath:
    """Trace-path equivalences, with a batch kernel and with the scalar
    reference consumer (``engine="interp"``): one stream gate serves both,
    but the kernels read the cached columns and the scalar loop reads the
    cached request objects."""

    ENGINES = ("vector", "interp")

    def small_config(self, **kwargs):
        return SimulationConfig.scaled(
            "web_search", kwargs.pop("design", "footprint"), 256,
            scale=256, num_requests=kwargs.pop("num_requests", 6_000), **kwargs
        )

    def test_cached_run_equals_explicit_trace(self):
        config = self.small_config()
        workload = make_workload(
            config.workload, seed=config.seed,
            page_size=config.cache.page_size, dataset_scale=config.dataset_scale,
        )
        trace = list(workload.requests(6_000))
        for engine in self.ENGINES:
            via_cache = Simulator(config, engine=engine).run()
            via_trace = Simulator(config, engine=engine).run(trace=trace)
            assert via_cache == via_trace

    def test_cold_and_warm_runs_identical(self):
        config = self.small_config(seed=7)
        for engine in self.ENGINES:
            shared_trace_cache().clear()
            cold = Simulator(config, engine=engine).run()
            warm = Simulator(config, engine=engine).run()
            assert cold == warm

    def test_repeated_runs_deterministic_across_simulators(self):
        config = self.small_config()
        for engine in self.ENGINES:
            sim_a, sim_b = Simulator(config, engine=engine), Simulator(config, engine=engine)
            assert sim_a.run() == sim_b.run()
            # Second runs continue the stream, identically on both.
            assert sim_a.run() == sim_b.run()

    def test_externally_built_system_keeps_generator_path(self):
        from repro.sim.system import build_system

        config = self.small_config()
        for engine in self.ENGINES:
            external = Simulator(config, system=build_system(config), engine=engine).run()
            assert external == Simulator(config, engine=engine).run()
