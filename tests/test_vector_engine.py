"""Byte-parity gate for the batch kernels behind ``Simulator.run()``.

The kernels' contract is absolute: they may not change a single
stored byte against the scalar reference loop (``engine="interp"``).
These tests enforce it the strong way — full
``SimulationResult.to_dict()`` and ``StatGroup.as_dict()`` equality plus
deep post-run state comparison (controller counters and energies, bank
row/busy state, tag contents *and LRU orders*, predictor tables) for
every registered design, across workload profiles and seeds, including
randomized traces.  Plus the edge cases that historically break
segmented replay: empty segments, single requests, warm-up boundaries
landing exactly on segment edges, and continuation runs — and a whole
sweep store, byte-compared.
"""

from __future__ import annotations

import pytest

from repro.caches.registry import design_names
from repro.exp import ExperimentSpec, ResultStore, SweepRunner
from repro.exp import runner as runner_module
from repro.exp.backends import SerialBackend
from repro.exp.store import STORE_FILENAME
from repro.mem.request import MemoryRequest
from repro.obs.metrics import registry, reset_registry
from repro.sim.config import SimulationConfig
from repro.sim.simulator import Simulator
import repro.vector.engine as vector_engine


def small_config(
    profile="web_search", design="footprint", seed=0, requests=12_000, cpu_mhz=3000,
    **system,
):
    return SimulationConfig.scaled(
        profile, design, 256, scale=256, num_requests=requests, seed=seed,
        system_overrides={"cpu_mhz": cpu_mhz, **system},
    )


def state_snapshot(sim):
    """Every observable post-run state of the simulated system."""
    cache = sim.system.cache
    snap = {"stats": dict(sorted(cache.stats.as_dict().items()))}
    for name in ("stacked", "offchip"):
        controller = getattr(cache, name, None)
        if controller is None:
            continue
        snap[name] = {
            "access": controller.access_count,
            "rowhit": controller.row_hit_count,
            "busy": controller.busy_cpu_cycles,
            "bytes": (controller.bytes_read, controller.bytes_written),
            "energy": (
                controller.energy.activate_precharge_nj,
                controller.energy.read_nj,
                controller.energy.write_nj,
            ),
            "banks": [
                (bank._open_row, bank.busy_until, bank.activate_count,
                 bank.precharge_count)
                for bank in controller.banks
            ],
        }
    sram = None
    if hasattr(cache, "tags") and hasattr(cache.tags, "_tags"):
        sram = cache.tags._tags
    elif hasattr(cache, "_tags"):
        sram = cache._tags
    if sram is not None:
        snap["tags"] = [
            (sorted((key, repr(value)) for key, value in entries.items()),
             list(policy._order))
            for entries, policy in zip(sram._entries, sram._policies)
        ]
    fht = getattr(cache, "fht", None)
    if fht is not None:
        snap["fht"] = (
            (fht.lookups, fht.hits, fht.updates, fht.stale_updates),
            [
                (sorted((k, v.footprint_mask) for k, v in entries.items()),
                 list(policy._order))
                for entries, policy in zip(
                    fht._table._entries, fht._table._policies
                )
            ],
        )
        stats = cache.predictor_stats
        snap["predictor"] = (
            stats.covered_blocks,
            stats.underpredicted_blocks,
            stats.overpredicted_blocks,
        )
    singleton = getattr(cache, "singleton_table", None)
    if singleton is not None:
        snap["singleton"] = (
            (singleton.recorded, singleton.second_access_hits),
            [
                (sorted((k, (v.pc, v.offset)) for k, v in entries.items()),
                 list(policy._order))
                for entries, policy in zip(
                    singleton._table._entries, singleton._table._policies
                )
            ],
        )
    snap["core_time"] = list(sim.perf._core_time)
    return snap


def run_both(config, trace=None):
    """(interp result+state, vector result+state) for one config."""
    outcomes = []
    for engine in ("interp", "vector"):
        sim = Simulator(config, engine=engine)
        result = sim.run(trace=trace)
        outcomes.append((result.to_dict(), state_snapshot(sim)))
    return outcomes


def assert_parity(config, trace=None):
    (interp_result, interp_state), (vector_result, vector_state) = run_both(
        config, trace=trace
    )
    assert interp_result == vector_result
    assert interp_state == vector_state


class TestEquivalenceEveryDesign:
    """The gate itself: every design, multiple profiles and seeds."""

    @pytest.mark.parametrize("design", design_names())
    @pytest.mark.parametrize("profile", ("web_search", "data_serving"))
    def test_design_profile_parity(self, design, profile):
        assert_parity(small_config(profile=profile, design=design))

    @pytest.mark.parametrize("seed", (1, 7, 42))
    def test_randomized_seeds_footprint(self, seed):
        assert_parity(small_config(design="footprint", seed=seed))

    @pytest.mark.parametrize("design", ("page", "baseline"))
    def test_randomized_seeds_other_kernels(self, design):
        assert_parity(small_config(design=design, seed=3))

    @pytest.mark.parametrize("design", ("baseline", "page", "footprint"))
    def test_non_default_clock_parity(self, design):
        # Kernels and the scalar loop convert bus cycles at the same
        # (system) clock, not at a hidden default.
        assert_parity(small_config(design=design, cpu_mhz=1500))


#: Segmented-replay configurations: a kernel design, a design with no
#: kernel, and an extra-L2 frontend (no kernel either: the scalar consumer
#: replays them, segment by segment).
SEGMENTED_CASES = {
    "footprint": {"design": "footprint"},
    "block": {"design": "block"},
    "extra_l2": {"design": "footprint", "extra_l2_bytes": 16384},
}


class TestSegmentEdges:
    def test_empty_trace(self):
        assert_parity(small_config(), trace=[])

    def test_single_request(self):
        trace = [MemoryRequest(address=0x1000, pc=0x400, core_id=0)]
        assert_parity(small_config(), trace=trace)

    @pytest.mark.parametrize("case", SEGMENTED_CASES)
    def test_tiny_segments_split_runs(self, case, monkeypatch):
        # A prime segment size forces run boundaries everywhere: inside
        # the warm-up, at the warm-up edge, and at the trace tail.
        config = small_config(requests=3_000, **SEGMENTED_CASES[case])
        whole = run_both(config)
        monkeypatch.setattr(vector_engine, "SEGMENT_REQUESTS", 257)
        assert run_both(config) == whole
        assert whole[0] == whole[1]

    @pytest.mark.parametrize("case", SEGMENTED_CASES)
    def test_warmup_exactly_at_segment_edge(self, case, monkeypatch):
        # num_requests = 4 segments, warm-up = 2 segments: the stats
        # reset lands precisely on a segment boundary.
        config = small_config(requests=2_000, **SEGMENTED_CASES[case])
        whole = run_both(config)
        monkeypatch.setattr(vector_engine, "SEGMENT_REQUESTS", 500)
        assert run_both(config) == whole
        assert whole[0] == whole[1]

    @pytest.mark.parametrize("engine", ("interp", "vector"))
    def test_measured_window_excludes_warmup(self, engine):
        config = small_config(requests=2_000)
        trace = [
            MemoryRequest(address=(i % 64) * 2048, pc=0x400, core_id=i % 16)
            for i in range(config.warmup_requests + 7)
        ]
        result = Simulator(config, engine=engine).run(trace=trace)
        assert result.requests == 7

    def test_trace_ends_at_warmup_boundary(self):
        # A trace exactly as long as the warm-up: zero measured requests
        # in the reference; the vector engine must agree.
        config = small_config(requests=2_000)
        trace = [
            MemoryRequest(address=(i % 64) * 2048, pc=0x400, core_id=i % 16)
            for i in range(config.warmup_requests)
        ]
        assert_parity(config, trace=trace)

    def test_continuation_run_parity(self):
        # Two back-to-back run() calls on one Simulator continue the
        # same request stream; the second run must match per engine.
        results = {}
        for engine in ("interp", "vector"):
            sim = Simulator(small_config(requests=6_000), engine=engine)
            sim.run()
            results[engine] = sim.run().to_dict()
        assert results["interp"] == results["vector"]

    def test_trace_can_grow_after_vector_run(self):
        # Segment views pin the trace's columnar buffers; the engine
        # must drop them so the shared cache can keep materialising.
        config = small_config(requests=4_000)
        sim = Simulator(config, engine="vector")
        sim.run()
        sim.run()  # continuation extends the cached trace in place


class TestEngineSelection:
    def test_invalid_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            Simulator(small_config(), engine="warp")

    def test_engine_excluded_from_config_identity(self):
        # The replay path is the code's choice, never part of what an
        # experiment denotes: no config field, no serialised key.
        assert "engine" not in SimulationConfig.__dataclass_fields__
        assert "engine" not in small_config().to_dict()
        with pytest.raises(ValueError, match="unknown SimulationConfig field"):
            SimulationConfig.from_dict({"engine": "vector"})


def _counter_values(name):
    samples = registry().as_dict().get(name, {}).get("samples", [])
    return {tuple(sorted(s["labels"].items())): s["value"] for s in samples}


class TestFallbackTelemetry:
    @pytest.fixture(autouse=True)
    def clean_registry(self):
        reset_registry()
        yield
        reset_registry()

    def test_block_point_counts_one_fallback(self):
        config = small_config(design="block", requests=3_000)
        Simulator(config).run()
        assert _counter_values("repro_engine_fallback_total") == {
            (("design", "block"),): 1
        }
        assert _counter_values("repro_engine_requests_total") == {}

    def test_footprint_point_counts_only_kernel_requests(self):
        config = small_config(design="footprint", requests=3_000)
        # The scalar reference hook is neither a fallback nor a kernel run.
        Simulator(config, engine="interp").run()
        assert registry().as_dict() == {}
        Simulator(config).run()
        assert _counter_values("repro_engine_fallback_total") == {}
        assert _counter_values("repro_engine_requests_total") == {
            (("engine", "vector"),): 3_000
        }


class TestSweepStoreParity:
    """A whole sweep store is byte-identical to the scalar loop's."""

    SPEC = ExperimentSpec(
        workloads=("web_search", "data_serving"),
        designs=("footprint", "page", "baseline", "block"),
        capacities_mb=(64,),
        num_requests=6_000,
    )

    def _sweep(self, directory):
        store = ResultStore(str(directory))
        SweepRunner(store=store, backend=SerialBackend()).run(self.SPEC)
        return (directory / STORE_FILENAME).read_bytes()

    def test_kernel_and_scalar_stores_byte_identical(self, tmp_path, monkeypatch):
        kernel_store = self._sweep(tmp_path / "kernel")
        monkeypatch.setattr(
            runner_module,
            "run_point",
            lambda point: Simulator(point.config(), engine="interp").run(),
        )
        scalar_store = self._sweep(tmp_path / "scalar")
        assert len(kernel_store.splitlines()) == len(self.SPEC.points())
        assert kernel_store == scalar_store
