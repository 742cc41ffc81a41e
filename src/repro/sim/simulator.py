"""Trace-driven simulator: replay a workload through a cache design.

The simulator mirrors the paper's methodology (Section 5.4): a warm-up
phase populates the cache and predictor state, statistics reset, then the
measured phase collects miss ratios, traffic, energy and throughput.
Benches replay the *same* trace (same workload name and seed) through each
design for an apples-to-apples comparison.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Optional, Sequence

from repro.core.footprint_cache import FootprintCache
from repro.mem.request import BLOCK_SIZE, MemoryRequest
from repro.perf.timing_model import PerformanceModel, PerformanceResult
from repro.sim.config import SimulationConfig
from repro.sim.system import System, build_system


@dataclass(frozen=True)
class SimulationResult:
    """Everything a bench needs to print one paper-style data point."""

    workload: str
    design: str
    capacity_bytes: int
    requests: int
    miss_ratio: float
    hit_ratio: float
    bypass_ratio: float
    performance: PerformanceResult
    offchip_bytes: int
    offchip_read_bytes: int
    offchip_write_bytes: int
    offchip_row_hit_ratio: float
    offchip_activate_nj: float
    offchip_read_write_nj: float
    stacked_bytes: int
    stacked_row_hit_ratio: float
    stacked_activate_nj: float
    stacked_read_write_nj: float
    fill_blocks: int
    writeback_blocks: int
    predictor_coverage: Optional[float] = None
    predictor_underprediction: Optional[float] = None
    predictor_overprediction: Optional[float] = None

    @property
    def aggregate_ipc(self) -> float:
        """The paper's throughput metric."""
        return self.performance.aggregate_ipc

    @property
    def offchip_traffic_normalized(self) -> float:
        """Off-chip bytes over the no-cache baseline's (Fig. 5b).

        The baseline moves exactly one block per request, so its traffic
        for the same trace is ``requests * 64B``.
        """
        if self.requests == 0:
            return 0.0
        return self.offchip_bytes / (self.requests * BLOCK_SIZE)

    @property
    def offchip_energy_nj(self) -> float:
        """Total off-chip dynamic energy (Fig. 10's bar height)."""
        return self.offchip_activate_nj + self.offchip_read_write_nj

    @property
    def stacked_energy_nj(self) -> float:
        """Total stacked-DRAM dynamic energy (Fig. 11's bar height)."""
        return self.stacked_activate_nj + self.stacked_read_write_nj

    def offchip_energy_per_instruction(self) -> float:
        """nJ per committed instruction, off-chip DRAM."""
        instructions = max(1, self.performance.instructions)
        return self.offchip_energy_nj / instructions

    def stacked_energy_per_instruction(self) -> float:
        """nJ per committed instruction, stacked DRAM."""
        instructions = max(1, self.performance.instructions)
        return self.stacked_energy_nj / instructions

    def improvement_over(self, baseline: "SimulationResult") -> float:
        """Fractional performance improvement over another result."""
        return self.performance.improvement_over(baseline.performance)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form; stored results round-trip exactly.

        Every field is an int, float, str or None, so ``json.dumps`` of
        this dict and :meth:`from_dict` of the parsed text reproduce an
        equal :class:`SimulationResult` (Python float repr round-trips).
        """
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SimulationResult":
        """Rebuild a result from :meth:`to_dict` output."""
        payload = dict(data)
        payload["performance"] = PerformanceResult.from_dict(payload["performance"])
        return cls(**payload)


#: Segment consumers ``Simulator`` can ask :func:`~repro.vector.engine.replay` for.
#: ``"vector"`` (the default) lets the code pick: a :mod:`repro.vector`
#: batch kernel when one matches the design and configuration, the scalar
#: loop otherwise.  ``"interp"`` forces the scalar reference loop; it is
#: the hook the equivalence tests compare the kernels against, and no CLI
#: flag, environment variable or config field reaches it.
ENGINES = ("interp", "vector")


class Simulator:
    """Run one :class:`SimulationConfig` to completion."""

    def __init__(
        self,
        config: SimulationConfig,
        system: Optional[System] = None,
        engine: str = "vector",
    ) -> None:
        self.config = config
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; one of {ENGINES}")
        self.engine = engine
        # A system the simulator built itself has a pristine workload
        # generator, so replays can be served from the shared trace cache
        # with exact continuation semantics; an externally built system
        # may have been consumed already and keeps the generator path.
        self._private_system = system is None
        self._stream_position = 0
        self.system = system or build_system(config)
        self.perf = PerformanceModel(
            num_cores=config.system.num_cores,
            base_cpi=config.system.base_cpi,
            exposed_latency_fraction=config.system.exposed_latency_fraction,
        )

    def run(self, trace: Optional[Sequence[MemoryRequest]] = None) -> SimulationResult:
        """Replay the workload (or an explicit ``trace``) and summarise.

        With an explicit trace, ``config.num_requests`` still bounds how
        many requests are consumed and the warm-up split applies the same
        way.  Replay goes through :func:`repro.vector.engine.replay`,
        which feeds the stream in segments to the design's batch kernel,
        or to the scalar loop for designs or configurations without one
        (and for ``engine="interp"``); the result is byte-identical
        either way.
        """
        from repro.vector.engine import replay

        return replay(self, trace)

    def _summarise(self, measured: int) -> SimulationResult:
        cache = self.system.cache
        offchip = self.system.offchip
        stacked = self.system.stacked
        accesses = max(1, cache.accesses)
        bypasses = cache.stats.counter("bypasses").value

        coverage = underprediction = overprediction = None
        if isinstance(cache, FootprintCache):
            stats = cache.predictor_stats
            coverage = stats.coverage
            underprediction = stats.underprediction_rate
            overprediction = stats.overprediction_rate

        return SimulationResult(
            workload=self.config.workload,
            design=self.config.cache.design,
            capacity_bytes=self.config.cache.capacity_bytes,
            requests=measured,
            miss_ratio=cache.miss_ratio,
            hit_ratio=cache.hit_ratio,
            bypass_ratio=bypasses / accesses,
            performance=self.perf.result(),
            offchip_bytes=offchip.total_bytes,
            offchip_read_bytes=offchip.bytes_read,
            offchip_write_bytes=offchip.bytes_written,
            offchip_row_hit_ratio=offchip.row_hit_ratio,
            offchip_activate_nj=offchip.energy.activate_precharge_nj,
            offchip_read_write_nj=offchip.energy.burst_nj,
            stacked_bytes=stacked.total_bytes if stacked else 0,
            stacked_row_hit_ratio=stacked.row_hit_ratio if stacked else 0.0,
            stacked_activate_nj=stacked.energy.activate_precharge_nj if stacked else 0.0,
            stacked_read_write_nj=stacked.energy.burst_nj if stacked else 0.0,
            fill_blocks=cache.stats.counter("fill_blocks").value,
            writeback_blocks=cache.stats.counter("writeback_blocks").value,
            predictor_coverage=coverage,
            predictor_underprediction=underprediction,
            predictor_overprediction=overprediction,
        )


def quick_run(
    workload: str,
    design: str = "footprint",
    capacity_mb: int = 256,
    scale: int = 256,
    num_requests: int = 60_000,
    seed: int = 0,
    **cache_kwargs,
) -> SimulationResult:
    """One-call experiment: build, run, summarise.

    >>> result = quick_run("web_search", design="footprint", capacity_mb=256)
    >>> result.design
    'footprint'
    """
    config = SimulationConfig.scaled(
        workload,
        design,
        capacity_mb,
        scale=scale,
        num_requests=num_requests,
        seed=seed,
        **cache_kwargs,
    )
    return Simulator(config).run()
