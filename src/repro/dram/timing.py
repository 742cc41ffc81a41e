"""DDR3 timing parameter sets (paper Table 3).

All latencies are expressed in *memory bus cycles* of the device itself and
converted to CPU cycles by the controller using the bus/CPU frequency ratio.
The paper's stacked DRAM is DDR3-3200 (1.6GHz bus) and the off-chip memory
is DDR3-1600 (0.8GHz bus); cores run at 3GHz.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class DramTiming:
    """Timing and topology parameters of one DRAM channel.

    The timing fields follow the paper's Table 3 naming:
    ``tCAS-tRCD-tRP-tRAS / tRC-tWR-tWTR-tRTP / tRRD-tFAW``.
    """

    name: str
    bus_mhz: int
    banks_per_rank: int
    row_buffer_bytes: int
    bus_width_bits: int
    t_cas: int
    t_rcd: int
    t_rp: int
    t_ras: int
    t_rc: int
    t_wr: int
    t_wtr: int
    t_rtp: int
    t_rrd: int
    t_faw: int
    burst_length: int = 8

    def __post_init__(self) -> None:
        if self.bus_mhz <= 0:
            raise ValueError("bus_mhz must be positive")
        if self.banks_per_rank <= 0:
            raise ValueError("banks_per_rank must be positive")
        if self.row_buffer_bytes <= 0 or self.row_buffer_bytes & (self.row_buffer_bytes - 1):
            raise ValueError("row_buffer_bytes must be a positive power of two")
        if self.bus_width_bits % 8:
            raise ValueError("bus_width_bits must be a multiple of 8")

    @property
    def bytes_per_burst(self) -> int:
        """Bytes transferred by one burst (BL beats of the bus width)."""
        return self.bus_width_bits // 8 * self.burst_length

    def burst_cycles(self, bytes_transferred: int) -> int:
        """Bus cycles of data transfer for ``bytes_transferred`` bytes.

        DDR moves data on both clock edges, hence the division by two beats
        per cycle; partial bursts round up to a full burst.
        """
        if bytes_transferred <= 0:
            raise ValueError("bytes_transferred must be positive")
        bytes_per_beat = self.bus_width_bits // 8
        beats = -(-bytes_transferred // bytes_per_beat)
        beats = max(beats, self.burst_length)
        return -(-beats // 2)

    def to_cpu_cycles(self, bus_cycles: int, cpu_mhz: int) -> int:
        """Convert device bus cycles to CPU cycles at ``cpu_mhz`` (rounding up).

        There is no default clock: simulation code converts through
        ``MemoryController.cpu_cycles``, which passes the system's clock.
        """
        if bus_cycles < 0:
            raise ValueError("bus_cycles must be non-negative")
        return -(-bus_cycles * cpu_mhz // self.bus_mhz)

    @property
    def row_hit_bus_cycles(self) -> int:
        """Access latency when the row is already open: just CAS."""
        return self.t_cas

    @property
    def row_closed_bus_cycles(self) -> int:
        """Latency when the bank is precharged: ACT then CAS."""
        return self.t_rcd + self.t_cas

    @property
    def row_conflict_bus_cycles(self) -> int:
        """Latency when another row is open: PRE, ACT, CAS."""
        return self.t_rp + self.t_rcd + self.t_cas

    def with_latency_scale(self, scale: float) -> "DramTiming":
        """A device with every core timing latency scaled by ``scale``.

        Scaled values floor (so ``scale=0.5`` matches the paper's
        "halved latency" device [24] exactly) and never drop below one
        bus cycle.
        """
        if scale <= 0:
            raise ValueError("scale must be positive")
        if scale == 1.0:
            return self

        def scaled(cycles: int) -> int:
            return max(1, int(cycles * scale))

        return replace(
            self,
            name=f"{self.name}-latency-x{scale:g}",
            t_cas=scaled(self.t_cas),
            t_rcd=scaled(self.t_rcd),
            t_rp=scaled(self.t_rp),
            t_ras=scaled(self.t_ras),
            t_rc=scaled(self.t_rc),
            t_wr=scaled(self.t_wr),
            t_wtr=scaled(self.t_wtr),
            t_rtp=scaled(self.t_rtp),
            t_rrd=scaled(self.t_rrd),
            t_faw=scaled(self.t_faw),
        )

    def with_halved_latency(self) -> "DramTiming":
        """A hypothetical device with half the core timing latencies.

        Used by the Fig. 1 opportunity study ("High-BW & Low-Latency"),
        which models stacked DRAM with halved latency [24].
        """
        return self.with_latency_scale(0.5)


OFF_CHIP_DDR3_1600 = DramTiming(
    name="DDR3-1600",
    bus_mhz=800,
    banks_per_rank=8,
    row_buffer_bytes=2048,
    bus_width_bits=64,
    t_cas=11,
    t_rcd=11,
    t_rp=11,
    t_ras=28,
    t_rc=39,
    t_wr=12,
    t_wtr=6,
    t_rtp=6,
    t_rrd=5,
    t_faw=24,
)
"""Off-chip channel: one DDR3-1600 channel per pod (Table 3)."""


STACKED_DDR3_3200 = DramTiming(
    name="DDR3-3200",
    bus_mhz=1600,
    banks_per_rank=8,
    row_buffer_bytes=2048,
    bus_width_bits=128,
    t_cas=11,
    t_rcd=11,
    t_rp=11,
    t_ras=28,
    t_rc=39,
    t_wr=12,
    t_wtr=6,
    t_rtp=6,
    t_rrd=5,
    t_faw=24,
)
"""Die-stacked channel: DDR3-3200 on a 128-bit TSV bus, 4 channels per pod."""


TIMING_PRESETS = {
    "ddr3_1600": OFF_CHIP_DDR3_1600,
    "ddr3_3200": STACKED_DDR3_3200,
}
"""Named device parameter sets referencable from a declarative config."""

ROLE_DEFAULTS = {
    "offchip": OFF_CHIP_DDR3_1600,
    "stacked": STACKED_DDR3_3200,
}
"""The paper's Table 3 device per DRAM role (preset name ``"default"``)."""


def register_timing_preset(name: str, timing: DramTiming) -> DramTiming:
    """Make a device parameter set nameable from declarative configs.

    Duplicates are rejected — preset names participate in result-store
    hashes, so redefining one would silently alias distinct experiments.
    """
    if name == "default" or name in TIMING_PRESETS:
        raise ValueError(f"timing preset {name!r} is already defined")
    TIMING_PRESETS[name] = timing
    return timing


def timing_preset(name: str, role: str = "stacked") -> DramTiming:
    """Resolve a preset name (``"default"`` means the role's Table 3 device)."""
    if name == "default":
        try:
            return ROLE_DEFAULTS[role]
        except KeyError:
            raise ValueError(
                f"unknown DRAM role {role!r}; one of {tuple(ROLE_DEFAULTS)}"
            ) from None
    try:
        return TIMING_PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown timing preset {name!r}; one of "
            f"{('default',) + tuple(TIMING_PRESETS)}"
        ) from None
