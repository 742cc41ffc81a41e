"""Unit tests for DDR3 timing parameters."""

import dataclasses

import pytest

from repro.dram.timing import DramTiming, OFF_CHIP_DDR3_1600, STACKED_DDR3_3200


class TestPresets:
    def test_paper_timing_values(self):
        # Table 3: tCAS-tRCD-tRP-tRAS = 11-11-11-28, tRC-tWR-tWTR-tRTP =
        # 39-12-6-6, tRRD-tFAW = 5-24.
        for timing in (OFF_CHIP_DDR3_1600, STACKED_DDR3_3200):
            assert (timing.t_cas, timing.t_rcd, timing.t_rp, timing.t_ras) == (11, 11, 11, 28)
            assert (timing.t_rc, timing.t_wr, timing.t_wtr, timing.t_rtp) == (39, 12, 6, 6)
            assert (timing.t_rrd, timing.t_faw) == (5, 24)

    def test_stacked_has_double_bus_frequency(self):
        assert STACKED_DDR3_3200.bus_mhz == 2 * OFF_CHIP_DDR3_1600.bus_mhz

    def test_stacked_has_128bit_bus(self):
        assert STACKED_DDR3_3200.bus_width_bits == 128

    def test_row_buffer_is_2kb(self):
        assert OFF_CHIP_DDR3_1600.row_buffer_bytes == 2048


class TestValidation:
    def test_zero_frequency_rejected(self):
        with pytest.raises(ValueError):
            dataclasses.replace(OFF_CHIP_DDR3_1600, bus_mhz=0)

    def test_non_power_of_two_row_rejected(self):
        with pytest.raises(ValueError):
            dataclasses.replace(OFF_CHIP_DDR3_1600, row_buffer_bytes=3000)

    def test_odd_bus_width_rejected(self):
        with pytest.raises(ValueError):
            dataclasses.replace(OFF_CHIP_DDR3_1600, bus_width_bits=63)


class TestBurstMath:
    def test_bytes_per_burst(self):
        # 64-bit bus, BL8: 64 bytes.
        assert OFF_CHIP_DDR3_1600.bytes_per_burst == 64
        assert STACKED_DDR3_3200.bytes_per_burst == 128

    def test_single_block_burst_cycles(self):
        # 64B on a 64-bit bus: 8 beats = 4 bus cycles.
        assert OFF_CHIP_DDR3_1600.burst_cycles(64) == 4

    def test_minimum_burst_enforced(self):
        # Even 1 byte moves a full BL8 burst.
        assert OFF_CHIP_DDR3_1600.burst_cycles(1) == 4

    def test_page_burst_cycles(self):
        # 2KB page over a 64-bit bus: 256 beats = 128 bus cycles.
        assert OFF_CHIP_DDR3_1600.burst_cycles(2048) == 128

    def test_stacked_page_burst_is_quarter(self):
        # 128-bit bus halves beats; same cycle count per beat pair.
        assert STACKED_DDR3_3200.burst_cycles(2048) == 64

    def test_burst_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            OFF_CHIP_DDR3_1600.burst_cycles(0)


class TestLatencyClasses:
    def test_ordering(self):
        timing = OFF_CHIP_DDR3_1600
        assert timing.row_hit_bus_cycles < timing.row_closed_bus_cycles
        assert timing.row_closed_bus_cycles < timing.row_conflict_bus_cycles

    def test_values(self):
        timing = OFF_CHIP_DDR3_1600
        assert timing.row_hit_bus_cycles == 11
        assert timing.row_closed_bus_cycles == 22
        assert timing.row_conflict_bus_cycles == 33


class TestCpuConversion:
    def test_offchip_ratio(self):
        # 800MHz bus at 3GHz CPU: x3.75, rounded up.
        assert OFF_CHIP_DDR3_1600.to_cpu_cycles(4, 3000) == 15

    def test_stacked_ratio(self):
        # 1600MHz bus at 3GHz CPU: x1.875.
        assert STACKED_DDR3_3200.to_cpu_cycles(8, 3000) == 15

    def test_zero_cycles(self):
        assert OFF_CHIP_DDR3_1600.to_cpu_cycles(0, 3000) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            OFF_CHIP_DDR3_1600.to_cpu_cycles(-1, 3000)

    def test_clock_is_explicit(self):
        # 800MHz bus at 1.5GHz CPU: x1.875, rounded up; no default clock.
        assert OFF_CHIP_DDR3_1600.to_cpu_cycles(4, 1500) == 8
        with pytest.raises(TypeError):
            OFF_CHIP_DDR3_1600.to_cpu_cycles(4)


class TestHalvedLatency:
    def test_half_latency_variant(self):
        half = STACKED_DDR3_3200.with_halved_latency()
        assert half.t_cas == 5
        assert half.t_rcd == 5
        assert half.t_rc == 19
        # Bandwidth parameters unchanged.
        assert half.bus_mhz == STACKED_DDR3_3200.bus_mhz
        assert half.bus_width_bits == STACKED_DDR3_3200.bus_width_bits

    def test_half_latency_never_zero(self):
        tiny = dataclasses.replace(OFF_CHIP_DDR3_1600, t_rrd=1)
        assert tiny.with_halved_latency().t_rrd == 1
