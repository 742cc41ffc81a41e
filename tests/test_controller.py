"""Unit tests for the memory controller (timing + traffic + energy)."""

import pytest

from repro.dram.address_mapping import AddressMapping
from repro.dram.bank import RowBufferPolicy
from repro.dram.controller import MemoryController
from repro.dram.timing import OFF_CHIP_DDR3_1600, STACKED_DDR3_3200


def make_controller(policy=RowBufferPolicy.OPEN_PAGE, channels=1, interleave=2048):
    return MemoryController(
        timing=OFF_CHIP_DDR3_1600,
        mapping=AddressMapping(
            channels=channels, banks_per_channel=8, row_bytes=2048, interleave_bytes=interleave
        ),
        policy=policy,
    )


def device_cycles(controller, row_bus_cycles, num_bytes):
    """Unqueued latency of one access, from the timing parameters."""
    timing = controller.timing
    return timing.to_cpu_cycles(
        row_bus_cycles + timing.burst_cycles(num_bytes), controller.cpu_mhz
    )


class TestBasicAccess:
    def test_first_access_row_closed(self):
        controller = make_controller()
        latency = controller.access(0, 64, False, now=0)
        bank = controller.banks[0]
        assert (bank.activate_count, bank.precharge_count) == (1, 0)
        assert controller.row_hit_count == 0
        # Unqueued: the latency is exactly the closed-row device time.
        closed = OFF_CHIP_DDR3_1600.row_closed_bus_cycles
        assert latency == device_cycles(controller, closed, 64) > 0
        assert bank.busy_until == latency

    def test_row_hit_faster_than_conflict(self):
        controller = make_controller()
        controller.access(0, 64, False, 0)
        hit = controller.access(64, 64, False, 10_000)
        assert controller.row_hit_count == 1
        assert hit == device_cycles(controller, OFF_CHIP_DDR3_1600.row_hit_bus_cycles, 64)
        # Another row in the same bank: stride past all channels/banks/rows.
        conflict = controller.access(8 * 2048, 64, False, 20_000)
        bank = controller.banks[0]
        assert controller.row_hit_count == 1
        assert (bank.activate_count, bank.precharge_count) == (2, 1)
        assert conflict == device_cycles(
            controller, OFF_CHIP_DDR3_1600.row_conflict_bus_cycles, 64
        )
        assert hit < conflict

    def test_invalid_arguments(self):
        controller = make_controller()
        with pytest.raises(ValueError):
            controller.access(0, 0, False, 0)
        with pytest.raises(ValueError):
            controller.access(0, 64, False, -5)


class TestQueueing:
    def test_back_to_back_accesses_serialise(self):
        controller = make_controller()
        first = controller.access(0, 2048, False, 0)
        second = controller.access(0, 2048, False, 0)
        # The second (a row hit) starts only when the first finishes.
        hit = device_cycles(controller, OFF_CHIP_DDR3_1600.row_hit_bus_cycles, 2048)
        assert controller.row_hit_count == 1
        assert second == first + hit
        assert controller.banks[0].busy_until == second

    def test_different_banks_do_not_serialise(self):
        controller = make_controller()
        first = controller.access(0, 2048, False, 0)
        # Next page maps to another bank (1 channel -> bank rotation).
        second = controller.access(2048, 2048, False, 0)
        closed = device_cycles(controller, OFF_CHIP_DDR3_1600.row_closed_bus_cycles, 2048)
        assert first == second == closed
        assert controller.banks[0].busy_until == controller.banks[1].busy_until == closed


class TestTraffic:
    def test_bytes_accounted(self):
        controller = make_controller()
        controller.access(0, 64, False, 0)
        controller.access(0, 128, True, 0)
        assert controller.bytes_read == 64
        assert controller.bytes_written == 128
        assert controller.total_bytes == 192

    def test_access_count_and_row_hits(self):
        controller = make_controller()
        controller.access(0, 64, False, 0)
        controller.access(64, 64, False, 0)
        assert controller.access_count == 2
        assert controller.row_hit_count == 1
        assert controller.row_hit_ratio == pytest.approx(0.5)

    def test_row_hit_ratio_empty(self):
        assert make_controller().row_hit_ratio == 0.0


class TestEnergy:
    def test_read_energy_accumulates(self):
        controller = make_controller()
        controller.access(0, 64, False, 0)
        assert controller.energy.read_nj > 0
        assert controller.energy.write_nj == 0

    def test_row_hits_burn_no_activate_energy(self):
        controller = make_controller()
        controller.access(0, 64, False, 0)
        before = controller.energy.activate_precharge_nj
        controller.access(64, 64, False, 0)
        assert controller.energy.activate_precharge_nj == before

    def test_close_page_burns_activate_every_access(self):
        controller = make_controller(policy=RowBufferPolicy.CLOSE_PAGE)
        controller.access(0, 64, False, 0)
        first = controller.energy.activate_precharge_nj
        controller.access(0, 64, False, 0)
        assert controller.energy.activate_precharge_nj == pytest.approx(2 * first)


class TestUtilization:
    def test_utilization_bounded(self):
        controller = make_controller()
        for i in range(50):
            controller.access(i * 64, 64, False, 0)
        assert 0.0 < controller.utilization(10_000) <= 1.0

    def test_utilization_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            make_controller().utilization(0)

    def test_peak_bandwidth(self):
        # DDR3-1600 x64: 12.8GB/s = 4.266B per 3GHz CPU cycle.
        controller = make_controller()
        assert controller.peak_bandwidth_bytes_per_cycle() == pytest.approx(4.266, rel=1e-3)

    def test_stacked_peak_bandwidth_is_16x(self):
        # Four 128-bit DDR3-3200 channels vs one 64-bit DDR3-1600 channel:
        # 2 (width) x 2 (rate) x 4 (channels) = 16x per pod.
        stacked = MemoryController(
            timing=STACKED_DDR3_3200,
            mapping=AddressMapping(
                channels=4, banks_per_channel=8, row_bytes=2048, interleave_bytes=2048
            ),
        )
        offchip = make_controller()
        ratio = stacked.peak_bandwidth_bytes_per_cycle() / offchip.peak_bandwidth_bytes_per_cycle()
        assert ratio == pytest.approx(16.0)


class TestReset:
    def test_reset_stats(self):
        controller = make_controller()
        controller.access(0, 64, True, 0)
        controller.reset_stats()
        assert controller.access_count == 0
        assert controller.total_bytes == 0
        assert controller.energy.total_nj == 0.0

    def test_reset_keeps_row_state(self):
        controller = make_controller()
        controller.access(0, 64, False, 0)
        controller.reset_stats()
        controller.access(64, 64, False, 10_000)
        assert controller.row_hit_count == 1
        assert controller.banks[0].activate_count == 0


class TestInlinedAccessEquivalence:
    """The controller inlines locate + Bank.access + energy accounting.

    Bank and AddressMapping remain the reference implementations; this
    randomized test replays the same access sequence through the
    de-virtualized MemoryController.access and through a step-by-step
    reference built from those primitives, and requires identical
    outcomes, timing, traffic, energy and bank state.
    """

    @staticmethod
    def _reference_access(controller, banks, state, request):
        """One access computed step by step from the reference parts."""
        from repro.dram.bank import RowOutcome

        mapping, timing, policy = controller.mapping, controller.timing, controller.policy
        address, num_bytes, is_write, now = request
        channel, bank_index, row = mapping.locate(address)
        bank = banks[channel][bank_index]
        bank_access = bank.access(row)
        if bank_access.outcome is RowOutcome.HIT:
            row_bus_cycles = timing.row_hit_bus_cycles
        elif bank_access.outcome is RowOutcome.CLOSED:
            row_bus_cycles = timing.row_closed_bus_cycles
        else:
            row_bus_cycles = timing.row_conflict_bus_cycles
        stripe = min(num_bytes, mapping.interleave_bytes)
        burst = timing.burst_cycles(stripe)
        if is_write:
            row_bus_cycles += timing.t_wr if policy is RowBufferPolicy.CLOSE_PAGE else 0
        device_cycles = timing.to_cpu_cycles(row_bus_cycles + burst, controller.cpu_mhz)
        start = bank.reserve(now, device_cycles)
        state["energy"].record_row_operations(bank_access.activates, bank_access.precharges)
        if is_write:
            state["energy"].record_write(num_bytes)
            state["bytes_written"] += num_bytes
        else:
            state["energy"].record_read(num_bytes)
            state["bytes_read"] += num_bytes
        state["busy"] += device_cycles
        state["row_hits"] += bank_access.outcome is RowOutcome.HIT
        flat_bank = channel * mapping.banks_per_channel + bank_index
        return (flat_bank, row), start + device_cycles, start + device_cycles - now

    @pytest.mark.parametrize("cpu_mhz", [3000, 1500])
    @pytest.mark.parametrize("policy", [RowBufferPolicy.OPEN_PAGE, RowBufferPolicy.CLOSE_PAGE])
    @pytest.mark.parametrize("interleave", [64, 2048])
    def test_randomized_equivalence(self, policy, interleave, cpu_mhz):
        import random

        from repro.dram.bank import Bank
        from repro.dram.energy import DramEnergyCounters, DramEnergyModel

        rng = random.Random(13)
        mapping = AddressMapping(
            channels=2, banks_per_channel=4, row_bytes=2048,
            interleave_bytes=interleave,
        )
        controller = MemoryController(
            timing=STACKED_DDR3_3200, mapping=mapping, policy=policy,
            energy_model=DramEnergyModel.stacked(), cpu_mhz=cpu_mhz,
        )
        banks = [[Bank(policy) for _ in range(4)] for _ in range(2)]
        state = {
            "energy": DramEnergyCounters(model=DramEnergyModel.stacked()),
            "bytes_read": 0, "bytes_written": 0, "busy": 0, "row_hits": 0,
        }

        now = 0
        for _ in range(2_000):
            request = (
                rng.randrange(0, 1 << 22) & ~63,
                rng.choice([64, 128, 512, 2048]),
                rng.random() < 0.3,
                now,
            )
            located = controller.locate(request[0])
            latency = controller.access(*request)
            ref_located, finish, ref_latency = self._reference_access(
                controller, banks, state, request
            )
            assert located == ref_located
            assert latency == ref_latency
            assert controller.banks[located[0]].busy_until == finish
            assert controller.row_hit_count == state["row_hits"]
            now += rng.randrange(0, 200)

        assert controller.bytes_read == state["bytes_read"]
        assert controller.bytes_written == state["bytes_written"]
        assert controller.busy_cpu_cycles == state["busy"]
        assert controller.energy.activate_precharge_nj == state["energy"].activate_precharge_nj
        assert controller.energy.read_nj == state["energy"].read_nj
        assert controller.energy.write_nj == state["energy"].write_nj
        for channel in range(2):
            for index in range(4):
                reference_bank = banks[channel][index]
                live_bank = controller.banks[channel * 4 + index]
                assert live_bank.open_row == reference_bank.open_row
                assert live_bank.busy_until == reference_bank.busy_until
                assert live_bank.activate_count == reference_bank.activate_count
                assert live_bank.precharge_count == reference_bank.precharge_count
