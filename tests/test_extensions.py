"""Tests for extension features: FHT index modes, non-default page sizes,
multi-stripe DRAM transfers, and Table 4 at custom capacities."""

import pytest

from repro.core.footprint_cache import FootprintCache
from repro.core.footprint_predictor import INDEX_MODES, FootprintHistoryTable
from repro.core.overheads import table4
from repro.dram.address_mapping import AddressMapping
from repro.dram.bank import RowBufferPolicy
from repro.dram.controller import MemoryController
from repro.dram.timing import OFF_CHIP_DDR3_1600
from tests.conftest import read


class TestFhtIndexModes:
    def test_modes_enumerated(self):
        assert INDEX_MODES == ("pc_offset", "pc", "offset")

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            FootprintHistoryTable(num_entries=64, associativity=8, index_mode="magic")

    def test_pc_mode_ignores_offset(self):
        fht = FootprintHistoryTable(num_entries=64, associativity=8, index_mode="pc")
        fht.allocate(0x400, 3)
        # Same PC, different offset: same entry.
        assert fht.predict(0x400, 9) is not None

    def test_offset_mode_ignores_pc(self):
        fht = FootprintHistoryTable(num_entries=64, associativity=8, index_mode="offset")
        fht.allocate(0x400, 3)
        assert fht.predict(0x999, 3) is not None
        assert fht.predict(0x999, 4) is None

    def test_pc_offset_mode_distinguishes_both(self):
        fht = FootprintHistoryTable(num_entries=64, associativity=8)
        fht.allocate(0x400, 3)
        assert fht.predict(0x400, 4) is None
        assert fht.predict(0x404, 3) is None

    def test_update_reaches_reduced_key(self):
        fht = FootprintHistoryTable(num_entries=64, associativity=8, index_mode="pc")
        fht.allocate(0x400, 3)
        fht.update(0x400, 7, 0b1100)
        assert fht.predict(0x400, 0) == 0b1100 | 1 << 7


class TestNonDefaultPageSizes:
    @pytest.mark.parametrize("page_size", [1024, 4096])
    def test_footprint_cache_works(self, stacked, offchip, page_size):
        blocks = page_size // 64
        cache = FootprintCache(
            stacked,
            offchip,
            capacity_bytes=16 * page_size,
            page_size=page_size,
            associativity=8,
            tag_latency=9,
            fht=FootprintHistoryTable(
                num_entries=64, associativity=8, blocks_per_page=blocks
            ),
        )
        cache.access(read(page_size * 100), 0)
        cache.access(read(page_size * 100 + (blocks - 1) * 64), 100)
        assert cache.accesses == 2
        assert cache.blocks_per_page == blocks

    def test_page_size_must_match_fht(self, stacked, offchip):
        with pytest.raises(ValueError):
            FootprintCache(
                stacked,
                offchip,
                capacity_bytes=16 * 4096,
                page_size=4096,
                fht=FootprintHistoryTable(num_entries=64, associativity=8,
                                          blocks_per_page=32),
            )


class TestMultiStripeTransfers:
    def test_transfer_larger_than_interleave_charges_full_energy(self):
        controller = MemoryController(
            timing=OFF_CHIP_DDR3_1600,
            mapping=AddressMapping(
                channels=2, banks_per_channel=8, row_bytes=2048, interleave_bytes=64
            ),
            policy=RowBufferPolicy.OPEN_PAGE,
        )
        controller.access(0, 2048, False, 0)
        assert controller.bytes_read == 2048

    def test_stripe_latency_bounded_by_interleave(self):
        narrow = MemoryController(
            timing=OFF_CHIP_DDR3_1600,
            mapping=AddressMapping(
                channels=2, banks_per_channel=8, row_bytes=2048, interleave_bytes=64
            ),
        )
        wide = MemoryController(
            timing=OFF_CHIP_DDR3_1600,
            mapping=AddressMapping(
                channels=2, banks_per_channel=8, row_bytes=2048, interleave_bytes=2048
            ),
        )
        # The striped (64B-interleaved) transfer bursts only one stripe on
        # the addressed bank, so its critical path is shorter.
        assert narrow.access(0, 2048, False, 0) < wide.access(0, 2048, False, 0)


class TestTable4CustomCapacities:
    def test_custom_capacity_list(self):
        table = table4(capacities_mb=(32, 1024))
        assert set(table["footprint"]) == {32, 1024}
        assert (
            table["footprint"][1024].storage_bytes
            > table["footprint"][32].storage_bytes
        )

    def test_latency_grows_with_capacity(self):
        table = table4(capacities_mb=(64, 512))
        for design in ("footprint", "page"):
            assert (
                table[design][512].latency_cycles
                >= table[design][64].latency_cycles
            )
