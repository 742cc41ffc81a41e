"""Unit tests for the sub-blocked and ideal cache designs."""

import pytest

from repro.caches.ideal_cache import IdealCache
from repro.caches.subblock_cache import SubBlockedCache
from tests.conftest import read, write


@pytest.fixture
def subblock(stacked, offchip):
    return SubBlockedCache(
        stacked, offchip, capacity_bytes=16 * 2048, associativity=8, tag_latency=4
    )


class TestSubBlocked:
    def test_miss_fetches_single_block(self, subblock, offchip):
        result = subblock.access(read(0x10000), 0)
        assert not result.hit
        assert result.fill_blocks == 1
        assert offchip.bytes_read == 64

    def test_each_block_misses_once(self, subblock):
        """Maximum underprediction: every demanded block is one miss."""
        for i in range(32):
            result = subblock.access(read(0x10000 + i * 64), i * 100)
            assert not result.hit
        assert subblock.miss_ratio == 1.0
        # ...but re-demands hit.
        assert subblock.access(read(0x10000), 10_000).hit

    def test_page_allocated_once(self, subblock):
        subblock.access(read(0x10000), 0)
        subblock.access(read(0x10040), 10)
        assert subblock.resident_pages == 1

    def test_no_overfetch_ever(self, subblock, offchip):
        """Zero overprediction: off-chip reads equal demanded blocks."""
        demanded = 0
        for i in range(100):
            subblock.access(read((i % 10) * 2048 + (i % 7) * 64), i * 10)
        assert offchip.bytes_read == 64 * len(
            {((i % 10) * 2048 + (i % 7) * 64) // 64 for i in range(100)}
        )

    def test_write_marks_dirty(self, subblock, offchip):
        subblock.access(write(0), 0)
        stride = 2 * 2048
        before = offchip.bytes_written
        for i in range(1, 9):
            subblock.access(read(i * stride), i * 1000)
        assert offchip.bytes_written - before == 64


class TestIdeal:
    def test_always_hits(self, stacked, offchip):
        cache = IdealCache(stacked, offchip)
        for i in range(50):
            assert cache.access(read(i * 997 * 64), i).hit
        assert cache.miss_ratio == 0.0

    def test_no_offchip_traffic(self, stacked, offchip):
        cache = IdealCache(stacked, offchip)
        cache.access(read(0x5000), 0)
        cache.access(write(0x9000), 10)
        assert offchip.total_bytes == 0
        assert stacked.total_bytes == 128

    def test_latency_is_stacked_only(self, stacked, offchip):
        cache = IdealCache(stacked, offchip)
        result = cache.access(read(0), 0)
        # No tag overhead: pure stacked DRAM access.
        closed = stacked.timing.row_closed_bus_cycles + stacked.timing.burst_cycles(64)
        assert result.latency == stacked.cpu_cycles(closed)
