"""Sub-blocked (sectored) cache: allocate pages, fetch blocks on demand.

Section 3.1 uses this design as the "no overprediction, maximum
underprediction" end of the spectrum: every demanded block of a page
misses once.  We implement it both as that conceptual strawman and as the
predictor-off ablation of Footprint Cache.
"""

from __future__ import annotations

from repro.caches.base import CacheAccessResult
from repro.caches.page_cache import PageBasedCache, PageLine
from repro.mem.request import AccessType, MemoryRequest


class SubBlockedCache(PageBasedCache):
    """Page-allocated, demand-fetched DRAM cache."""

    name = "subblock"

    def access(self, request: MemoryRequest, now: int) -> CacheAccessResult:
        address = request.address
        page = address & self._page_mask
        offset = (address & self._offset_mask) >> self._block_shift
        is_write = request.access_type is AccessType.WRITE
        bit = 1 << offset
        latency = self.tag_latency
        line = self._tags.lookup(page)

        if line is not None and line.demanded_mask & bit:
            latency += self.stacked.access(
                line.frame + (offset << self._block_shift),
                self.block_size,
                is_write,
                now + latency,
            )
            if is_write:
                line.dirty_mask |= bit
            return self._record(CacheAccessResult(hit=True, latency=latency))

        if line is None:
            # Allocate the page but fetch nothing beyond the demand block.
            writebacks = self._make_room(page, now + latency)
            frame = self._frames.allocate(self._set_of(page))
            line = PageLine(frame=frame)
            if self._tags.insert(page, line) is not None:
                raise RuntimeError("victim should have been evicted by _make_room")
        else:
            writebacks = 0

        latency += self.offchip.access(
            page + (offset << self._block_shift), self.block_size, False, now + latency
        )
        self.stacked.access(
            line.frame + (offset << self._block_shift),
            self.block_size,
            True,
            now + latency,
        )
        line.demanded_mask |= bit
        if is_write:
            line.dirty_mask |= bit
        return self._record(
            CacheAccessResult(
                hit=False,
                latency=latency,
                fill_blocks=1,
                writeback_blocks=writebacks,
            )
        )
