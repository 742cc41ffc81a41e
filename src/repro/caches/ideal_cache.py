"""Ideal die-stacked cache: never misses, no tag overhead.

The paper's "Ideal" bars in Figs. 6 and 7 model die-stacked main memory —
every request is a stacked-DRAM hit with zero metadata latency.  Footprint
Cache delivers 82% of this bound (Section 6.3).
"""

from __future__ import annotations

from repro.caches.base import CacheAccessResult, DramCache
from repro.mem.request import AccessType, MemoryRequest


class IdealCache(DramCache):
    """Upper-bound design: all data always resident in stacked DRAM."""

    name = "ideal"

    def access(self, request: MemoryRequest, now: int) -> CacheAccessResult:
        latency = self.stacked.access(
            request.address & self._block_mask,
            self.block_size,
            request.access_type is AccessType.WRITE,
            now,
        )
        return self._record(CacheAccessResult(hit=True, latency=latency))
