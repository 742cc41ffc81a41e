"""Common interface of all die-stacked DRAM cache designs.

Every design receives the stream of L2 misses (the requests that reach the
DRAM cache level), consults its metadata, moves data between the stacked
DRAM and off-chip DRAM through the two memory controllers, and reports the
latency each request observed.  The controllers accumulate traffic and
energy, so Figs. 5b, 10 and 11 fall out of the same run as Fig. 5a.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Optional

from repro.dram.controller import MemoryController
from repro.mem.request import (
    BLOCK_SIZE,
    AccessType,
    MemoryRequest,
    _require_power_of_two,
)
from repro.perf.stats import StatGroup


@dataclass(slots=True)
class CacheAccessResult:
    """Outcome of one request at the DRAM cache level.

    One result is created per simulated request (the hottest allocation
    in the repo), so the class is a ``__slots__`` dataclass: no per
    instance ``__dict__``, and a plain generated ``__init__``.  Treat
    instances as immutable — they are shared bookkeeping records, not
    mutable state.

    Attributes
    ----------
    hit:
        True if the demanded block was served from the stacked DRAM.
    latency:
        Cycles from request arrival to data return, including tag lookup,
        DRAM queueing, and (on a miss) the off-chip round trip.
    bypassed:
        True if the request was served off-chip *by design* (e.g. singleton
        bypass in Footprint Cache) rather than as an allocation miss.
    fill_blocks:
        Blocks fetched from off-chip memory because of this request
        (demand block + prefetched footprint / page remainder).
    writeback_blocks:
        Dirty blocks written back off-chip because of this request.
    """

    hit: bool
    latency: int
    bypassed: bool = False
    fill_blocks: int = 0
    writeback_blocks: int = 0


class DramCache(abc.ABC):
    """Abstract die-stacked DRAM cache.

    Concrete designs implement :meth:`access`; the shared bookkeeping here
    (hit/miss counters, traffic attribution) keeps the designs comparable.
    """

    name = "abstract"

    def __init__(
        self,
        stacked: MemoryController,
        offchip: MemoryController,
        block_size: int = BLOCK_SIZE,
    ) -> None:
        self.stacked = stacked
        self.offchip = offchip
        self.block_size = block_size
        # Address-split constants, validated once here instead of per
        # access: ``address & _block_mask`` is ``block_address(address)``.
        _require_power_of_two(block_size, "block_size")
        self._block_mask = ~(block_size - 1)
        self.stats = StatGroup(self.name)
        # The per-access counters, bound to attributes at construction so
        # the hot path skips the StatGroup dict lookup.  StatGroup.reset()
        # zeroes counters in place, so the bindings survive warm-up resets.
        self._c_accesses = self.stats.counter("accesses")
        self._c_hits = self.stats.counter("hits")
        self._c_bypasses = self.stats.counter("bypasses")
        self._c_fill_blocks = self.stats.counter("fill_blocks")
        self._c_writeback_blocks = self.stats.counter("writeback_blocks")
        self._c_total_latency = self.stats.counter("total_latency")

    @abc.abstractmethod
    def access(self, request: MemoryRequest, now: int) -> CacheAccessResult:
        """Service ``request`` arriving at CPU cycle ``now``."""

    @property
    def accesses(self) -> int:
        """Requests seen so far."""
        return self.stats.counter("accesses").value

    @property
    def hits(self) -> int:
        """Requests served from stacked DRAM."""
        return self.stats.counter("hits").value

    @property
    def misses(self) -> int:
        """Requests that needed off-chip data."""
        return self.accesses - self.hits

    @property
    def miss_ratio(self) -> float:
        """Miss ratio as plotted in Fig. 5a."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    @property
    def hit_ratio(self) -> float:
        """1 - miss ratio."""
        return 1.0 - self.miss_ratio

    def _critical_fetch_latency(self, fetch_latency: int, total_bytes: int) -> int:
        """Latency until the *demand block* of a multi-block fetch returns.

        The demanded block is forwarded critical-block-first, so the
        controller's :meth:`~repro.dram.controller.MemoryController.critical_tail`
        is off the critical path.
        """
        return fetch_latency - self.offchip.critical_tail(total_bytes, self.block_size)

    def _record(self, result: CacheAccessResult) -> CacheAccessResult:
        """Fold one access result into the shared statistics.

        Uses the counters bound in ``__init__`` and bumps their values
        directly; every recorded amount is non-negative by construction,
        so the :meth:`~repro.perf.stats.Counter.increment` guard adds
        nothing here.
        """
        self._c_accesses._value += 1
        if result.hit:
            self._c_hits._value += 1
        if result.bypassed:
            self._c_bypasses._value += 1
        self._c_fill_blocks._value += result.fill_blocks
        self._c_writeback_blocks._value += result.writeback_blocks
        self._c_total_latency._value += result.latency
        return result

    def reset_stats(self) -> None:
        """End-of-warm-up reset of this design's statistics."""
        self.stats.reset()


class BaselineMemory(DramCache):
    """The paper's baseline: no DRAM cache, every request goes off-chip.

    Implemented as a degenerate :class:`DramCache` so the simulator and
    benches can treat the baseline uniformly.
    """

    name = "baseline"

    def access(self, request: MemoryRequest, now: int) -> CacheAccessResult:
        is_write = request.access_type is AccessType.WRITE
        latency = self.offchip.access(
            request.address & self._block_mask,
            self.block_size,
            is_write,
            now,
        )
        return self._record(
            CacheAccessResult(
                hit=False,
                latency=latency,
                fill_blocks=0 if is_write else 1,
            )
        )
