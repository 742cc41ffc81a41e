"""Trace helpers: materialisation, the shared trace cache, and statistics.

The paper's methodology replays the *same* trace through every cache
design (Section 5.4).  Pre-materialising that trace once and sharing it
across designs is therefore both a fidelity and a performance feature:

* :class:`Trace` is a compact columnar materialisation — parallel arrays
  of address/pc/type/core/icount — that rebuilds
  :class:`~repro.mem.request.MemoryRequest` objects once (via the
  validation-free fast constructor) and shares them across replays.
* :class:`TraceCache` is a bounded per-process LRU over
  ``(profile, seed, page_size, block_size)`` generator identities.  A
  figure grid that replays one workload through six designs generates the
  trace once; the other five replays are served from memory.  Entries
  extend on demand (longer traces reuse the shorter prefix) and serve
  arbitrary ``[start, start+n)`` segments of the infinite deterministic
  request stream.

Correctness invariant (see ARCHITECTURE.md): the cache may never change
any simulated byte.  Served requests are value-identical to what the
generator would have produced — same RNG consumption, same field values —
so cold runs, warm runs and worker-process runs are indistinguishable in
every stored result.
"""

from __future__ import annotations

import os
import threading
from array import array
from collections import OrderedDict
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.mem.request import AccessType, MemoryRequest, page_address
from repro.workloads.profiles import WorkloadProfile
from repro.workloads.synthetic import SyntheticWorkload


def materialize(
    requests: Iterable[MemoryRequest], limit: Optional[int] = None
) -> List[MemoryRequest]:
    """Collect up to ``limit`` requests into a list (all, if None).

    Benches materialise once and replay the identical trace against every
    design, matching the paper's trace-driven methodology (Section 5.4).
    """
    if limit is None:
        return list(requests)
    if limit < 0:
        raise ValueError("limit must be non-negative")
    out: List[MemoryRequest] = []
    for request in requests:
        if len(out) >= limit:
            break
        out.append(request)
    return out


class Trace(Sequence):
    """A materialised request stream in columnar form.

    Five parallel arrays hold one field each (address, pc, write flag,
    core id, instruction count): compact to hold, cheap to hash or slice,
    and independent of request-object identity.  :meth:`requests`
    materialises the corresponding :class:`MemoryRequest` objects once
    and memoises them, so replaying one trace through many designs
    constructs each request object a single time.

    Instances are conceptually immutable; only the owning
    :class:`TraceCache` entry appends to a trace (to extend it), which
    never disturbs previously served prefixes.
    """

    __slots__ = (
        "addresses",
        "pcs",
        "writes",
        "core_ids",
        "instruction_counts",
        "_requests",
    )

    def __init__(self) -> None:
        self.addresses = array("q")
        self.pcs = array("q")
        self.writes = array("b")
        self.core_ids = array("h")
        self.instruction_counts = array("q")
        self._requests: List[MemoryRequest] = []

    @classmethod
    def from_requests(
        cls, requests: Iterable[MemoryRequest], limit: Optional[int] = None
    ) -> "Trace":
        """Materialise ``requests`` (up to ``limit``) into columns.

        The given objects become the trace's memoised request objects, so
        :meth:`requests` serves them instead of rebuilding them.
        """
        trace = cls()
        trace._requests = list(islice(requests, limit))
        trace._extend(trace._requests)
        return trace

    def _extend(self, requests: Iterable[MemoryRequest]) -> None:
        append_address = self.addresses.append
        append_pc = self.pcs.append
        append_write = self.writes.append
        append_core = self.core_ids.append
        append_icount = self.instruction_counts.append
        write = AccessType.WRITE
        for request in requests:
            append_address(request.address)
            append_pc(request.pc)
            append_write(1 if request.access_type is write else 0)
            append_core(request.core_id)
            append_icount(request.instruction_count)

    def requests(self, start: int = 0, stop: Optional[int] = None) -> List[MemoryRequest]:
        """The materialised request objects for ``[start, stop)``.

        Objects are built once per trace and shared between callers (and
        therefore between designs replaying the same trace); requests are
        frozen, so sharing is safe.
        """
        if stop is None:
            stop = len(self.addresses)
        self._materialize_to(stop)
        return self._requests[start:stop]

    def _materialize_to(self, stop: int) -> None:
        built = len(self._requests)
        if stop <= built:
            return
        make = MemoryRequest.fast
        read, write = AccessType.READ, AccessType.WRITE
        addresses = self.addresses
        pcs = self.pcs
        writes = self.writes
        core_ids = self.core_ids
        icounts = self.instruction_counts
        built_now = [
            make(addresses[i], pcs[i], write if writes[i] else read, core_ids[i], icounts[i])
            for i in range(built, stop)
        ]
        # One slice assignment (atomic under the GIL): a concurrent
        # caller that materialised the same range meanwhile is
        # overwritten with equal objects, never duplicated.
        self._requests[built:stop] = built_now

    def __len__(self) -> int:
        return len(self.addresses)

    def __getitem__(self, index):
        length = len(self.addresses)
        if isinstance(index, slice):
            start, stop, step = index.indices(length)
            # Materialise only up to the highest index the slice touches.
            bound = max(start + 1, stop) if step > 0 else start + 1
            self._materialize_to(min(bound, length))
            return self._requests[index]
        if index < 0:
            index += length
        if not 0 <= index < length:
            raise IndexError("trace index out of range")
        return self.requests(index, index + 1)[0]

    def __iter__(self):
        return iter(self.requests())

    def nbytes(self) -> int:
        """Approximate size of the columnar storage in bytes."""
        return sum(
            column.itemsize * len(column)
            for column in (
                self.addresses,
                self.pcs,
                self.writes,
                self.core_ids,
                self.instruction_counts,
            )
        )

    def __repr__(self) -> str:
        return f"Trace(n={len(self)}, columnar={self.nbytes()} bytes)"


class _TraceEntry:
    """One cached generator identity: the live workload plus its trace."""

    __slots__ = ("workload", "trace")

    def __init__(self, workload: SyntheticWorkload) -> None:
        self.workload = workload
        self.trace = Trace()

    def extend_to(self, length: int) -> None:
        """Grow the materialised stream to at least ``length`` requests.

        The workload generator is consumed exactly in stream order, so a
        grown entry holds precisely the requests a single
        ``requests(length)`` call on a fresh workload would have yielded.
        """
        missing = length - len(self.trace)
        if missing > 0:
            self.trace._extend(self.workload.requests(missing))


TraceKey = Tuple[WorkloadProfile, int, int, int]

#: Streams longer than this stay on the generator path.  Materialising a
#: trace costs memory proportional to its length — dominated by the
#: memoised request *objects* (~250B each, an order of magnitude over the
#: ~33B/request columnar arrays), so a 1M-request trace pins roughly
#: 280MB.  Figure grids top out around 500k requests; paper-sized runs
#: (``SimulationConfig.full_scale``, millions of requests) stream.
MAX_CACHED_REQUESTS = 1_000_000

#: Total-request budget across all cache entries: caps a process's
#: materialised-trace memory at roughly ``budget x 280B`` (~560MB)
#: regardless of entry count or continuation growth; LRU entries are
#: dropped to stay under it.
MAX_TOTAL_CACHED_REQUESTS = 2_000_000


def _default_max_entries() -> int:
    """Cache bound: ``$REPRO_TRACE_CACHE`` (entries; 0 disables) or 4."""
    override = os.environ.get("REPRO_TRACE_CACHE")
    if override:
        try:
            return max(0, int(override))
        except ValueError:
            pass
    return 4


class TraceCache:
    """Bounded per-process LRU of materialised traces.

    Keyed by the full generator identity — the *resolved*
    :class:`~repro.workloads.profiles.WorkloadProfile` (a frozen value
    object, so a re-registered or re-scaled profile can never alias a
    stale trace), the seed, the page size the trace is shaped for, and
    the block size.  Entries hold the live generator and extend on
    demand: a request for a longer trace reuses the shorter prefix, and
    segment serving (``start > 0``) gives simulators exact continuation
    semantics across repeated runs.

    The cache is transparent by construction: it stores what the
    generator produced and serves it unchanged, so any simulation fed
    from the cache is request-for-request identical to one fed from a
    fresh generator.  Memory is doubly bounded: ``max_entries`` caps the
    number of traces and ``max_total_requests`` caps the sum of their
    lengths; least-recently-used traces are dropped (and will be
    regenerated, bit-identically, if needed again).
    """

    def __init__(
        self,
        max_entries: Optional[int] = None,
        max_total_requests: int = MAX_TOTAL_CACHED_REQUESTS,
    ) -> None:
        if max_entries is None:
            max_entries = _default_max_entries()
        if max_entries < 0:
            raise ValueError("max_entries must be non-negative")
        if max_total_requests < 0:
            raise ValueError("max_total_requests must be non-negative")
        self.max_entries = max_entries
        self.max_total_requests = max_total_requests
        self._entries: "OrderedDict[TraceKey, _TraceEntry]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict:
        """Counters + occupancy: hits, misses, evictions, resident bytes.

        ``resident_bytes`` is the columnar storage only (the memoised
        request objects cost ~250B each on top; ``cached_requests``
        bounds those).  Surfaced by ``repro store stats`` and, at scrape
        time, by the serve layer's ``/metrics`` endpoints.
        """
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": (
                    self.hits / (self.hits + self.misses)
                    if self.hits + self.misses
                    else None
                ),
                "evictions": self.evictions,
                "cached_requests": self.cached_requests,
                "resident_bytes": sum(
                    entry.trace.nbytes()
                    for entry in self._entries.values()
                ),
            }

    @property
    def cached_requests(self) -> int:
        """Total materialised requests across all entries."""
        return sum(len(entry.trace) for entry in self._entries.values())

    def _entry(
        self,
        profile: WorkloadProfile,
        seed: int,
        page_size: int,
        block_size: int,
    ) -> _TraceEntry:
        key: TraceKey = (profile, seed, page_size, block_size)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            entry = _TraceEntry(
                SyntheticWorkload(
                    profile, seed=seed, page_size=page_size, block_size=block_size
                )
            )
            self._entries[key] = entry
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
        else:
            self.hits += 1
            self._entries.move_to_end(key)
        return entry

    def requests(
        self,
        profile: WorkloadProfile,
        seed: int,
        page_size: int,
        num_requests: int,
        start: int = 0,
        block_size: int = 64,
    ) -> List[MemoryRequest]:
        """Requests ``[start, start + num_requests)`` of the stream.

        The request objects of :meth:`columnar`'s trace: built once per
        trace and shared with every other caller of it (requests are
        frozen, so sharing is safe).
        """
        trace = self.columnar(profile, seed, page_size, num_requests, start, block_size)
        return trace.requests(start, start + num_requests)

    def columnar(
        self,
        profile: WorkloadProfile,
        seed: int,
        page_size: int,
        num_requests: int,
        start: int = 0,
        block_size: int = 64,
    ) -> Trace:
        """The columnar trace backing stream ``[0, start + num_requests)``.

        Request *objects* are not materialised here: the batch kernels
        read the columns directly (zero-copy NumPy views), so serving
        them must not pay the ~250B/request object cost.  The returned
        :class:`Trace` is the live cache entry's — callers must treat it
        as read-only and drop any buffer views before the entry is
        extended again (NumPy views pin ``array`` buffers).  With
        ``max_entries == 0`` the cache is disabled and the trace is
        generated fresh (still exact).
        """
        if num_requests < 0 or start < 0:
            raise ValueError("start and num_requests must be non-negative")
        with self._lock:
            if self.max_entries == 0:
                self.misses += 1
                workload = SyntheticWorkload(
                    profile, seed=seed, page_size=page_size, block_size=block_size
                )
                return Trace.from_requests(workload.requests(start + num_requests))
            entry = self._entry(profile, seed, page_size, block_size)
            entry.extend_to(start + num_requests)
            trace = entry.trace
            # Columnar bytes are an order of magnitude cheaper than
            # request objects, but the budget still applies: continuation
            # growth is unbounded otherwise.  The caller keeps its trace
            # reference even if the entry is evicted here.
            while self._entries and self.cached_requests > self.max_total_requests:
                self._entries.popitem(last=False)
                self.evictions += 1
            return trace

    def clear(self) -> None:
        """Drop every entry (testing / memory pressure)."""
        with self._lock:
            self._entries.clear()


_SHARED = TraceCache()


def shared_trace_cache() -> TraceCache:
    """The per-process trace cache the simulator serves replays from."""
    return _SHARED


@dataclass(frozen=True)
class TraceStatistics:
    """Summary statistics of a trace."""

    num_requests: int
    num_writes: int
    unique_pages: int
    unique_blocks: int
    unique_pcs: int
    total_instructions: int

    @property
    def write_fraction(self) -> float:
        """Fraction of write requests."""
        if self.num_requests == 0:
            return 0.0
        return self.num_writes / self.num_requests

    @property
    def accesses_per_kilo_instruction(self) -> float:
        """DRAM-cache accesses per 1000 instructions (L2 MPKI analogue)."""
        if self.total_instructions == 0:
            return 0.0
        return 1000.0 * self.num_requests / self.total_instructions


def trace_statistics(
    requests: Sequence[MemoryRequest], page_size: int = 2048
) -> TraceStatistics:
    """Compute :class:`TraceStatistics` over a materialised trace."""
    pages = set()
    blocks = set()
    pcs = set()
    writes = 0
    instructions = 0
    for request in requests:
        pages.add(page_address(request.address, page_size))
        blocks.add(request.block_address())
        pcs.add(request.pc)
        if request.is_write:
            writes += 1
        instructions += request.instruction_count
    return TraceStatistics(
        num_requests=len(requests),
        num_writes=writes,
        unique_pages=len(pages),
        unique_blocks=len(blocks),
        unique_pcs=len(pcs),
        total_instructions=instructions,
    )
