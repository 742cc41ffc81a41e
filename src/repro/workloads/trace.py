"""Trace helpers: materialisation, the shared trace cache, and statistics.

The paper's methodology replays the *same* trace through every cache
design (Section 5.4).  Pre-materialising that trace once and sharing it
across designs is therefore both a fidelity and a performance feature:

* :class:`Trace` is a compact columnar materialisation — append-only
  NumPy columns of address/pc/type/core/icount, safe to slice while the
  trace grows — that rebuilds :class:`~repro.mem.request.MemoryRequest`
  objects once (via the validation-free fast constructor) and shares
  them across replays.
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

import threading
from collections import OrderedDict
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

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


#: The five request fields a :class:`Trace` stores, one NumPy column each.
COLUMNS = (
    ("addresses", np.int64),
    ("pcs", np.int64),
    ("writes", np.int8),
    ("core_ids", np.int16),
    ("instruction_counts", np.int64),
)

# Requests converted to columns per step while extending a trace: bounds
# the transient request objects, not the trace.
_EXTEND_CHUNK = 1 << 16


class Trace(Sequence):
    """A materialised request stream in columnar form.

    Five parallel NumPy columns hold one field each (address, pc, write
    flag, core id, instruction count): compact to hold, cheap to slice,
    and independent of request-object identity.  :meth:`requests`
    materialises the corresponding :class:`MemoryRequest` objects once
    and memoises them, so replaying one trace through many designs
    constructs each request object a single time.

    The trace is append-only, and its columns obey one invariant: a
    buffer a reader may hold is never resized, and nothing below the
    published length (``len(trace)``) is ever written again.
    :meth:`_extend` writes past the published length into spare
    capacity; when capacity runs out it copies into larger arrays,
    publishes those, then publishes the new length.  So a slice of a
    column below ``len(trace)`` stays valid, and unchanged, however the
    trace grows afterwards; each column may be longer than the trace
    (growth headroom), and only its first ``len(trace)`` entries are
    requests.
    """

    __slots__ = tuple(name for name, _ in COLUMNS) + ("_length", "_requests")

    def __init__(self) -> None:
        for name, dtype in COLUMNS:
            setattr(self, name, np.empty(0, dtype))
        self._length = 0
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
        write = AccessType.WRITE
        source = iter(requests)
        while True:
            chunk = list(islice(source, _EXTEND_CHUNK))
            if not chunk:
                return
            start = self._length
            stop = start + len(chunk)
            columns = [getattr(self, name) for name, _ in COLUMNS]
            if stop > len(columns[0]):
                capacity = max(stop, 2 * len(columns[0]))
                grown = [np.empty(capacity, column.dtype) for column in columns]
                for new, old in zip(grown, columns):
                    new[:start] = old[:start]
                columns = grown
            columns[0][start:stop] = [r.address for r in chunk]
            columns[1][start:stop] = [r.pc for r in chunk]
            columns[2][start:stop] = [r.access_type is write for r in chunk]
            columns[3][start:stop] = [r.core_id for r in chunk]
            columns[4][start:stop] = [r.instruction_count for r in chunk]
            for (name, _), column in zip(COLUMNS, columns):
                setattr(self, name, column)
            self._length = stop

    def requests(self, start: int = 0, stop: Optional[int] = None) -> List[MemoryRequest]:
        """The materialised request objects for ``[start, stop)``.

        Objects are built once per trace and shared between callers (and
        therefore between designs replaying the same trace); requests are
        frozen, so sharing is safe.
        """
        length = self._length
        stop = length if stop is None else min(stop, length)
        built = len(self._requests)
        if stop > built:
            addresses, pcs, writes, cores, icounts = (
                getattr(self, name)[built:stop].tolist() for name, _ in COLUMNS
            )
            kinds = (AccessType.READ, AccessType.WRITE)
            types = [kinds[w] for w in writes]
            # One slice assignment (atomic under the GIL): a concurrent
            # caller that materialised the same range meanwhile is
            # overwritten with equal objects, never duplicated.
            self._requests[built:stop] = list(
                map(MemoryRequest.fast, addresses, pcs, types, cores, icounts)
            )
        return self._requests[start:stop]

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index):
        return self.requests()[index]

    def __iter__(self):
        return iter(self.requests())

    def nbytes(self) -> int:
        """Bytes the columns hold allocated, growth headroom included."""
        return sum(getattr(self, name).nbytes for name, _ in COLUMNS)

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

#: Traces a :class:`TraceCache` holds at once, least recently used first
#: out.
MAX_CACHED_TRACES = 4


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
        max_entries: int = MAX_CACHED_TRACES,
        max_total_requests: int = MAX_TOTAL_CACHED_REQUESTS,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
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

        ``resident_bytes`` is what the columns hold allocated, growth
        headroom included (the memoised request objects cost ~250B each
        on top; ``cached_requests`` bounds those).  Surfaced by ``repro
        store stats`` and, at scrape time, by the serve layer's
        ``/metrics`` endpoints.
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
        read the columns directly, so serving them must not pay the
        ~250B/request object cost.  The returned :class:`Trace` is the
        live cache entry's; callers treat it as read-only, and whatever
        they read of it stays valid while the entry grows.
        """
        if num_requests < 0 or start < 0:
            raise ValueError("start and num_requests must be non-negative")
        with self._lock:
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
