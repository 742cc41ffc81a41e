"""Memory controller: address mapping + bank timing + energy, per channel.

One :class:`MemoryController` models all channels of one DRAM instance
(off-chip or stacked).  Latency of an access is::

    queue wait (bank busy)  +  row operation (hit/closed/conflict)  +  burst

all converted to CPU cycles.  This captures the three effects the paper's
design guidelines hinge on (Section 2.1): row-buffer locality, bank-level
parallelism/availability, and transfer size.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.dram.address_mapping import AddressMapping
from repro.dram.bank import Bank, RowBufferPolicy
from repro.dram.energy import DramEnergyCounters, DramEnergyModel
from repro.dram.timing import DramTiming


class MemoryController:
    """Controller for one DRAM instance (a set of identical channels).

    The controller is the one owner of the DRAM timing arithmetic.  The
    cache designs and the batch replay kernels take their cycle counts
    from :meth:`cycle_table`, :meth:`critical_tail` and
    :meth:`cpu_cycles`, and their bank/row from :meth:`locate`, all at
    this controller's ``cpu_mhz``.

    Parameters
    ----------
    timing:
        Device timing parameters.
    mapping:
        Address interleaving across channels/banks/rows.
    policy:
        Row-buffer policy (open- or close-page), chosen per cache design as
        in Section 5.2 of the paper.
    energy_model:
        Per-event energies; accumulated in :attr:`energy`.
    cpu_mhz:
        Core frequency for bus-to-CPU cycle conversion.
    """

    def __init__(
        self,
        timing: DramTiming,
        mapping: AddressMapping,
        policy: RowBufferPolicy = RowBufferPolicy.OPEN_PAGE,
        energy_model: DramEnergyModel = None,
        cpu_mhz: int = 3000,
    ) -> None:
        if mapping.row_bytes > timing.row_buffer_bytes and mapping.interleave_bytes > timing.row_buffer_bytes:
            raise ValueError(
                "address mapping rows cannot exceed the device row buffer "
                f"({mapping.row_bytes} > {timing.row_buffer_bytes})"
            )
        self.timing = timing
        self.mapping = mapping
        self.policy = policy
        self.cpu_mhz = cpu_mhz
        self.energy = DramEnergyCounters(model=energy_model or DramEnergyModel())
        # Channel-major: bank b of channel c is banks[c * banks_per_channel + b].
        self.banks: List[Bank] = [
            Bank(policy) for _ in range(mapping.channels * mapping.banks_per_channel)
        ]
        self.access_count = 0
        self.row_hit_count = 0
        self.busy_cpu_cycles = 0
        self.bytes_read = 0
        self.bytes_written = 0
        # Address decomposition constants (see locate).
        self._interleave_bytes = mapping.interleave_bytes
        self._channels = mapping.channels
        self._banks_per_channel = mapping.banks_per_channel
        self._chunks_per_row = max(1, mapping.row_bytes // mapping.interleave_bytes)
        self._close_page = policy is RowBufferPolicy.CLOSE_PAGE
        # num_bytes -> cycle_table(num_bytes).
        self._cycle_tables: dict = {}
        # Per-event energy constants (same factors record_read/record_write
        # multiply by; the division by 64.0 is exact, so inlining keeps the
        # accumulated floats bit-identical).
        model = self.energy.model
        self._activate_nj = model.activate_precharge_nj
        self._read_nj_per_64b = model.read_burst_nj_per_64b
        self._write_nj_per_64b = model.write_burst_nj_per_64b

    def cpu_cycles(self, bus_cycles: int) -> int:
        """``bus_cycles`` of this device in CPU cycles at ``cpu_mhz``."""
        return self.timing.to_cpu_cycles(bus_cycles, self.cpu_mhz)

    def locate(self, address) -> Tuple[int, int]:
        """``(bank, row)`` of ``address``; ``bank`` indexes :attr:`banks`.

        Plain integer arithmetic, so a NumPy array of non-negative
        addresses decomposes elementwise too.  Equals
        ``AddressMapping.locate`` with the channel folded into the flat
        bank index.
        """
        chunk = address // self._interleave_bytes
        upper = chunk // self._channels
        return (
            chunk % self._channels * self._banks_per_channel
            + upper % self._banks_per_channel,
            upper // self._banks_per_channel // self._chunks_per_row,
        )

    def cycle_table(self, num_bytes: int) -> Tuple[int, ...]:
        """CPU cycles a ``num_bytes`` access holds its bank, per outcome.

        A 6-tuple indexed ``is_write * 3 + code``, with row-buffer code
        0 = hit, 1 = closed (activate) and 2 = conflict (precharge +
        activate).  Each entry is the row operation, plus write recovery
        for close-page writes, plus the burst of the widest stripe on one
        bank.  Memoised per size: a run uses few distinct sizes.
        """
        table = self._cycle_tables.get(num_bytes)
        if table is None:
            timing = self.timing
            burst = timing.burst_cycles(min(num_bytes, self._interleave_bytes))
            recovery = timing.t_wr if self._close_page else 0
            rows = (
                timing.row_hit_bus_cycles,
                timing.row_closed_bus_cycles,
                timing.row_conflict_bus_cycles,
            )
            table = tuple(
                self.cpu_cycles(row + write + burst)
                for write in (0, recovery)
                for row in rows
            )
            self._cycle_tables[num_bytes] = table
        return table

    def critical_tail(self, num_bytes: int, block_size: int) -> int:
        """CPU cycles of a ``num_bytes`` burst after its first block.

        Page-organised designs fetch several blocks in one burst but
        forward the demanded block critical-block-first; the burst tail is
        off the critical path.  The tail is bounded by what one bank
        bursts (one interleave stripe).
        """
        timing = self.timing
        stripe = min(num_bytes, self._interleave_bytes)
        tail = timing.burst_cycles(stripe) - timing.burst_cycles(block_size)
        return self.cpu_cycles(max(0, tail))

    def access(self, address: int, num_bytes: int, is_write: bool, now: int = 0) -> int:
        """Perform one access of ``num_bytes`` at CPU cycle ``now``.

        Returns the latency in CPU cycles: queue wait for the bank plus
        the bank's :meth:`cycle_table` time.  ``num_bytes`` is the full
        transfer for this DRAM operation (64B for a block fetch, up to a
        page for a page fill).  Transfers larger than the interleave unit
        are striped across channels; we model the latency of the critical
        path (the widest stripe on one bank) and charge energy for all of
        it.

        The row-buffer state machine and energy accounting are inlined;
        ``Bank.access`` and ``AddressMapping.locate`` remain the reference
        that ``tests/test_controller.py`` compares against.
        """
        if num_bytes <= 0:
            raise ValueError("num_bytes must be positive")
        if now < 0:
            raise ValueError("now must be non-negative")
        if address < 0:
            raise ValueError("address must be non-negative")

        index, row = self.locate(address)
        bank = self.banks[index]

        # Bank row-buffer state machine (== bank.access(row)).
        open_row = bank._open_row
        if open_row is None:
            outcome_code = 1  # CLOSED
            activates = 1
            precharges = 0
        elif open_row == row:
            outcome_code = 0  # HIT
            activates = 0
            precharges = 0
        else:
            outcome_code = 2  # CONFLICT
            activates = 1
            precharges = 1
        if self._close_page:
            bank._open_row = None
            if outcome_code != 2:
                precharges += 1
        else:
            bank._open_row = row
        bank.activate_count += activates
        bank.precharge_count += precharges

        device_cycles = self.cycle_table(num_bytes)[
            3 + outcome_code if is_write else outcome_code
        ]

        # Bank occupancy (== bank.reserve(now, device_cycles)).
        start = bank.busy_until
        if start < now:
            start = now
        finish = start + device_cycles
        bank.busy_until = finish

        # Energy and traffic (== energy.record_* with the same float ops).
        if activates:
            self.energy.activate_precharge_nj += activates * self._activate_nj
        if is_write:
            self.energy.write_nj += num_bytes / 64.0 * self._write_nj_per_64b
            self.bytes_written += num_bytes
        else:
            self.energy.read_nj += num_bytes / 64.0 * self._read_nj_per_64b
            self.bytes_read += num_bytes

        self.access_count += 1
        if outcome_code == 0:
            self.row_hit_count += 1
        self.busy_cpu_cycles += device_cycles
        return finish - now

    @property
    def channels(self) -> int:
        """Number of channels behind this controller."""
        return self.mapping.channels

    @property
    def row_hit_ratio(self) -> float:
        """Fraction of accesses that hit an open row."""
        if self.access_count == 0:
            return 0.0
        return self.row_hit_count / self.access_count

    @property
    def total_bytes(self) -> int:
        """Total data moved through this DRAM instance."""
        return self.bytes_read + self.bytes_written

    def utilization(self, elapsed_cycles: int) -> float:
        """Aggregate bank-time utilisation over ``elapsed_cycles``.

        Used by the performance model to derive queueing delay: a channel
        near saturation exposes rapidly growing wait times, which is what
        sinks the page-based design at small capacities (Fig. 6).
        """
        if elapsed_cycles <= 0:
            raise ValueError("elapsed_cycles must be positive")
        capacity = elapsed_cycles * self.mapping.channels * self.mapping.banks_per_channel
        return min(1.0, self.busy_cpu_cycles / capacity)

    def peak_bandwidth_bytes_per_cycle(self) -> float:
        """Peak data bandwidth of all channels, in bytes per CPU cycle."""
        bytes_per_bus_cycle = self.timing.bus_width_bits / 8 * 2  # DDR: 2 beats
        return bytes_per_bus_cycle * self.channels * self.timing.bus_mhz / self.cpu_mhz

    def reset_stats(self) -> None:
        """Zero statistics and energy (keeps row-buffer/busy state)."""
        self.access_count = 0
        self.row_hit_count = 0
        self.busy_cpu_cycles = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.energy.reset()
        for bank in self.banks:
            bank.reset_stats()
