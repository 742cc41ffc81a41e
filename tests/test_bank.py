"""Unit tests for the DRAM bank state machine."""

import pytest
from hypothesis import given, strategies as st

from repro.dram.bank import Bank, BankAccess, RowBufferPolicy, RowOutcome


class TestOpenPage:
    def test_first_access_is_closed(self):
        bank = Bank(RowBufferPolicy.OPEN_PAGE)
        access = bank.access(5)
        assert access.outcome is RowOutcome.CLOSED
        assert access.activates == 1
        assert access.precharges == 0

    def test_second_access_same_row_hits(self):
        bank = Bank(RowBufferPolicy.OPEN_PAGE)
        bank.access(5)
        access = bank.access(5)
        assert access.outcome is RowOutcome.HIT
        assert access.activates == 0

    def test_different_row_conflicts(self):
        bank = Bank(RowBufferPolicy.OPEN_PAGE)
        bank.access(5)
        access = bank.access(6)
        assert access.outcome is RowOutcome.CONFLICT
        assert access.activates == 1
        assert access.precharges == 1

    def test_row_stays_open(self):
        bank = Bank(RowBufferPolicy.OPEN_PAGE)
        bank.access(5)
        assert bank.open_row == 5

    def test_negative_row_rejected(self):
        with pytest.raises(ValueError):
            Bank().access(-1)


class TestClosePage:
    def test_row_closed_after_access(self):
        bank = Bank(RowBufferPolicy.CLOSE_PAGE)
        bank.access(5)
        assert bank.open_row is None

    def test_every_access_activates(self):
        bank = Bank(RowBufferPolicy.CLOSE_PAGE)
        for _ in range(4):
            access = bank.access(5)
            assert access.outcome is RowOutcome.CLOSED
            assert access.activates == 1

    def test_activate_precharge_balance(self):
        bank = Bank(RowBufferPolicy.CLOSE_PAGE)
        for row in (1, 2, 3, 1):
            bank.access(row)
        assert bank.activate_count == bank.precharge_count == 4


class TestReserve:
    def test_idle_bank_starts_immediately(self):
        bank = Bank()
        assert bank.reserve(100, 10) == 100
        assert bank.busy_until == 110

    def test_busy_bank_queues(self):
        bank = Bank()
        bank.reserve(100, 50)
        assert bank.reserve(120, 10) == 150

    def test_late_arrival_after_idle(self):
        bank = Bank()
        bank.reserve(0, 10)
        assert bank.reserve(1000, 10) == 1000

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Bank().reserve(0, -1)

    @given(st.lists(st.tuples(st.integers(0, 10_000), st.integers(0, 100)), max_size=50))
    def test_busy_until_monotonic(self, operations):
        bank = Bank()
        previous = 0
        for start, duration in operations:
            begin = bank.reserve(start, duration)
            assert begin >= start
            assert bank.busy_until >= previous
            previous = bank.busy_until


class TestStats:
    def test_reset_stats_preserves_row_state(self):
        bank = Bank(RowBufferPolicy.OPEN_PAGE)
        bank.access(7)
        bank.reset_stats()
        assert bank.activate_count == 0
        assert bank.open_row == 7
        assert bank.access(7).outcome is RowOutcome.HIT

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=100))
    def test_open_page_activate_counts_match_non_hits(self, rows):
        bank = Bank(RowBufferPolicy.OPEN_PAGE)
        non_hits = 0
        current = None
        for row in rows:
            if row != current:
                non_hits += 1
            bank.access(row)
            current = row
        assert bank.activate_count == non_hits
