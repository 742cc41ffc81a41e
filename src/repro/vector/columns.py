"""Trace segments: NumPy slices of a trace's columns.

A :class:`repro.workloads.trace.Trace` stores the five request fields as
parallel NumPy columns; a segment's column is a slice (a view, no copy)
of the trace's column.
"""

from __future__ import annotations


class TraceColumns:
    """Segment ``[start, stop)`` of ``trace``.

    Each column attribute is a view of the trace's column;
    :meth:`requests` gives the trace's memoised request objects for the
    same range.
    """

    __slots__ = ("trace", "start", "stop")

    def __init__(self, trace, start: int, stop: int) -> None:
        self.trace = trace
        self.start = start
        self.stop = stop

    def __len__(self) -> int:
        return self.stop - self.start

    @property
    def addresses(self):
        return self.trace.addresses[self.start:self.stop]

    @property
    def pcs(self):
        return self.trace.pcs[self.start:self.stop]

    @property
    def writes(self):
        return self.trace.writes[self.start:self.stop]

    @property
    def core_ids(self):
        return self.trace.core_ids[self.start:self.stop]

    @property
    def instruction_counts(self):
        return self.trace.instruction_counts[self.start:self.stop]

    def requests(self):
        """The segment's request objects, memoised by its trace."""
        return self.trace.requests(self.start, self.stop)


def trace_segment(trace, start: int, stop: int) -> TraceColumns:
    """``trace[start:stop)``, clipped to the trace's length."""
    return TraceColumns(trace, start, max(start, min(stop, len(trace))))
