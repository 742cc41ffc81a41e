"""Trace segments: zero-copy NumPy views over a trace's columns.

A :class:`repro.workloads.trace.Trace` already stores the five request
fields as parallel ``array`` columns; ``np.frombuffer`` exposes a
segment of each column as a NumPy view without copying.  Views pin the
underlying buffers (an ``array`` cannot grow while exported), so a
segment makes a view only when a column is read, and a consumer's views
die with its locals: nothing pins the trace between segments.
"""

from __future__ import annotations

import numpy as np

# array typecode -> NumPy dtype of the five Trace columns.
_DTYPES = {"q": np.int64, "b": np.int8, "h": np.int16}


class TraceColumns:
    """Segment ``[start, stop)`` of ``trace``.

    Each column attribute is a fresh read-only view; :meth:`requests`
    gives the trace's memoised request objects for the same range.
    """

    __slots__ = ("trace", "start", "stop")

    def __init__(self, trace, start: int, stop: int) -> None:
        self.trace = trace
        self.start = start
        self.stop = stop

    def __len__(self) -> int:
        return self.stop - self.start

    def _view(self, column):
        dtype = _DTYPES[column.typecode]
        count = self.stop - self.start
        if count == 0:
            # No buffer export for empty segments (nothing to pin).
            return np.empty(0, dtype=dtype)
        return np.frombuffer(
            column, dtype=dtype, count=count, offset=self.start * column.itemsize
        )

    @property
    def addresses(self):
        return self._view(self.trace.addresses)

    @property
    def pcs(self):
        return self._view(self.trace.pcs)

    @property
    def writes(self):
        return self._view(self.trace.writes)

    @property
    def core_ids(self):
        return self._view(self.trace.core_ids)

    @property
    def instruction_counts(self):
        return self._view(self.trace.instruction_counts)

    def requests(self):
        """The segment's request objects, memoised by its trace."""
        return self.trace.requests(self.start, self.stop)


def trace_segment(trace, start: int, stop: int) -> TraceColumns:
    """``trace[start:stop)``, clipped to the trace's length."""
    return TraceColumns(trace, start, max(start, min(stop, len(trace.addresses))))
