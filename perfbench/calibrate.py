"""A fixed reference workload that gauges how fast the host runs now.

On a shared host the same code runs up to a third slower for seconds
to minutes at a time, whenever a neighbour loads the physical core this
process runs on.  Wall times of passes minutes apart then differ more
than any useful bound.  So while a pass runs, :class:`Sampler` times a
unit of reference work every :data:`INTERVAL_S` seconds, and the
benchmark scales the pass's time by ``REFERENCE_NOMINAL_S / mean
reference``: the time the pass would have taken on a host where the
reference takes :data:`REFERENCE_NOMINAL_S`.  The time the sampler
itself spends is taken out of the pass's time.

The reference is code of the benchmark's own, so no change to the
package under test moves it.  It runs a little of much of the
interpreter (json, re, sorting, heaps, string formatting, attribute
access, an exception), because code this broad slows down under a
loaded sibling core about as much as the workloads do: over 2-s slices
of fig04's trace analysis and of a block-design simulation, the log of
the slice's time against the log of the mean sample has a slope of 1.13
and 0.88.  A tight dict-and-numpy loop in its place slowed down less
than the workloads (slopes 1.4 and 1.27).  Samples are thread CPU
time: the process is pinned to one CPU, so that is the time the sample
took from the pass even when another thread takes the GIL mid-sample.
"""

from __future__ import annotations

import bisect
import collections
import gc
import heapq
import json
import re
import signal
import statistics
import time
from typing import List, Optional

#: Reference time the gated times are scaled to: about the mean sample
#: during a pass on a 2-vCPU Xeon @ 2.1 GHz.  A constant: changing it
#: rescales every gated time, so it never changes between runs that are
#: compared.
REFERENCE_NOMINAL_S = 0.006
#: Seconds between two samples during a pass: about 6% of the pass.
INTERVAL_S = 0.1
#: Samples taken right after set-up, which the set-up time is scaled by.
SETUP_SAMPLES = 20
#: Rounds of :func:`_mix` in one unit of reference work.
_MIXES = 3


class _Node:
    __slots__ = ("key", "left", "right")

    def __init__(self, key: int) -> None:
        self.key = key
        self.left: Optional["_Node"] = None
        self.right: Optional["_Node"] = None

    def insert(self, key: int) -> None:
        node = self
        while True:
            side = "left" if key < node.key else "right"
            child = getattr(node, side)
            if child is None:
                setattr(node, side, _Node(key))
                return
            node = child


def _mix() -> int:
    """A little of much of the interpreter, and a checksum of it."""
    data = {"k%d" % i: [i, i * 0.5, str(i)] for i in range(200)}
    back = json.loads(json.dumps(data))
    words = re.findall(r"k\d+", " ".join(back))
    words.sort(key=lambda word: (len(word), word[::-1]))
    counts = collections.Counter(word[-1] for word in words)
    heap = [(value[1], key) for key, value in back.items()]
    heapq.heapify(heap)
    top = [heapq.heappop(heap) for _ in range(50)]
    line = "".join(f"{i:>5}|{i / 7:.3f};" for i in range(200))
    root, state = _Node(500), 1
    for _ in range(600):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        root.insert(state % 1000)
    positions = [bisect.bisect(words, word) for word in words[::7]]
    try:
        int(line[:3])
    except ValueError:
        pass
    return len(counts) + len(top) + len(line) + sum(positions)


def _reference() -> int:
    """One unit of reference work; returns a checksum so none is skipped."""
    return sum(_mix() for _ in range(_MIXES))


def sample() -> float:
    """Thread CPU seconds one unit of reference work takes.

    The collector stays off, so a sample never pays for a collection of
    the workload's heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        _reference()
        return time.thread_time() - start
    finally:
        if enabled:
            gc.enable()


def reference_s() -> List[float]:
    """:data:`SETUP_SAMPLES` reference timings, after one untimed warm-up."""
    sample()
    return [sample() for _ in range(SETUP_SAMPLES)]


def scale(seconds: float, references: List[float]) -> float:
    """``seconds`` at the nominal host speed, given the host's references.

    The mean, not the median: a pass's time is the sum of its fast and
    slow stretches, and the mean reference weighs them the same way.
    """
    return seconds * REFERENCE_NOMINAL_S / statistics.fmean(references)


class Sampler:
    """Samples the reference every :data:`INTERVAL_S` s inside a ``with``.

    A ``SIGALRM`` handler takes the samples, so they land in the main
    thread between the pass's bytecodes, spread evenly over its wall
    time.  ``spent`` is the thread CPU time they took.
    """

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        self.samples: List[float] = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        seconds = sample()
        self.samples.append(seconds)
        self.spent += seconds

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
