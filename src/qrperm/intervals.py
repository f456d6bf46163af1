"""Cyclic intervals of Z_n as (start, length) pairs.

An interval is {start, start+1, ..., start+length-1} mod n with
1 <= length <= n; length n is the whole of Z_n.  Intervals are the only
test sets the discrepancy and statistics modules accept, so the
representation lives here once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import QrpermError


@dataclass(frozen=True)
class Interval:
    n: int
    start: int
    length: int

    def __post_init__(self):
        if self.n < 1:
            raise QrpermError("n must be >= 1")
        if not 0 <= self.start < self.n:
            raise QrpermError(f"start {self.start} outside [0, {self.n})")
        if not 1 <= self.length <= self.n:
            raise QrpermError(f"length {self.length} outside [1, {self.n}]")

    def members(self):
        n, s = self.n, self.start
        for i in range(self.length):
            yield (s + i) % n

    def contains(self, x: int) -> bool:
        return (x - self.start) % self.n < self.length

    def indicator(self) -> np.ndarray:
        out = np.zeros(self.n, dtype=np.int64)
        stop = self.start + self.length
        if stop <= self.n:
            out[self.start:stop] = 1
        else:
            out[self.start:] = 1
            out[:stop - self.n] = 1
        return out


def all_intervals(n: int):
    """Every cyclic interval of Z_n, full length included once (start 0)."""
    for length in range(1, n):
        for start in range(n):
            yield Interval(n, start, length)
    yield Interval(n, 0, n)
