"""Sample bookkeeping: latency samples, tail percentiles, failures by class."""

from __future__ import annotations

import math
import resource
import time
from collections import Counter, defaultdict
from typing import Callable, Optional, TypeVar

# A percentile is only reported when at least this many samples lie beyond
# it, so one stray sample cannot set a tail figure on its own.
MIN_BEYOND = 10

T = TypeVar("T")


def percentile(samples: list[float], q: float) -> Optional[float]:
    """Nearest-rank ``q``-th percentile, or None with too few samples beyond."""
    n = len(samples)
    rank = math.ceil(q / 100 * n)
    if n == 0 or n - rank < MIN_BEYOND:
        return None
    return sorted(samples)[max(rank, 1) - 1]


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB (Linux KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class OpLog:
    """Attempted and failed operations plus latency samples, for one thread.

    Every operation the benchmark issues goes through :meth:`run` or
    :meth:`check`. An exception is a failed operation counted by its class;
    a correctness check that does not hold is a failed operation of class
    ``check``. Nothing is retried.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: Counter[str] = Counter()
        self.first_error: dict[str, str] = {}
        self.samples: dict[str, list[float]] = defaultdict(list)

    def run(self, kind: str, fn: Callable[[], T],
            check: Optional[Callable[[T], bool]] = None) -> Optional[T]:
        """Time one operation; returns its result, or None when it raised.

        ``check``, run outside the timed interval, says whether the result
        is correct; when it is not, the operation counts as failed.
        """
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # every failure is data: count it by class
            self._fail(type(exc).__name__, str(exc))
            return None
        self.samples[kind].append((time.perf_counter() - start) * 1000)
        if check is not None and not check(result):
            self._fail("check", f"{kind} result is not correct")
        return result

    def check(self, ok: bool) -> None:
        """Count a standalone correctness check as one operation."""
        self.attempted += 1
        if not ok:
            self._fail("check", "standalone check failed")

    def _fail(self, cls: str, message: str) -> None:
        self.failed[cls] += 1
        self.first_error.setdefault(cls, message)

    def merge(self, other: "OpLog") -> None:
        self.attempted += other.attempted
        self.failed.update(other.failed)
        for cls, message in other.first_error.items():
            self.first_error.setdefault(cls, message)
        for kind, values in other.samples.items():
            self.samples[kind].extend(values)

    @property
    def failed_total(self) -> int:
        return sum(self.failed.values())
