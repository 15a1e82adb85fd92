"""Machine-speed calibration for the end-to-end times.

On a shared host the speed of one core drifts by tens of percent within
seconds to minutes, which swamps the differences a benchmark must resolve.
A fixed pure-Python kernel (dict and tuple building, sorting, bytes joins,
bigint arithmetic: the same kinds of work treesym does) is timed between
rounds of ops. Each op time is then rescaled by REFERENCE_S over the mean
kernel time just before and just after its round, which reads as the op's
time on a machine where the kernel takes REFERENCE_S. The kernel does not
touch treesym, so a change to treesym moves the rescaled times as much as
the raw ones.

On a shared 2-core x86-64 virtual machine, five large_single runs of 25 s
spread by 19-23% (quartile distance over median) raw and by 3-5% rescaled.
"""

from __future__ import annotations

import time

# About the kernel time on the machine the benchmark was defined on
# (Python 3.11, shared 2-core x86-64 VM); it only fixes the scale of the
# reported times.
REFERENCE_S = 0.0015


def kernel() -> int:
    table: dict[tuple[int, int], bytes] = {}
    for i in range(3000):
        table[(i * 7) % 1013, i & 7] = b"(" + str(i).encode() + b")"
    joined = b"".join(sorted(table.values()))
    x = 1
    for i in range(200):
        x = x * 3 + i
    return len(joined) + x % 7


def kernel_seconds(repeats: int = 3) -> float:
    """Fastest of a few back-to-back kernel runs: the machine's current speed."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class Speed:
    """Tracks the kernel time between rounds; ``factor`` rescales the last interval."""

    def __init__(self):
        self.last = kernel_seconds()
        self.at = time.perf_counter()

    def factor(self) -> float:
        """Scale for times measured since the previous call (or since creation)."""
        now = kernel_seconds()
        f = REFERENCE_S / ((self.last + now) / 2)
        self.last = now
        self.at = time.perf_counter()
        return f
