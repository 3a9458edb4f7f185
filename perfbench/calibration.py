"""Host-speed calibration: a fixed kernel timed between the timed items.

The reference machine is a 2-core VM on a shared host whose speed drifts: a
fixed pure-Python loop, timed over 30 s windows, varies by a fifth (as the
interquartile range over the median) from one window to the next, a 96x96
complex ``eigh`` by more, and the phases last from seconds to minutes.  A run
of 30 s cannot average that away, so raw wall times of one commit spread
across runs about as far as the 25% by which a change may worsen them.

So the benchmark times a fixed kernel that calls nothing in wcelab after
every query and every set-up, and scales each item's time by the kernel's
reference time over the median of the kernel timings nearest to it.  A
scaled time reads as the time the item would take at the speed at which the
kernel takes its reference time; the constant is only a unit, and the same
on every commit.  A change to wcelab moves the item times and not the
kernel, so a regression shows in full.

The host's slow phases do not slow all code alike, so each workload names
the kernel parts that use the resources its queries spend their time on:
``lapack`` (small complex ``eigh`` calls) for oracle-verify and cli-session,
``lapack256`` (one ``eigh`` at the oracle's order cap) for oracle-verify's
two cap queries, and ``stream`` (a weighted ``bincount`` over 10^6 points,
like the formula layer's passes at n = 10^6) plus ``lapack`` for
formula-large.  README.md gives the runs these choices rest on.
"""
from __future__ import annotations

import statistics
import time

#: median time of each kernel part on the reference machine (2-core Xeon VM,
#: numpy 2.4.6 on scipy-openblas, one BLAS thread, Python 3.11)
REFERENCE_PART_S = {"lapack": 1.6e-3, "lapack256": 23e-3, "stream": 3.2e-3}
#: kernel timings taken on each side of an item; the median of these scales it
HALF_WINDOW = 10
#: untimed kernel calls before the first timed one (first-call costs)
WARM_CALLS = 3


def make_part(name: str):
    """The fixed work of one kernel part, as a function of no arguments."""
    import numpy as np

    rng = np.random.default_rng(0)
    if name == "stream":
        labels, weights = rng.integers(0, 10**4, size=10**6), rng.random(10**6)
        return lambda: np.bincount(labels, weights=weights, minlength=10**4)
    order, repeats = {"lapack": (48, 3), "lapack256": (256, 1)}[name]
    a = rng.standard_normal((order, order)) + 1j * rng.standard_normal((order, order))
    herm = a @ a.conj().T
    return lambda: [np.linalg.eigh(herm) for _ in range(repeats)]


def local_factor(position: int, kernel_times: list[float], reference: float,
                 half: int = HALF_WINDOW) -> float:
    """Scale factor of an item: ``reference`` over the median of the
    ``half`` kernel timings before the item and the ``half`` after it.

    ``position`` is how many kernel timings had been taken when the item
    was timed, so timings ``[:position]`` came before it.
    """
    if not kernel_times:
        raise ValueError("no kernel timings")
    window = kernel_times[max(0, position - half) : position + half]
    if not window:  # only possible for an item after the last timing
        window = kernel_times[-half:]
    return reference / statistics.median(window)


class Timeline:
    """Timed items and kernel timings, in the order they were taken.

    Every part in ``parts`` is timed at each calibration; an item is scaled
    by the sum of the parts it names when it is added.
    """

    def __init__(self, parts: tuple[str, ...], make=make_part, clock=time.perf_counter):
        self.work = {p: make(p) for p in parts}
        self.clock = clock
        self.kernel_times: dict[str, list[float]] = {p: [] for p in parts}
        self.calibrations = 0
        self.raw: list[float] = []
        self.positions: list[int] = []
        self.item_parts: list[tuple[str, ...]] = []

    def warm(self) -> None:
        for _ in range(WARM_CALLS):
            for work in self.work.values():
                work()
        self.calibrate()

    def calibrate(self) -> None:
        for part, work in self.work.items():
            t0 = self.clock()
            work()
            self.kernel_times[part].append(self.clock() - t0)
        self.calibrations += 1

    def add(self, seconds: float, parts: tuple[str, ...]) -> int:
        """Record an item's raw time and the kernel parts that scale it;
        returns its id."""
        self.raw.append(seconds)
        self.positions.append(self.calibrations)
        self.item_parts.append(parts)
        return len(self.raw) - 1

    def series(self, parts: tuple[str, ...]) -> list[float]:
        """Kernel time of ``parts`` at each calibration."""
        return [sum(t) for t in zip(*(self.kernel_times[p] for p in parts))]

    def scaled(self) -> list[float]:
        """Every item's time at the reference kernel speed, by id."""
        series = {parts: self.series(parts) for parts in set(self.item_parts)}
        return [
            t * local_factor(pos, series[parts], sum(REFERENCE_PART_S[p] for p in parts))
            for t, pos, parts in zip(self.raw, self.positions, self.item_parts)
        ]
