"""Rainflow cycle counting, damage-equivalent load and Miner damage.

Counting follows the classical rainflow rule with the residual counted
as half cycles, reproducing the standard worked-example decomposition.
Damage uses a single-slope or bilinear S-N curve, linear in log-log
space and continuous at the knee.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ParameterError

# no sum of two doubles at most this large in magnitude overflows
_HALF_MAX = sys.float_info.max / 2.0


class Cycle(NamedTuple):
    """One counted cycle; rainflow yields range > 0 and count 0.5 or 1."""

    range: float
    mean: float
    count: float


@dataclass(frozen=True, eq=False)  # == on array fields has no truth value
class Cycles:
    """Counted cycles as three equal-length float columns in counting
    order: range > 0, the mean of the range's endpoints, and count 0.5
    (half cycle) or 1.  Iterating yields one `Cycle` per row."""

    range: np.ndarray
    mean: np.ndarray
    count: np.ndarray

    def __len__(self) -> int:
        return len(self.count)

    def __iter__(self):
        return map(Cycle, self.range.tolist(), self.mean.tolist(),
                   self.count.tolist())


def turning_points(signal, hysteresis: float = 0.0) -> np.ndarray:
    """Local extrema of the signal, endpoints included.

    Repeated samples are dropped first, so a plateau counts once.
    Adjacent extrema closer than `hysteresis` (absolute units) are
    merged to suppress numerical chatter from the integrator.
    """
    x = np.asarray(signal, dtype=float)
    if x.size < 2:
        return x.copy()
    moved = x[1:] != x[:-1]
    if not moved.all():
        x = x[np.concatenate(([True], moved))]
    del moved
    if x.size <= 2:
        return x.copy()
    # slope signs, not slope products: a product of two tiny slopes
    # can underflow to zero and hide an extremum
    rising = x[1:] > x[:-1]
    keep = np.ones(x.size, dtype=bool)
    np.not_equal(rising[:-1], rising[1:], out=keep[1:-1])
    del rising
    x = x[keep]
    if hysteresis <= 0.0 or x.size <= 2:
        return x
    # While the last two kept points are x[i-2] and x[i-1] ("in step"), a
    # move of at least the hysteresis keeps x[i] and the state stays in
    # step.  So the scalar merge runs only from each smaller move until the
    # state is back in step, and collects the indices it drops or merges
    # away.
    step = np.diff(x)
    small = np.flatnonzero(np.abs(step, out=step) < hysteresis) + 1
    del step
    if small.size == 0:
        return x
    pts = memoryview(x)  # one Python float per point the merge reads
    dropped: list[int] = []
    resume = 0  # first index the scalar merge has not yet reached
    for start in small.tolist():
        if start < resume:
            continue
        # the last two kept points' values and the index of the last; prev
        # is nan before the second point, and every comparison with nan is
        # false, so nothing merges into the first point
        prev = pts[start - 2] if start >= 2 else math.nan
        last, at = pts[start - 1], start - 1
        for i in range(start, x.size):
            p = pts[i]
            if abs(p - last) >= hysteresis:
                if at == i - 1:
                    break  # in step again
                prev, last, at = last, p, i
            elif prev < last < p or prev > last > p:
                # keep the more extreme of the merged pair; compared, not
                # multiplied, as above: the product of a move of the
                # hysteresis and a subnormal one can round to zero
                dropped.append(at)
                last, at = p, i
            else:
                dropped.append(i)
        resume = i + 1
    keep = np.ones(x.size, dtype=bool)
    keep[dropped] = False
    return x[keep]


def rainflow(signal, hysteresis_frac: float = 0.0) -> Cycles:
    """Rainflow decomposition of a load history.

    hysteresis_frac discards turning-point moves smaller than that
    fraction of the signal's peak-to-peak before counting (0 disables
    the filter).  Residual stack pairs are counted as half cycles.
    A finite history whose peak-to-peak overflows is refused: its ranges
    would be infinite.
    """
    x = np.asarray(signal, dtype=float)
    if x.size < 2:
        return Cycles(np.zeros(0), np.zeros(0), np.zeros(0))
    # as Python floats, which overflow to inf without a numpy warning
    lowest, highest = float(x.min()), float(x.max())
    span = highest - lowest
    if math.isinf(span) and math.isfinite(lowest) and math.isfinite(highest):
        raise ParameterError(f"load range overflows: the history spans "
                             f"{lowest!r} to {highest!r}")
    hyst = 0.0
    if hysteresis_frac > 0.0:
        hyst = hysteresis_frac * span
    # counted pair i runs from lo[i] to hi[i] in history order; `half`
    # holds the indices of the pairs that contained the starting point
    lo = array("d")
    hi = array("d")
    half: list[int] = []
    stack: list[float] = []
    start = 0  # stack index of the history's current starting point
    points = turning_points(x, hysteresis=hyst)
    for p in memoryview(points):
        stack.append(p)
        n = len(stack) - start
        while n >= 3:
            a, b = stack[-3], stack[-2]
            if abs(p - b) < abs(b - a):
                break
            lo.append(a)
            hi.append(b)
            if n == 3:
                # Y contains the starting point: half cycle, then the
                # start moves one point forward
                half.append(len(lo) - 1)
                start += 1
                break
            del stack[-3:-1]
            n -= 2
    del points
    n_stack = len(lo)
    rest = stack[start:]
    lo.extend(rest[:-1])
    hi.extend(rest[1:])
    lo_a, hi_a = np.frombuffer(lo), np.frombuffer(hi)
    ranges = np.abs(hi_a - lo_a)
    with np.errstate(over="ignore"):
        means = 0.5 * (lo_a + hi_a)
    if not (-lowest <= _HALF_MAX and highest <= _HALF_MAX):
        # where the sum of two finite endpoints overflowed, the sum of
        # their halves is finite; it is used nowhere else, since it
        # rounds differently on subnormals
        over = np.flatnonzero(np.isinf(means))
        means[over] = 0.5 * lo_a[over] + 0.5 * hi_a[over]
    del lo_a, hi_a, lo, hi  # the endpoints are not needed past here
    counts = np.ones(ranges.size)
    counts[half] = 0.5
    counts[n_stack:] = 0.5  # the residual
    # compressed one column at a time, so at most one exists twice
    keep = ranges > 0.0
    ranges = ranges[keep]
    means = means[keep]
    return Cycles(ranges, means, counts[keep])


def _check_overflow(value: float, cycles: Cycles, what: str):
    """Refuse a value that is not finite although every range is."""
    if not math.isfinite(value) and np.isfinite(cycles.range).all():
        raise ParameterError(f"{what} overflows: the largest load range is "
                             f"{float(cycles.range.max())!r}")


def damage_equivalent_load(cycles: Cycles, m: float, n_ref: float) -> float:
    """Constant-amplitude range giving, over n_ref cycles, the same
    m-th-power damage sum as the counted spectrum.  A DEL that overflows
    on finite ranges is refused."""
    if m <= 0.0 or n_ref <= 0.0:
        raise ParameterError("m and n_ref must be > 0")
    with np.errstate(over="ignore"):
        acc = float(np.sum(cycles.count * cycles.range ** m))
    try:
        value = (acc / n_ref) ** (1.0 / m)
    except OverflowError:  # a finite float power past the largest double
        value = math.inf
    _check_overflow(value, cycles, f"the DEL at m={m:g}")
    return value


@dataclass(frozen=True)
class WohlerCurve:
    """S-N curve, log-log linear; bilinear variants change slope from m1
    to m2 at `knee` cycles, anchored by the stress range at the knee."""

    kind: str          # "single" | "bilinear"
    m1: float
    stress_knee: float  # stress range at the knee, Pa
    knee: float = 1e6   # cycles at the slope change
    m2: float | None = None

    def __post_init__(self):
        if self.kind not in ("single", "bilinear"):
            raise ParameterError(f"unknown curve kind {self.kind!r}")
        if self.m1 <= 0.0 or self.knee <= 0.0 or self.stress_knee <= 0.0:
            raise ParameterError("m1, knee and stress_knee must be > 0")
        if self.kind == "bilinear" and (self.m2 is None or self.m2 <= 0.0):
            raise ParameterError("bilinear curve requires m2 > 0")

    def cycles_to_failure(self, stress_range):
        """N(delta_sigma), elementwise over an array of stress ranges;
        infinite at zero stress, continuous at the knee by construction."""
        s = np.asarray(stress_range, dtype=float)
        slope = self.m1
        if self.kind == "bilinear":
            slope = np.where(s >= self.stress_knee, self.m1, self.m2)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            n_fail = self.knee * (self.stress_knee / s) ** slope
        return np.where(s > 0.0, n_fail, math.inf)[()]  # scalar in, scalar out


def miner_damage(cycles: Cycles, curve: WohlerCurve, section_modulus: float,
                 lifetime_scale: float = 1.0) -> float:
    """Linear damage accumulation: lifetime_scale * sum(count / N(range/W)).
    A damage that overflows on finite ranges is refused."""
    if section_modulus <= 0.0:
        raise ParameterError(f"section modulus must be > 0 (got {section_modulus})")
    if lifetime_scale < 0.0:
        raise ParameterError(f"lifetime_scale must be >= 0 (got {lifetime_scale})")
    with np.errstate(over="ignore", divide="ignore"):
        n_fail = curve.cycles_to_failure(cycles.range / section_modulus)
        damage = lifetime_scale * float(np.sum(cycles.count / n_fail))
    _check_overflow(damage, cycles, "the Miner damage")
    return damage
