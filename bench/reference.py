"""Reference computations the benchmark checks the program's outputs against.

Both are written here, apart from the program, and kept small:

- `rk4_states`: classical RK4 on x' = A x + B u for a closed loop, driven
  by sampled inputs.  RK4 on a linear system is an affine map per step,
  x+ = P x + d_k, so P is formed once and the drive terms d_k for all
  steps at once; only the recurrence itself loops.
- `rainflow_cycles`: turning points, the hysteresis merge and the
  three-point rainflow rule with the residual counted as half cycles,
  returning (range, mean, count) arrays.
"""

from __future__ import annotations

import numpy as np


def rk4_states(a: np.ndarray, b: np.ndarray, dt: float, u: np.ndarray,
               u_mid: np.ndarray) -> np.ndarray:
    """States on the grid from x0 = 0; u holds the inputs at the n grid
    times and u_mid at the n-1 step midpoints, one row per time."""
    h = dt

    def rhs(x, uu):
        return x @ a.T + uu @ b.T

    def step(x, u0, um, u1):
        k1 = rhs(x, u0)
        k2 = rhs(x + 0.5 * h * k1, um)
        k3 = rhs(x + 0.5 * h * k2, um)
        k4 = rhs(x + h * k3, u1)
        return x + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    n, m = u.shape[0], a.shape[0]
    zeros_u = np.zeros((m, u.shape[1]))
    p = step(np.eye(m), zeros_u, zeros_u, zeros_u).T
    drive = step(np.zeros((n - 1, m)), u[:-1], u_mid, u[1:])
    x = np.zeros((n, m))
    for k in range(n - 1):
        x[k + 1] = p @ x[k] + drive[k]
    return x


def turning_points(x: np.ndarray, hysteresis: float) -> np.ndarray:
    """Endpoints plus strict local extrema after dropping repeated samples;
    then moves smaller than `hysteresis` are merged, the more extreme
    point of a merged pair surviving."""
    x = np.asarray(x, dtype=float)
    if x.size < 2:
        return x.copy()
    x = x[np.concatenate(([True], np.diff(x) != 0.0))]
    if x.size > 2:
        d = np.diff(x)
        interior = np.flatnonzero(d[:-1] * d[1:] < 0.0) + 1
        x = np.concatenate((x[:1], x[interior], x[-1:]))
    if hysteresis <= 0.0 or x.size <= 2:
        return x
    kept = [float(x[0])]
    for p in x[1:].tolist():
        if abs(p - kept[-1]) >= hysteresis:
            kept.append(p)
        elif len(kept) > 1 and (kept[-1] - kept[-2]) * (p - kept[-1]) > 0.0:
            kept[-1] = p
    return np.array(kept)


def rainflow_cycles(x, hysteresis_frac: float):
    """(ranges, means, counts) of the rainflow decomposition of x."""
    x = np.asarray(x, dtype=float)
    if x.size < 2:
        empty = np.zeros(0)
        return empty, empty, empty
    hyst = hysteresis_frac * float(np.ptp(x)) if hysteresis_frac > 0.0 else 0.0
    ranges, means, counts = [], [], []
    stack: list[float] = []
    start = 0  # index of the history's current starting point in stack
    for p in turning_points(x, hyst).tolist():
        stack.append(p)
        while len(stack) - start >= 3:
            r_new = abs(stack[-1] - stack[-2])
            r_old = abs(stack[-2] - stack[-3])
            if r_new < r_old:
                break
            ranges.append(r_old)
            means.append(0.5 * (stack[-2] + stack[-3]))
            if len(stack) - start == 3:
                counts.append(0.5)
                start += 1
            else:
                counts.append(1.0)
                del stack[-3:-1]
    rest = stack[start:]
    for lo, hi in zip(rest, rest[1:]):
        ranges.append(abs(hi - lo))
        means.append(0.5 * (lo + hi))
        counts.append(0.5)
    r, mu, c = np.array(ranges), np.array(means), np.array(counts)
    keep = r > 0.0
    return r[keep], mu[keep], c[keep]


def damage_equivalent_load(ranges, counts, m: float, n_ref: float) -> float:
    return float((np.sum(counts * ranges ** m) / n_ref) ** (1.0 / m))


def miner_damage_single(ranges, counts, m: float, stress_knee: float,
                        knee: float, section_modulus: float,
                        lifetime_scale: float) -> float:
    """Miner sum against a single-slope S-N curve N = knee*(s_knee/s)^m."""
    stress = ranges / section_modulus
    pos = stress > 0.0
    n_fail = knee * (stress_knee / stress[pos]) ** m
    return float(lifetime_scale * np.sum(counts[pos] / n_fail))
