"""The log-decrement damping estimate from a free response, which the
acceptance scoreboard uses to check the imposed platform damping in the
time domain.  It runs on the package's integration recurrence with
P = exp(A dt) and zero forcing."""

import math
from dataclasses import dataclass

import numpy as np

from fowtctl.sim import _expm, _recur


@dataclass(frozen=True)
class FreeDecayResult:
    zeta: float
    nu: float
    overdamped: bool = False
    n_peaks: int = 0
    decay_rate: float = math.nan  # exponential-fit fallback, 1/s


def free_decay(a: np.ndarray, x0, dt: float, t_end: float) -> FreeDecayResult:
    """Log-decrement damping estimate from the platform-pitch channel of
    a free response.

    Uses successive positive phi peaks (parabolic refinement); with
    fewer than 3 peaks the motion is flagged overdamped and an
    exponential fit of |phi| is reported instead.
    """
    n = int(round(t_end / dt)) + 1
    states, _ = _recur(_expm(np.asarray(a) * dt), np.zeros((n - 1, 4)),
                       np.asarray(x0, dtype=float))
    phi = states[:, 2]
    t = dt * np.arange(len(phi))

    mid = phi[1:-1]
    k = 1 + np.flatnonzero((mid > 0.0) & (mid >= phi[:-2]) & (mid > phi[2:]))
    # parabolic vertex through the three samples; a flat top keeps the sample
    lo, hi = phi[k - 1], phi[k + 1]
    denom = lo - 2.0 * phi[k] + hi
    flat = denom == 0.0
    delta = np.where(flat, 0.0, 0.5 * (lo - hi) / np.where(flat, 1.0, denom))
    peaks_t = t[k] + delta * dt
    peaks_v = phi[k] - 0.25 * (lo - hi) * delta

    if len(peaks_t) < 3:
        mask = np.abs(phi) > 1e-300
        rate = math.nan
        if mask.sum() > 2:
            slope = np.polyfit(t[mask], np.log(np.abs(phi[mask])), 1)[0]
            rate = -slope
        return FreeDecayResult(zeta=math.nan, nu=math.nan, overdamped=True,
                               n_peaks=len(peaks_t), decay_rate=rate)

    decs = np.log(peaks_v[:-1] / peaks_v[1:])
    delta = float(np.mean(decs))
    zeta = delta / math.sqrt(4.0 * math.pi ** 2 + delta ** 2)
    nu_d = 2.0 * math.pi / float(np.mean(np.diff(peaks_t)))
    nu = nu_d / math.sqrt(1.0 - zeta ** 2)
    return FreeDecayResult(zeta=zeta, nu=nu, n_peaks=len(peaks_t))
