"""Time-domain integration of the closed loop and disturbance synthesis.

Disturbances (blade-pitch steps, wind steps, monochromatic and JONSWAP
waves, wind files) are turned into continuous input signals; the linear
closed loop is integrated with classical RK4 or with the exact
zero-order-hold discretization, both run as one affine recurrence
x[k+1] = P x[k] + f[k] on inputs sampled once per stage time.  Blade-pitch
saturation and rate limits can be applied at the actuator boundary, which
makes the loop mildly nonlinear and disables the exact method: the clamped
pitch is held over each RK4 step, so that step is the same recurrence with
one more input term.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .errors import ParameterError
from .model import AeroSensitivities, ControlGains, StateSpace, StructuralParams

DISTURBANCE_KINDS = ("step-beta", "step-wind", "mono-wave", "jonswap-wave", "wind-file")


@dataclass
class TimeSeries:
    """Uniformly sampled multi-channel signal."""

    dt: float
    channels: dict[str, np.ndarray]
    units: dict[str, str] = field(default_factory=dict)
    t0: float = 0.0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ParameterError(f"dt must be > 0 (got {self.dt})")
        lengths = {len(v) for v in self.channels.values()}
        if len(lengths) > 1:
            raise ParameterError(f"channel lengths differ: {lengths}")

    def __len__(self) -> int:
        return len(next(iter(self.channels.values()))) if self.channels else 0

    @property
    def time(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(len(self))

    def window(self, t_start: float, t_end: float | None = None) -> "TimeSeries":
        """Sub-series restricted to [t_start, t_end]."""
        t = self.time
        mask = t >= t_start
        if t_end is not None:
            mask &= t <= t_end
        idx = np.flatnonzero(mask)
        return TimeSeries(
            dt=self.dt,
            channels={k: v[idx] for k, v in self.channels.items()},
            units=dict(self.units),
            t0=float(t[idx[0]]) if idx.size else self.t0,
            meta=dict(self.meta),
        )

    def to_csv(self, path, header_lines: list[str] | None = None):
        names = list(self.channels)
        t = self.time
        cols = [self.channels[n] for n in names]
        write_csv(path, header_lines or [],
                  ["t [s]"] + [f"{n} [{self.units.get(n, '-')}]" for n in names],
                  ([f"{t[i]:.6f}"] + [f"{c[i]:.12g}" for c in cols]
                   for i in range(len(self))))

    @classmethod
    def from_csv(cls, path) -> "TimeSeries":
        with open(path) as fh:
            rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
        header, data = rows[0], rows[1:]
        names, units = [], {}
        for col in header[1:]:
            name, _, unit = col.partition(" [")
            names.append(name)
            units[name] = unit.rstrip("]")
        arr = np.array(data, dtype=float)
        t = arr[:, 0]
        dt = float(t[1] - t[0]) if len(t) > 1 else 1.0
        channels = {n: arr[:, i + 1] for i, n in enumerate(names)}
        return cls(dt=dt, channels=channels, units=units, t0=float(t[0]))


def write_csv(path, header_lines, columns, rows):
    """CSV file: one `# ` comment line per provenance line, then the
    column names, then the rows (already formatted as strings)."""
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


@dataclass(frozen=True)
class DisturbanceSpec:
    """One external input contribution.

    kind selects the target channel: step-beta feeds the open-loop blade
    pitch, step-wind and wind-file feed the wind speed, the wave kinds
    feed the wave forcing signal.
    """

    kind: str
    amplitude: float = 0.0  # step height or wave height, channel units
    period: float = 0.0     # wave period Tp, s
    onset: float = 0.0      # step onset time, s
    hs: float = 0.0         # significant wave height, m (jonswap)
    gamma: float = 1.0      # peak-enhancement factor (jonswap)
    seed: int | None = None
    path: str | None = None  # two-column CSV (t, v) for wind-file

    def __post_init__(self):
        if self.kind not in DISTURBANCE_KINDS:
            raise ParameterError(f"unknown disturbance kind {self.kind!r}")
        if self.kind in ("mono-wave", "jonswap-wave") and self.period <= 0.0:
            raise ParameterError(f"{self.kind} requires period > 0")
        if self.hs < 0.0:
            raise ParameterError(f"hs must be >= 0 (got {self.hs})")
        if self.onset < 0.0:
            raise ParameterError(f"onset must be >= 0 (got {self.onset})")
        if self.kind == "jonswap-wave" and self.seed is None:
            raise ParameterError("jonswap-wave requires a seed")
        if self.kind == "wind-file" and self.path is None:
            raise ParameterError("wind-file requires a path")


def mono_wave(tp: float, hw: float, dt: float, t_end: float, t0: float = 0.0) -> TimeSeries:
    """Monochromatic wave signal: sinusoid of period tp, peak-to-trough
    height hw (amplitude hw/2)."""
    if tp <= 0.0:
        raise ParameterError(f"tp must be > 0 (got {tp})")
    t = t0 + dt * np.arange(int(round(t_end / dt)) + 1)
    w = 0.5 * hw * np.sin(2.0 * math.pi * t / tp)
    return TimeSeries(dt=dt, channels={"w": w}, units={"w": "m"}, t0=t0)


def jonswap_spectrum(f: np.ndarray, hs: float, tp: float, gamma: float) -> np.ndarray:
    """JONSWAP spectral density on frequency grid f (Hz), normalized so
    the zeroth moment equals (hs/4)^2."""
    f = np.asarray(f, dtype=float)
    fp = 1.0 / tp
    s = np.zeros_like(f)
    pos = f > 0.0
    fpos = f[pos]
    sigma = np.where(fpos <= fp, 0.07, 0.09)
    peak = np.exp(-((fpos - fp) ** 2) / (2.0 * sigma ** 2 * fp ** 2))
    shape = fpos ** -5 * np.exp(-1.25 * (fp / fpos) ** 4) * gamma ** peak
    m0 = np.trapezoid(shape, fpos)
    if m0 > 0.0:
        s[pos] = shape * (hs / 4.0) ** 2 / m0
    return s


def jonswap_wave(hs: float, tp: float, gamma: float, seed: int,
                 dt: float, t_end: float) -> TimeSeries:
    """Irregular wave synthesis: inverse-FFT of the JONSWAP spectrum with
    seeded random phases.  Deterministic for a given seed."""
    if tp <= 0.0:
        raise ParameterError(f"tp must be > 0 (got {tp})")
    if t_end < 10.0 * tp:
        warnings.warn(f"duration {t_end} s short for spectral resolution "
                      f"(< 10*Tp = {10 * tp} s)", UserWarning, stacklevel=2)
    n = int(round(t_end / dt)) + 1
    f = np.fft.rfftfreq(n, dt)
    df = f[1] if len(f) > 1 else 1.0
    s = jonswap_spectrum(f, hs, tp, gamma)
    amp = np.sqrt(2.0 * s * df)
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=len(f))
    spec = 0.5 * n * amp * np.exp(1j * phases)
    spec[0] = 0.0
    if n % 2 == 0:
        spec[-1] = 0.0
    w = np.fft.irfft(spec, n=n)
    return TimeSeries(dt=dt, channels={"w": w}, units={"w": "m"})


def load_wind_file(path):
    """Two-column CSV (t, v); returns a callable with linear interpolation."""
    try:
        data = np.loadtxt(path, delimiter=",", comments="#")
    except (OSError, ValueError) as exc:
        raise ParameterError(f"cannot read wind file {path}: {exc}") from exc
    if data.ndim != 2 or data.shape[1] < 2:
        raise ParameterError(f"wind file {path} must have two columns (t, v)")
    t, v = data[:, 0], data[:, 1]
    return lambda tt: np.interp(tt, t, v)


def build_inputs(disturbances, dt: float, t_end: float):
    """Combine disturbance specs into callables (beta_ol, v, w) of time.

    Accepts scalars or arrays; contributions to the same channel add."""
    steps_beta, steps_wind, funcs_wind, monos = [], [], [], []
    irregular = None
    for spec in disturbances:
        if spec.kind == "step-beta":
            steps_beta.append((spec.onset, spec.amplitude))
        elif spec.kind == "step-wind":
            steps_wind.append((spec.onset, spec.amplitude))
        elif spec.kind == "wind-file":
            funcs_wind.append(load_wind_file(spec.path))
        elif spec.kind == "mono-wave":
            monos.append((spec.period, spec.amplitude))
        elif spec.kind == "jonswap-wave":
            ts = jonswap_wave(spec.hs, spec.period, spec.gamma, spec.seed, dt, t_end)
            series = ts.channels["w"]
            tgrid = ts.time
            prev = irregular
            if prev is None:
                irregular = lambda t, s=series, g=tgrid: np.interp(t, g, s)
            else:
                irregular = lambda t, p=prev, s=series, g=tgrid: p(t) + np.interp(t, g, s)

    def beta_ol(t):
        return sum((amp * (t >= onset) for onset, amp in steps_beta), np.zeros_like(t, dtype=float) if np.ndim(t) else 0.0)

    def v(t):
        out = sum((amp * (t >= onset) for onset, amp in steps_wind), np.zeros_like(t, dtype=float) if np.ndim(t) else 0.0)
        for fn in funcs_wind:
            out = out + fn(t)
        return out

    def w(t):
        out = np.zeros_like(t, dtype=float) if np.ndim(t) else 0.0
        for tp, hw in monos:
            out = out + 0.5 * hw * np.sin(2.0 * math.pi * np.asarray(t) / tp)
        if irregular is not None:
            out = out + irregular(t)
        return out

    return beta_ol, v, w


@dataclass(frozen=True)
class PitchLimits:
    """Actuator limits on the total blade pitch command.

    beta_op is the fine (operating-point) pitch the perturbation rides
    on; lo/hi clamp the total pitch; rate limits its slew per second."""

    beta_op: float = 0.0
    lo: float = 0.0
    hi: float = math.pi / 2.0
    rate: float = math.radians(2.0)


def _derived_channels(params: StructuralParams, sens: AeroSensitivities,
                      x: np.ndarray, beta: np.ndarray,
                      v: np.ndarray, w: np.ndarray) -> dict[str, np.ndarray]:
    theta, omega, phi, phidot = x.T
    v_rel = v - params.ht * phidot
    tower = params.ht * (sens.dfa_dv * v_rel + sens.dfa_domega * omega
                         + sens.dfa_dbeta * beta) + params.kt * phi
    return {
        "theta": theta, "omega": omega, "phi": phi, "phidot": phidot,
        "beta": beta, "v": v, "w": w, "v_rel": v_rel, "tower_moment": tower,
    }

_UNITS = {
    "theta": "rad", "omega": "rad/s", "phi": "rad", "phidot": "rad/s",
    "beta": "rad", "v": "m/s", "w": "m", "v_rel": "m/s", "tower_moment": "N*m",
}

_DIVERGENCE_NORM = 1e12


def _one_step_map(a: np.ndarray, b: np.ndarray, dt: float, method: str):
    """One step of the linear loop as x[k+1] = P x[k] + sum_j G_j u(t_k + c_j dt).

    Returns (P, [(c_j, G_j), ...]).  For rk4 this is classical RK4's
    exact one-step map on x' = A x + B u, with u sampled at the step
    start, midpoint and end; for exact it is the zero-order-hold pair.
    """
    if method == "exact":
        # augmented exponential handles singular A exactly
        aug = np.zeros((8, 8))
        aug[:4, :4] = a
        aug[:4, 4:] = b
        phi_mat = expm(aug * dt)
        return phi_mat[:4, :4], [(0.0, phi_mat[:4, 4:])]
    eye = np.eye(4)
    ha = dt * a
    ha2 = ha @ ha
    ha3 = ha2 @ ha
    p = eye + ha + ha2 / 2.0 + ha3 / 6.0 + ha3 @ ha / 24.0
    g0 = dt / 6.0 * (eye + ha + ha2 / 2.0 + ha3 / 4.0) @ b
    g_half = dt / 6.0 * (4.0 * eye + 2.0 * ha + ha2 / 2.0) @ b
    g1 = dt / 6.0 * b
    return p, [(0.0, g0), (0.5, g_half), (1.0, g1)]


def _input_rows(inputs, tt: np.ndarray) -> np.ndarray:
    """Input vectors u = (beta_ol, tau_g_ol, v, w), one row per time in tt."""
    beta_ol_f, v_f, w_f = inputs
    u = np.zeros((len(tt), 4))
    u[:, 0] = beta_ol_f(tt)
    u[:, 2] = v_f(tt)
    u[:, 3] = w_f(tt)
    return u


def simulate(ss: StateSpace, gains: ControlGains, params: StructuralParams,
             sens: AeroSensitivities, disturbances, dt: float, t_end: float,
             method: str = "rk4", x0=None,
             limits: PitchLimits | None = None) -> TimeSeries:
    """Integrate the closed loop under the given disturbances.

    Returns state channels plus the total blade pitch command, relative
    wind and a tower-base-moment proxy.  A run whose state overflows is
    truncated and flagged in meta["diverged_at"]; divergence is a valid
    result for unstable parameter sets.
    """
    if dt <= 0.0 or t_end < dt:
        raise ParameterError("need dt > 0 and t_end >= dt")
    if method not in ("rk4", "exact"):
        raise ParameterError(f"unknown method {method!r}")
    if limits is not None and method == "exact":
        raise ParameterError("exact discretization is linear only; "
                             "saturation requires rk4")

    n = int(round(t_end / dt)) + 1
    t = dt * np.arange(n)
    inputs = build_inputs(disturbances, dt, t_end)
    beta_ol_f, v_f, w_f = inputs
    x = np.zeros(4) if x0 is None else np.asarray(x0, dtype=float).copy()

    states = np.empty((n, 4))
    states[0] = x
    diverged_at = None

    if limits is None:
        p, stages = _one_step_map(ss.closed, ss.b_full(), dt, method)
        # stage times as t[k] + c*dt, not t[k+1]: the two differ by an ulp
        # on some grid points, which would move a step onset by one stage
        f = sum(_input_rows(inputs, t[:-1] + c * dt) @ g.T for c, g in stages)
        # the recurrence is causal, so running on past a blow-up (under
        # errstate) and truncating afterwards keeps every earlier sample
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(n - 1):
                x = p @ x + f[k]
                states[k + 1] = x
            bad = ~np.isfinite(states[1:]).all(axis=1)
            bad |= np.linalg.norm(states[1:], axis=1) > _DIVERGENCE_NORM
        if bad.any():
            n = int(np.argmax(bad)) + 2
            diverged_at = t[n - 1]
        states = states[:n]
        beta_ol = np.asarray(beta_ol_f(t[:n]), dtype=float) * np.ones(n)
        beta = (gains.kp * states[:, 1] + gains.ki * states[:, 0]
                + gains.kbeta * states[:, 3] + beta_ol)
    else:
        # saturated actuator: the beta command is computed at each step
        # start, clamped and rate-limited, then held over the step, so the
        # step is RK4 on x' = A_s x + b_beta beta + B_d u_d(t) with the
        # generator-torque feedback folded into A_s
        fb_beta, fb_taug = gains.k0()
        a_s = ss.a0 + np.outer(ss.bc[:, 1], fb_taug)
        p, stages = _one_step_map(a_s, ss.b_full(), dt, "rk4")
        rows = [_input_rows(inputs, t[:-1] + c * dt) for c, _ in stages]
        beta_ol = rows[0][:, 0]
        g_beta = sum(g[:, 0] for _, g in stages)
        f = sum(u[:, 1:] @ g[:, 1:].T for u, (_, g) in zip(rows, stages))
        beta_applied = np.empty(n)
        total = _clamp_pitch(limits, limits.beta_op,
                             limits.beta_op + fb_beta @ x + beta_ol[0], dt)
        beta_applied[0] = total - limits.beta_op
        for k in range(1, n):
            total = _clamp_pitch(limits, total,
                                 limits.beta_op + fb_beta @ x + beta_ol[k - 1], dt)
            beta_pert = total - limits.beta_op
            x = p @ x + g_beta * beta_pert + f[k - 1]
            states[k] = x
            beta_applied[k] = beta_pert
            if not np.all(np.isfinite(x)) or np.linalg.norm(x) > _DIVERGENCE_NORM:
                diverged_at = t[k]
                n = k + 1
                break
        states = states[:n]
        beta = beta_applied[:n]

    tt = t[:n]
    v_arr = np.asarray(v_f(tt), dtype=float) * np.ones(n)
    w_arr = np.asarray(w_f(tt), dtype=float) * np.ones(n)
    channels = _derived_channels(params, sens, states, beta, v_arr, w_arr)
    meta = {"method": method}
    if diverged_at is not None:
        meta["diverged_at"] = float(diverged_at)
    return TimeSeries(dt=dt, channels=channels, units=dict(_UNITS), meta=meta)


def _clamp_pitch(limits: PitchLimits, prev_total: float, cmd_total: float,
                 dt: float) -> float:
    step = limits.rate * dt
    total = min(max(cmd_total, prev_total - step), prev_total + step)
    return min(max(total, limits.lo), limits.hi)


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
    t = dt * np.arange(n)
    aug = expm(np.asarray(a) * dt)
    x = np.asarray(x0, dtype=float).copy()
    phi = np.empty(n)
    phi[0] = x[2]
    for k in range(1, n):
        x = aug @ x
        phi[k] = x[2]

    peaks_t, peaks_v = [], []
    for k in range(1, n - 1):
        if phi[k] > 0.0 and phi[k] >= phi[k - 1] and phi[k] > phi[k + 1]:
            # parabolic vertex through the three samples
            denom = phi[k - 1] - 2.0 * phi[k] + phi[k + 1]
            if denom != 0.0:
                delta = 0.5 * (phi[k - 1] - phi[k + 1]) / denom
                vertex = phi[k] - 0.25 * (phi[k - 1] - phi[k + 1]) * delta
                peaks_t.append(t[k] + delta * dt)
                peaks_v.append(vertex)
            else:
                peaks_t.append(t[k])
                peaks_v.append(phi[k])

    if len(peaks_t) < 3:
        mask = np.abs(phi) > 1e-300
        rate = math.nan
        if mask.sum() > 2:
            slope = np.polyfit(t[mask], np.log(np.abs(phi[mask])), 1)[0]
            rate = -slope
        return FreeDecayResult(zeta=math.nan, nu=math.nan, overdamped=True,
                               n_peaks=len(peaks_t), decay_rate=rate)

    peaks_t = np.array(peaks_t)
    peaks_v = np.array(peaks_v)
    decs = np.log(peaks_v[:-1] / peaks_v[1:])
    delta = float(np.mean(decs))
    zeta = delta / math.sqrt(4.0 * math.pi ** 2 + delta ** 2)
    nu_d = 2.0 * math.pi / float(np.mean(np.diff(peaks_t)))
    nu = nu_d / math.sqrt(1.0 - zeta ** 2)
    return FreeDecayResult(zeta=zeta, nu=nu, n_peaks=len(peaks_t))
