"""Zero/pole analysis of the closed loop and the reduced forms.

Non-minimum-phase-zero (NMPZ) conditions for the blade-pitch channels,
the numerator polynomials they derive from, the closed loop's pole rows
with per-mode damping, and the reduced rotor (band-pass) and platform
(low-pass) second-order forms: their closed-form (nu, zeta) summaries
and the frequency responses the Bode sweep emits.
"""

from __future__ import annotations

import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .model import AeroSensitivities, ControlGains, StateSpace, StructuralParams

#: relative distance to the strict-inequality boundary below which a
#: warning is emitted (the boundary itself is classified as no-NMPZ)
BOUNDARY_RTOL = 1e-9


class NmpzBoundaryWarning(UserWarning):
    """The operating point sits numerically on an NMPZ boundary."""


def _warn_if_boundary(lhs: float, rhs: float):
    # a side that overflowed to inf tells nothing of the distance
    scale = max(abs(lhs), abs(rhs), 1e-300)
    if scale < math.inf and abs(lhs - rhs) <= BOUNDARY_RTOL * scale:
        warnings.warn("operating point within 1e-9 of the NMPZ boundary",
                      NmpzBoundaryWarning, stacklevel=3)


def nmpz_phi_condition(sens: AeroSensitivities) -> bool:
    """True iff the blade-pitch -> platform-pitch channel carries a
    right-half-plane zero: dta_domega/dta_dbeta < dfa_domega/dfa_dbeta."""
    lhs = sens.dta_domega / sens.dta_dbeta
    rhs = sens.dfa_domega / sens.dfa_dbeta
    _warn_if_boundary(lhs, rhs)
    return lhs < rhs


def nmpz_omega_condition(params: StructuralParams, sens: AeroSensitivities,
                         ktaug: float = 0.0) -> bool:
    """True iff the blade-pitch -> rotor-speed channel carries a
    right-half-plane zero.

    Evaluated from the coefficient signs of the channel numerator (its
    cubic factors as s times a quadratic with positive root product, so
    an RHP root exists iff the quadratic's middle and leading
    coefficients differ in sign).  This is algebraically equivalent to

        ht^2 (dfa_dv - (dta_dv + ktaug*ng/ht) * dfa_dbeta/dta_dbeta) < -dt
    """
    tb, fb = sens.dta_dbeta, sens.dfa_dbeta
    torque = ktaug * params.ng * params.ht * fb
    # c2 < 0 below as its thrust-wind term against the rest: unlike the
    # two sides of the form above, neither vanishes when dt = 0
    _warn_if_boundary(params.ht ** 2 * tb * sens.dfa_dv,
                      params.ht ** 2 * fb * sens.dta_dv + torque - params.dt * tb)
    # the quadratic's middle coefficient scaled by ht (>0), which keeps its
    # sign; the leading one, jt*dta_dbeta, has dta_dbeta's sign and is not
    # formed, since it may underflow to 0
    c2 = (params.dt * tb
          + params.ht ** 2 * (tb * sens.dfa_dv - fb * sens.dta_dv)
          - torque)
    return c2 < 0.0 if tb > 0.0 else c2 > 0.0


def numerator_phi(params: StructuralParams, sens: AeroSensitivities) -> np.ndarray:
    """Coefficients, highest power first, of the numerator of the
    blade-pitch -> platform-pitch transfer entry:
    (jr/ng) dfa_dbeta s^2 + (dta_dbeta dfa_domega - dfa_dbeta dta_domega) s.
    """
    a2 = params.jr / params.ng * sens.dfa_dbeta
    a1 = sens.dta_dbeta * sens.dfa_domega - sens.dfa_dbeta * sens.dta_domega
    return np.array([a2, a1, 0.0])


def numerator_omega(params: StructuralParams, sens: AeroSensitivities,
                    ktaug: float = 0.0) -> np.ndarray:
    """Coefficients, highest power first, of the numerator of the
    blade-pitch -> rotor-speed transfer entry, the cubic
    (jt/ht) dta_dbeta s^3
    + ((dt/ht) dta_dbeta + ht (dta_dbeta dfa_dv - dfa_dbeta dta_dv)
       - ktaug ng dfa_dbeta) s^2
    + (kt/ht) dta_dbeta s.
    """
    tb, fb = sens.dta_dbeta, sens.dfa_dbeta
    a3 = params.jt / params.ht * tb
    a2 = (params.dt / params.ht * tb
          + params.ht * (tb * sens.dfa_dv - fb * sens.dta_dv)
          - ktaug * params.ng * fb)
    a1 = params.kt / params.ht * tb
    return np.array([a3, a2, a1, 0.0])


def modal_report(a: np.ndarray) -> dict:
    """Ordered {row name: value} of the state matrix's poles: each
    eigenvalue `eigenvalue_i`, then the natural frequency `mode_i_nu
    [rad/s]` (|lambda|) and damping ratio `mode_i_zeta [-]`
    (-Re(lambda)/|lambda|) of each real root and each conjugate pair once,
    then `stable`, true iff all real parts are negative."""
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise ParameterError("state matrix is not finite: the parameters "
                             "overflow double precision")
    roots = np.linalg.eigvals(a).astype(complex)
    order = sorted(range(len(roots)), key=lambda i: (abs(roots[i]), roots[i].imag))
    roots = roots[order]
    rows = {f"eigenvalue_{i}": lam for i, lam in enumerate(roots)}
    # eigvals gives exact conjugate pairs, and the sort puts the imag < 0
    # member first: it reports the pair
    modes = [lam for lam in roots if lam.imag <= 1e-12 * max(1.0, abs(lam))]
    for i, lam in enumerate(modes):
        nu = abs(lam)
        rows[f"mode_{i}_nu [rad/s]"] = nu
        rows[f"mode_{i}_zeta [-]"] = -lam.real / nu if nu > 0.0 else math.inf
    rows["stable"] = bool(all(r.real < 0.0 for r in roots))
    return rows


def rotor_summary(params: StructuralParams, sens: AeroSensitivities,
                  kp: float, ki: float) -> tuple[float, float]:
    """(nu, zeta) of the reduced rotor loop's band-pass form.  Both are
    NaN, the form degenerate, when the radicand -(ng/jr) dta_dbeta ki is
    not strictly positive."""
    g = params.ng / params.jr
    radicand = -g * sens.dta_dbeta * ki
    if radicand <= 0.0:
        return math.nan, math.nan
    nu = math.sqrt(radicand)
    return nu, -(g * sens.dta_domega + g * sens.dta_dbeta * kp) / (2.0 * nu)


def _nu_plt(params: StructuralParams) -> float:
    """Natural frequency of the reduced platform form, sqrt(kt/jt), rad/s."""
    return math.sqrt(params.kt / params.jt)


def platform_summary(params: StructuralParams, sens: AeroSensitivities,
                     kbeta: float) -> tuple[float, float]:
    """(nu, zeta) of the reduced platform dynamics' low-pass form.
    nu_plt depends only on kt and jt, never on the compensation gain."""
    zeta = (params.dt + params.ht ** 2 * sens.dfa_dv
            - kbeta * params.ht * sens.dfa_dbeta) \
        / (2.0 * math.sqrt(params.kt * params.jt))
    return _nu_plt(params), zeta


@dataclass(frozen=True)
class FrequencyResponse:
    """Magnitude/phase samples over a strictly increasing grid.
    Magnitude is linear and phase is in radians inside the library; the
    CLI converts to dB/degrees on output."""

    nu_grid: np.ndarray   # rad/s
    magnitude: np.ndarray
    phase: np.ndarray     # rad
    label: str

    def __post_init__(self):
        if np.any(self.nu_grid[1:] <= self.nu_grid[:-1]):
            raise ParameterError("frequency grid must be strictly increasing")
        if not np.all(np.isfinite(self.magnitude)):
            raise ParameterError("magnitude not finite on grid (pole on grid?)")


@contextmanager
def _overflow_is_an_error(label: str):
    """Raise a numpy overflow, or the inf - inf or 0 * inf it leads to,
    inside the block as a ParameterError that names it.  A pole on the
    grid divides by zero instead, which FrequencyResponse reports."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise ParameterError(f"{label} response overflows double precision "
                             f"on the frequency grid ({exc})") from exc


def default_grid(params: StructuralParams) -> np.ndarray:
    """400 log-spaced points spanning [nu_plt/100, 100*nu_plt]."""
    nu_plt = _nu_plt(params)
    return np.logspace(math.log10(nu_plt / 100.0), math.log10(100.0 * nu_plt), 400)


def bode_gplt(params: StructuralParams, sens: AeroSensitivities, kbeta: float,
              nu_grid: np.ndarray, input_channel: str = "wave") -> FrequencyResponse:
    """Closed-form second-order low-pass of the reduced platform
    dynamics, from wind ("wind") or wave ("wave") forcing to phi."""
    nu_plt, zeta = platform_summary(params, sens, kbeta)
    if input_channel == "wave":
        dc = sens.dtw_dw / params.kt
        label = "phi<-w"
    elif input_channel == "wind":
        dc = params.ht * sens.dfa_dv / params.kt
        label = "phi<-v"
    else:
        raise ParameterError(f"unknown input channel {input_channel!r}")
    nu = np.asarray(nu_grid, dtype=float)
    with _overflow_is_an_error(label):
        h = dc / (1.0 - (nu / nu_plt) ** 2 + 2j * zeta * nu / nu_plt)
        magnitude = np.abs(h)
    return FrequencyResponse(nu_grid=nu, magnitude=magnitude,
                             phase=np.unwrap(np.angle(h)), label=label)


def bode_grot(params: StructuralParams, sens: AeroSensitivities, kp: float,
              ki: float, nu_grid: np.ndarray) -> FrequencyResponse:
    """Response of the reduced rotor loop, wind to omega, always from
    its rational form g dta_dv s / (s^2 - g dta_domega s - g dta_dbeta
    (kp s + ki)), g = ng/jr, whether or not the gains have a band-pass
    parameterisation (nu_rot, zeta_rot)."""
    nu = np.asarray(nu_grid, dtype=float)
    g = params.ng / params.jr
    s = 1j * nu
    with _overflow_is_an_error("omega<-v"):
        denom = s ** 2 - g * sens.dta_domega * s - g * sens.dta_dbeta * (kp * s + ki)
        h = g * sens.dta_dv * s / denom
        magnitude = np.abs(h)
    return FrequencyResponse(nu_grid=nu, magnitude=magnitude,
                             phase=np.unwrap(np.angle(h)), label="omega<-v")


def damped_band(params: StructuralParams) -> tuple[float, float]:
    """Angular-frequency interval around nu_plt where imposing extra
    platform damping visibly reduces the response:
    (nu_plt/sqrt(2), sqrt(2)*nu_plt)."""
    nu_plt = _nu_plt(params)
    return nu_plt / math.sqrt(2.0), math.sqrt(2.0) * nu_plt


def loop_report(params: StructuralParams, sens: AeroSensitivities,
                gains: ControlGains, loop: StateSpace) -> dict:
    """Ordered {row name: value} of one closed loop: both NMPZ conditions,
    the sorted numerator zeros, the eigenvalues, each mode's nu and zeta,
    `stable`, the damped band, then the reduced rotor and platform forms'
    nu and zeta (the rotor's NaN when it has no band-pass form).  A name
    carries its row's unit; a condition or `stable` is a bool, any other
    value a number."""
    rows = {"nmpz_phi_condition": nmpz_phi_condition(sens),
            "nmpz_omega_condition": nmpz_omega_condition(params, sens, gains.ktaug)}
    for name, coeffs in (("phi", numerator_phi(params, sens)),
                         ("omega", numerator_omega(params, sens, gains.ktaug))):
        with np.errstate(all="ignore"):  # the quotients np.roots forms
            finite = np.isfinite(coeffs[1:] / coeffs[0]).all()
        if not finite:  # a subnormal or 0 leading one, or one that overflowed
            raise ParameterError(
                f"the roots of numerator_{name} overflow double precision "
                f"(coefficients {coeffs.tolist()})")
        for i, r in enumerate(np.sort_complex(np.roots(coeffs))):
            rows[f"numerator_{name}_root_{i}"] = r
    rows.update(modal_report(loop.closed))
    rows["damped_band_lo [rad/s]"], rows["damped_band_hi [rad/s]"] = damped_band(params)
    rows["rotor_nu [rad/s]"], rows["rotor_zeta [-]"] = rotor_summary(
        params, sens, gains.kp, gains.ki)
    rows["platform_nu [rad/s]"], rows["platform_zeta [-]"] = platform_summary(
        params, sens, gains.kbeta)
    return rows
