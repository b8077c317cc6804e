"""Zero/pole analysis of the closed loop.

Non-minimum-phase-zero (NMPZ) conditions for the blade-pitch channels,
the numerator polynomials they derive from, an eigen summary with
per-mode damping, and the closed-form second-order summaries of the
reduced rotor and platform dynamics.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import GainSingularityError, ParameterError
from .model import AeroSensitivities, StructuralParams

#: relative distance to the strict-inequality boundary below which a
#: warning is emitted (the boundary itself is classified as no-NMPZ)
BOUNDARY_RTOL = 1e-9


class NmpzBoundaryWarning(UserWarning):
    """The operating point sits numerically on an NMPZ boundary."""


@dataclass(frozen=True)
class Mode:
    """One characteristic root (or conjugate pair) with its natural
    frequency and damping ratio."""

    eigenvalue: complex
    nu: float    # rad/s, |lambda|
    zeta: float  # -Re(lambda)/|lambda|
    oscillatory: bool


@dataclass(frozen=True)
class ModalReport:
    eigenvalues: tuple[complex, ...]
    modes: tuple[Mode, ...] = field(default=())
    stable: bool = False

    def mode_nearest(self, nu: float) -> Mode:
        """Mode whose natural frequency is closest to nu."""
        return min(self.modes, key=lambda m: abs(m.nu - nu))


def _warn_if_boundary(lhs: float, rhs: float):
    scale = max(abs(lhs), abs(rhs), 1e-300)
    if abs(lhs - rhs) <= BOUNDARY_RTOL * scale:
        warnings.warn("operating point within 1e-9 of the NMPZ boundary",
                      NmpzBoundaryWarning, stacklevel=3)


def nmpz_phi_condition(sens: AeroSensitivities) -> bool:
    """True iff the blade-pitch -> platform-pitch channel carries a
    right-half-plane zero: dta_domega/dta_dbeta < dfa_domega/dfa_dbeta."""
    if sens.dta_dbeta == 0.0 or sens.dfa_dbeta == 0.0:
        raise GainSingularityError("dta_dbeta and dfa_dbeta must be nonzero")
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
    if sens.dta_dbeta == 0.0:
        raise GainSingularityError("dta_dbeta must be nonzero")
    tb, fb = sens.dta_dbeta, sens.dfa_dbeta
    # numerator coefficients scaled by ht (>0), which preserves signs
    c3 = params.jt * tb
    c2 = (params.dt * tb
          + params.ht ** 2 * (tb * sens.dfa_dv - fb * sens.dta_dv)
          - ktaug * params.ng * params.ht * fb)
    _warn_if_boundary(c2 / c3, 0.0)
    return c2 / c3 < 0.0


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
    if params.ht == 0.0:
        raise GainSingularityError("ht = 0: channel numerator undefined")
    tb, fb = sens.dta_dbeta, sens.dfa_dbeta
    a3 = params.jt / params.ht * tb
    a2 = (params.dt / params.ht * tb
          + params.ht * (tb * sens.dfa_dv - fb * sens.dta_dv)
          - ktaug * params.ng * fb)
    a1 = params.kt / params.ht * tb
    return np.array([a3, a2, a1, 0.0])


def modal_report(a: np.ndarray) -> ModalReport:
    """Eigenvalues of the state matrix with per-mode natural frequency
    and damping ratio; stable iff all real parts negative."""
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise ParameterError("state matrix is not finite: the parameters "
                             "overflow double precision")
    roots = np.linalg.eigvals(a).astype(complex)
    order = sorted(range(len(roots)), key=lambda i: (abs(roots[i]), roots[i].imag))
    roots = roots[order]
    modes = []
    for lam in roots:
        oscillatory = abs(lam.imag) > 1e-12 * max(1.0, abs(lam))
        if oscillatory:
            # eigvals gives exact conjugate pairs, and the sort puts the
            # imag < 0 member first: it reports the pair
            if lam.imag > 0.0:
                continue
            lam = complex(lam.real, -lam.imag)
        nu = abs(lam)
        zeta = -lam.real / nu if nu > 0.0 else math.inf
        modes.append(Mode(eigenvalue=lam, nu=nu, zeta=zeta, oscillatory=oscillatory))
    stable = bool(all(r.real < 0.0 for r in roots))
    return ModalReport(eigenvalues=tuple(roots), modes=tuple(modes), stable=stable)


@dataclass(frozen=True)
class ModeSummary:
    """Closed-form (nu, zeta) of a reduced second-order channel.
    degenerate marks the case where the band-pass form does not exist
    (non-positive radicand); nu and zeta are then NaN."""

    nu: float
    zeta: float
    degenerate: bool = False


def rotor_summary(params: StructuralParams, sens: AeroSensitivities,
                  kp: float, ki: float) -> ModeSummary:
    """Band-pass parameters of the reduced rotor loop.  Degenerate when
    the radicand -(ng/jr) dta_dbeta ki is not strictly positive."""
    g = params.ng / params.jr
    radicand = -g * sens.dta_dbeta * ki
    if radicand <= 0.0:
        return ModeSummary(nu=math.nan, zeta=math.nan, degenerate=True)
    nu = math.sqrt(radicand)
    zeta = -(g * sens.dta_domega + g * sens.dta_dbeta * kp) / (2.0 * nu)
    return ModeSummary(nu=nu, zeta=zeta)


def platform_summary(params: StructuralParams, sens: AeroSensitivities,
                     kbeta: float) -> ModeSummary:
    """Low-pass parameters of the reduced platform dynamics.  nu_plt
    depends only on kt and jt, never on the compensation gain."""
    nu = math.sqrt(params.kt / params.jt)
    zeta = (params.dt + params.ht ** 2 * sens.dfa_dv
            - kbeta * params.ht * sens.dfa_dbeta) \
        / (2.0 * math.sqrt(params.kt * params.jt))
    return ModeSummary(nu=nu, zeta=zeta)
