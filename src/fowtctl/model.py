"""Linear state-space model of the coupled rotor / platform-pitch dynamics.

State ordering is x = (theta, omega, phi, phidot) where theta is the
integrated generator-speed error, omega the generator speed perturbation,
phi the platform pitch perturbation and phidot its rate.  Control inputs
are u_c = (beta, tau_g), disturbances u_d = (v, w).  All quantities are
strict SI (rad, s, N, m, kg); kN-based table values are converted at the
configuration boundary, never here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ParameterError


def _require_finite(obj, names):
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise ParameterError(f"{type(obj).__name__}.{name} is not finite: {value!r}")


@dataclass(frozen=True)
class AeroSensitivities:
    """Aerodynamic partial derivatives at an operating point, plus the
    wave-moment derivative.

    dta_* are torque sensitivities (to generator speed, wind, blade pitch),
    dfa_* the thrust sensitivities, dtw_dw the overturning-moment
    sensitivity to the wave forcing signal.
    """

    dta_domega: float  # N*m*s/rad
    dta_dv: float      # N*s
    dta_dbeta: float   # N*m/rad
    dfa_domega: float  # N*s/rad
    dfa_dv: float      # N*s/m
    dfa_dbeta: float   # N/rad
    dtw_dw: float = 0.0  # N*m*s/m

    def __post_init__(self):
        _require_finite(self, [f.name for f in fields(self)])

    def validate_above_rated(self) -> "AeroSensitivities":
        """Check the sign pattern of an above-rated operating point.

        Torque and thrust fall with blade pitch and with rotor speed and
        rise with wind speed.  Raises ParameterError otherwise.
        """
        checks = [
            ("dta_dbeta", self.dta_dbeta < 0.0, "< 0"),
            ("dfa_dbeta", self.dfa_dbeta < 0.0, "< 0"),
            ("dta_domega", self.dta_domega < 0.0, "< 0"),
            ("dfa_domega", self.dfa_domega < 0.0, "< 0"),
            ("dta_dv", self.dta_dv > 0.0, "> 0"),
            ("dfa_dv", self.dfa_dv > 0.0, "> 0"),
        ]
        bad = [f"{name} must be {rule} (got {getattr(self, name)})"
               for name, ok, rule in checks if not ok]
        if bad:
            raise ParameterError("; ".join(bad))
        return self


@dataclass(frozen=True)
class StructuralParams:
    """Inertias, damping, restoring stiffness and geometry of the system."""

    ng: float  # gearbox ratio, >= 1
    jr: float  # rotor-side inertia, kg*m^2
    jt: float  # total pitch inertia, kg*m^2
    dt: float  # natural pitch damping, N*m*s/rad
    kt: float  # restoring stiffness, N*m/rad
    ht: float  # rotor height, m

    def __post_init__(self):
        _require_finite(self, [f.name for f in fields(self)])
        if self.ng < 1.0:
            raise ParameterError(f"ng must be >= 1 (got {self.ng})")
        if self.jr <= 0.0 or self.jt <= 0.0 or self.kt <= 0.0:
            raise ParameterError("jr, jt and kt must be strictly positive")
        if self.dt < 0.0:
            raise ParameterError(f"dt must be >= 0 (got {self.dt})")
        if self.ht < 0.0:
            raise ParameterError(f"ht must be >= 0 (got {self.ht})")


@dataclass(frozen=True)
class ControlGains:
    """Controller gains.  No sign constraints: either compensation
    strategy may produce a k_beta of either sign."""

    kp: float = 0.0     # s
    ki: float = 0.0     # dimensionless
    kbeta: float = 0.0  # rad*s/rad
    ktaug: float = 0.0  # N*m*s/rad

    def __post_init__(self):
        _require_finite(self, [f.name for f in fields(self)])

    def k0(self) -> np.ndarray:
        """2x4 feedback matrix mapping the state to (beta, tau_g)."""
        return np.array([
            [self.ki, self.kp, 0.0, self.kbeta],
            [0.0, 0.0, 0.0, self.ktaug],
        ])


@dataclass(frozen=True)
class StateSpace:
    """Open-loop matrices of x' = A0 x + Bc u_c + Bd u_d and of the
    channels past the state, y = C0 x + D u with u = (beta_ol, tau_g_ol,
    v, w), and, after close_loop, the closed-loop a and c.  Arrays are
    frozen; treat instances as values."""

    a0: np.ndarray
    bc: np.ndarray
    bd: np.ndarray
    c0: np.ndarray
    d: np.ndarray
    a: np.ndarray | None = None
    c: np.ndarray | None = None

    def __post_init__(self):
        for arr in (self.a0, self.bc, self.bd, self.c0, self.d, self.a, self.c):
            if arr is not None:
                arr.setflags(write=False)

    @property
    def closed(self) -> np.ndarray:
        if self.a is None:
            raise ParameterError("loop not closed yet; call close_loop first")
        return self.a

    def b_full(self) -> np.ndarray:
        """4x4 input matrix for u = (beta_ol, tau_g_ol, v, w)."""
        return np.hstack([self.bc, self.bd])


def build_open_loop(params: StructuralParams, sens: AeroSensitivities) -> StateSpace:
    """Assemble the 4-state open-loop matrices from the linearized
    rotor and platform-pitch equations, and the output rows of the
    channels past the state: blade pitch, wind, wave, relative wind
    v - ht*phidot and the tower-base moment ht*F_a + kt*phi, F_a the
    linearized thrust."""
    ng_jr = params.ng / params.jr
    ht_jt = params.ht / params.jt

    a0 = np.array([
        [0.0, 1.0, 0.0, 0.0],
        [0.0, ng_jr * sens.dta_domega, 0.0, -params.ht * ng_jr * sens.dta_dv],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, ht_jt * sens.dfa_domega, -params.kt / params.jt,
         -(params.dt + params.ht ** 2 * sens.dfa_dv) / params.jt],
    ])
    bc = np.array([
        [0.0, 0.0],
        [ng_jr * sens.dta_dbeta, -params.ng ** 2 / params.jr],
        [0.0, 0.0],
        [ht_jt * sens.dfa_dbeta, 0.0],
    ])
    bd = np.array([
        [0.0, 0.0],
        [ng_jr * sens.dta_dv, 0.0],
        [0.0, 0.0],
        [ht_jt * sens.dfa_dv, sens.dtw_dw / params.jt],
    ])
    ht = params.ht
    c0 = np.zeros((5, 4))
    c0[3, 3] = -ht
    c0[4] = [0.0, ht * sens.dfa_domega, params.kt, -ht ** 2 * sens.dfa_dv]
    d = np.zeros((5, 4))
    d[[0, 1, 2, 3], [0, 2, 3, 2]] = 1.0  # beta_ol, v, w, v
    d[4] = [ht * sens.dfa_dbeta, 0.0, ht * sens.dfa_dv, 0.0]
    return StateSpace(a0=a0, bc=bc, bd=bd, c0=c0, d=d)


def close_loop(ss: StateSpace, gains: ControlGains) -> StateSpace:
    """Fold the feedback u_c = K0 x into the state and output matrices:
    A = A0 + Bc K0 and C = C0 + Dc K0, Dc the control columns of D.  An
    overflow leaves inf or nan in them, which modal_report refuses and
    simulate flags as diverged, so it is not warned about here."""
    k0 = gains.k0()
    with np.errstate(over="ignore", invalid="ignore"):
        a = ss.a0 + ss.bc @ k0
        c = ss.c0 + ss.d[:, :2] @ k0
    return replace(ss, a=a, c=c)


# every simulated channel and its unit, in the column order of a series:
# the state, then the rows of C and D
CHANNELS = {"theta": "rad", "omega": "rad/s", "phi": "rad", "phidot": "rad/s",
            "beta": "rad", "v": "m/s", "w": "m", "v_rel": "m/s",
            "tower_moment": "N*m"}
