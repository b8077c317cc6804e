"""Gain synthesis from imposed dynamic targets.

The PI pair (kp, ki) is obtained by inverting the reduced second-order
rotor dynamics for a requested (zeta_rot, nu_rot).  The platform
compensation k_beta comes either from the damping-imposing strategy
(choose zeta_plt, solve for k_beta) or from the first-order decoupling
ratio.  k_taug compensates the wind-torque coupling through generator
torque, scaled by a saturation fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError
from .model import AeroSensitivities, ControlGains, StructuralParams


@dataclass(frozen=True)
class RotorTarget:
    """Imposed rotor damping ratio and cutoff angular frequency."""

    zeta_rot: float
    nu_rot: float  # rad/s

    def __post_init__(self):
        if not (self.zeta_rot > 0.0 and math.isfinite(self.zeta_rot)):
            raise ParameterError(f"zeta_rot must be > 0 (got {self.zeta_rot})")
        if not (self.nu_rot > 0.0 and math.isfinite(self.nu_rot)):
            raise ParameterError(f"nu_rot must be > 0 (got {self.nu_rot})")


def tune_pi(params: StructuralParams, sens: AeroSensitivities,
            target: RotorTarget) -> tuple[float, float]:
    """Invert the reduced rotor dynamics for (kp, ki).

    Signs are fixed by requiring that substituting the gains back into
    the band-pass parameterisation returns the requested positive
    (nu_rot, zeta_rot):

        nu_rot^2 = -(ng/jr) * dta_dbeta * ki
        2 zeta_rot nu_rot = -(ng/jr) * (dta_domega + kp * dta_dbeta)
    """
    g = params.ng / params.jr * sens.dta_dbeta
    # both gains divide by g, which a subnormal dta_dbeta takes to 0 and a
    # subnormal jr to inf
    if not 0.0 < abs(g) < math.inf:
        raise ParameterError(
            f"ng/jr*dta_dbeta {'overflows' if g else 'underflows'} double precision "
            f"(ng = {params.ng}, jr = {params.jr}, dta_dbeta = {sens.dta_dbeta})")
    ki = -target.nu_rot ** 2 / g
    kp = -(2.0 * target.zeta_rot * target.nu_rot
           + params.ng / params.jr * sens.dta_domega) / g
    return kp, ki


def kbeta_zeta_fixed(params: StructuralParams, sens: AeroSensitivities,
                     zeta_plt: float) -> float:
    """Platform compensation gain that imposes the damping ratio zeta_plt
    on the reduced platform dynamics, leaving nu_plt untouched."""
    if not (zeta_plt > 0.0 and math.isfinite(zeta_plt)):
        raise ParameterError(f"zeta_plt must be > 0 (got {zeta_plt})")
    return (params.dt + params.ht ** 2 * sens.dfa_dv
            - 2.0 * math.sqrt(params.kt * params.jt) * zeta_plt) \
        / (params.ht * sens.dfa_dbeta)


def kbeta_reference(params: StructuralParams, sens: AeroSensitivities) -> float:
    """Compensation gain erasing, at first order, the wind-torque
    coupling between platform rate and rotor speed."""
    return params.ht * sens.dta_dv / sens.dta_dbeta


def ktaug(params: StructuralParams, sens: AeroSensitivities,
          m_taug: float) -> float:
    """Generator-torque compensation, scaled by the saturation fraction
    m_taug in [0, 1]."""
    if not 0.0 <= m_taug <= 1.0:
        raise ParameterError(f"m_taug must be in [0, 1] (got {m_taug})")
    return -m_taug * params.ht / params.ng * sens.dta_dv


def synthesize(params: StructuralParams, sens: AeroSensitivities,
               rotor: RotorTarget, strategy: str = "none",
               zeta_plt: float | None = None,
               m_taug: float = 0.0) -> ControlGains:
    """One-stop synthesis used by the CLI.

    strategy is one of "zeta-fixed" (requires zeta_plt), "reference"
    (decoupling ratio) or "none" (k_beta = 0).
    """
    kp, ki = tune_pi(params, sens, rotor)
    if strategy == "zeta-fixed":
        if zeta_plt is None:
            raise ParameterError("zeta-fixed strategy requires zeta_plt")
        kbeta = kbeta_zeta_fixed(params, sens, zeta_plt)
    elif strategy == "reference":
        kbeta = kbeta_reference(params, sens)
    elif strategy == "none":
        kbeta = 0.0
    else:
        raise ParameterError(f"unknown strategy {strategy!r}")
    kt_g = ktaug(params, sens, m_taug) if m_taug else 0.0
    return ControlGains(kp=kp, ki=ki, kbeta=kbeta, ktaug=kt_g)

