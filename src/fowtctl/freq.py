"""Frequency-domain evaluation of the reduced filters.

The reduced rotor (band-pass) and platform (low-pass) filters come from
the decoupled second-order forms and are what the Bode sweep emits.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .model import AeroSensitivities, StructuralParams
from .stability import platform_summary, rotor_summary


@dataclass(frozen=True)
class FrequencyResponse:
    """Magnitude/phase samples over a strictly increasing grid.
    Magnitude is linear and phase is in radians inside the library; the
    CLI converts to dB/degrees on output."""

    nu_grid: np.ndarray   # rad/s
    magnitude: np.ndarray
    phase: np.ndarray     # rad
    label: str
    degenerate: bool = False

    def __post_init__(self):
        if np.any(np.diff(self.nu_grid) <= 0.0):
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


def default_grid(params: StructuralParams, n: int = 400) -> np.ndarray:
    """400 log-spaced points spanning [nu_plt/100, 100*nu_plt]."""
    nu_plt = math.sqrt(params.kt / params.jt)
    return np.logspace(math.log10(nu_plt / 100.0), math.log10(100.0 * nu_plt), n)


def bode_gplt(params: StructuralParams, sens: AeroSensitivities, kbeta: float,
              nu_grid: np.ndarray, input_channel: str = "wave") -> FrequencyResponse:
    """Closed-form second-order low-pass of the reduced platform
    dynamics, from wind ("wind") or wave ("wave") forcing to phi."""
    summ = platform_summary(params, sens, kbeta)
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
        h = dc / (1.0 - (nu / summ.nu) ** 2 + 2j * summ.zeta * nu / summ.nu)
        magnitude = np.abs(h)
    return FrequencyResponse(nu_grid=nu, magnitude=magnitude,
                             phase=np.unwrap(np.angle(h)), label=label)


def bode_grot(params: StructuralParams, sens: AeroSensitivities, kp: float,
              ki: float, nu_grid: np.ndarray) -> FrequencyResponse:
    """Response of the reduced rotor loop, wind to omega, always from
    its rational form g dta_dv s / (s^2 - g dta_domega s - g dta_dbeta
    (kp s + ki)), g = ng/jr.  `degenerate` only flags gains for which the
    band-pass parameterisation has no (nu_rot, zeta_rot) (ki <= 0
    radicand); the response is evaluated the same way."""
    nu = np.asarray(nu_grid, dtype=float)
    g = params.ng / params.jr
    summ = rotor_summary(params, sens, kp, ki)
    s = 1j * nu
    with _overflow_is_an_error("omega<-v"):
        denom = s ** 2 - g * sens.dta_domega * s - g * sens.dta_dbeta * (kp * s + ki)
        h = g * sens.dta_dv * s / denom
        magnitude = np.abs(h)
    return FrequencyResponse(nu_grid=nu, magnitude=magnitude,
                             phase=np.unwrap(np.angle(h)), label="omega<-v",
                             degenerate=summ.degenerate)


def damped_band(params: StructuralParams) -> tuple[float, float]:
    """Angular-frequency interval around nu_plt where imposing extra
    platform damping visibly reduces the response:
    (nu_plt/sqrt(2), sqrt(2)*nu_plt)."""
    nu_plt = math.sqrt(params.kt / params.jt)
    return nu_plt / math.sqrt(2.0), math.sqrt(2.0) * nu_plt
