"""Coupled rotor / platform-pitch control analysis for floating wind
turbines: linear model assembly, gain synthesis, zero/pole analysis,
time- and frequency-domain simulation, and rainflow fatigue
post-processing.
"""

from .errors import (ConfigError, FowtctlError, GainSingularityError,
                     NearPoleError, ParameterError)
from .fatigue import (Cycle, WohlerCurve, damage_equivalent_load,
                      miner_damage, rainflow, turning_points)
from .freq import (FrequencyResponse, bode_gplt, bode_grot, damped_band,
                   default_grid, eval_G)
from .gains import (PlatformTarget, RotorTarget, kbeta_reference,
                    kbeta_zeta_fixed, ktaug, synthesize, tune_pi)
from .model import (AeroSensitivities, ControlGains, StateSpace,
                    StructuralParams, build_open_loop, close_loop)
from .sim import (DisturbanceSpec, FreeDecayResult, TimeSeries, free_decay,
                  jonswap_spectrum, jonswap_wave, simulate)
from .stability import (Mode, ModalReport, ModeSummary, NmpzBoundaryWarning,
                        Polynomial, RootConvergenceError, modal_report,
                        nmpz_omega_condition, nmpz_phi_condition,
                        numerator_omega, numerator_phi, platform_summary,
                        rotor_summary)

__version__ = "1.0.0"

__all__ = [
    "AeroSensitivities", "ControlGains", "StateSpace", "StructuralParams",
    "build_open_loop", "close_loop",
    "RotorTarget", "PlatformTarget",
    "tune_pi", "kbeta_zeta_fixed", "kbeta_reference", "ktaug", "synthesize",
    "Polynomial", "Mode", "ModalReport", "ModeSummary",
    "NmpzBoundaryWarning", "RootConvergenceError",
    "nmpz_phi_condition", "nmpz_omega_condition",
    "numerator_phi", "numerator_omega", "modal_report",
    "rotor_summary", "platform_summary",
    "TimeSeries", "DisturbanceSpec", "FreeDecayResult",
    "jonswap_spectrum", "jonswap_wave", "simulate", "free_decay",
    "FrequencyResponse", "eval_G", "default_grid", "bode_gplt", "bode_grot",
    "damped_band",
    "Cycle", "WohlerCurve", "turning_points", "rainflow",
    "damage_equivalent_load", "miner_damage",
    "FowtctlError", "ParameterError", "GainSingularityError",
    "NearPoleError", "ConfigError",
    "__version__",
]
