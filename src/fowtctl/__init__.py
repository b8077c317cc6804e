"""Coupled rotor / platform-pitch control analysis for floating wind
turbines: linear model assembly, gain synthesis, zero/pole analysis,
time- and frequency-domain simulation, and rainflow fatigue
post-processing.
"""

import os as _os

# numpy's bundled OpenBLAS starts one worker thread per extra CPU when it
# loads, and each worker spins for about 0.1 s of CPU before it sleeps; no
# product fowtctl forms has an inner dimension above 8, so none gains from a
# second thread.  OpenBLAS reads its thread count once, at load, so the
# variable is set only around the import and then removed: the caller's
# environment and any child process see what they had before.  A count the
# caller chose (OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS,
# which OpenBLAS also reads) always wins, and nothing changes when numpy was
# imported before fowtctl.
if not any(_v in _os.environ for _v in
           ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from .errors import ConfigError, FowtctlError, ParameterError
from .fatigue import (Cycle, Cycles, WohlerCurve, damage_equivalent_load,
                      miner_damage, rainflow, turning_points)
from .gains import (RotorTarget, kbeta_reference, kbeta_zeta_fixed, ktaug,
                    synthesize, tune_pi)
from .model import (AeroSensitivities, ControlGains, StateSpace,
                    StructuralParams, build_open_loop, close_loop)
from .sim import (DisturbanceSpec, TimeSeries, jonswap_spectrum, jonswap_wave,
                  simulate)
from .stability import (FrequencyResponse, Mode, ModalReport,
                        NmpzBoundaryWarning, bode_gplt, bode_grot, damped_band,
                        default_grid, modal_report, nmpz_omega_condition,
                        nmpz_phi_condition, numerator_omega, numerator_phi,
                        platform_summary, rotor_summary)

__version__ = "1.0.0"

__all__ = [
    "AeroSensitivities", "ControlGains", "StateSpace", "StructuralParams",
    "build_open_loop", "close_loop",
    "RotorTarget",
    "tune_pi", "kbeta_zeta_fixed", "kbeta_reference", "ktaug", "synthesize",
    "Mode", "ModalReport", "NmpzBoundaryWarning",
    "nmpz_phi_condition", "nmpz_omega_condition",
    "numerator_phi", "numerator_omega", "modal_report",
    "rotor_summary", "platform_summary",
    "TimeSeries", "DisturbanceSpec",
    "jonswap_spectrum", "jonswap_wave", "simulate",
    "FrequencyResponse", "default_grid", "bode_gplt", "bode_grot", "damped_band",
    "Cycle", "Cycles", "WohlerCurve", "turning_points", "rainflow",
    "damage_equivalent_load", "miner_damage",
    "FowtctlError", "ParameterError", "ConfigError",
    "__version__",
]
