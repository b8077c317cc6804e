"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line naming the behavior it certifies,
then asserts it, so `pytest -s tests/test_acceptance.py` gives a compact
scoreboard of the checks this package is expected to satisfy.
"""

import math
import sys
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from fowtctl.cli import main
from fowtctl.fatigue import WohlerCurve, damage_equivalent_load, rainflow
from fowtctl.gains import RotorTarget, kbeta_zeta_fixed, synthesize
from fowtctl.model import (AeroSensitivities, ControlGains, StructuralParams,
                           build_open_loop, close_loop)
from fowtctl.sim import DisturbanceSpec, simulate
from fowtctl.stability import (NmpzBoundaryWarning, modal_report,
                               nmpz_omega_condition, nmpz_phi_condition,
                               numerator_omega, numerator_phi)

from decay import free_decay
from modes import mode_nearest

NU_PLT = math.sqrt(1.433e10 / 3.0e11)
TUNING = RotorTarget(zeta_rot=0.6, nu_rot=0.01)

# structure with a light, lightly damped platform; the rotor/platform
# coupling is then strong enough for the wrong-way transients to be
# visible in the time domain (the conditions themselves do not depend
# on jt or kt)
DEMO = StructuralParams(ng=1.0, jr=3.16e8, jt=1.0e9, dt=1.0e6, kt=4.0e8,
                        ht=150.0)


def _verdict(label: str, ok: bool) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}", file=sys.stderr)
    return ok


def _loop(params, sens, gains):
    return close_loop(build_open_loop(params, sens), gains)


def _beta_step_response(params, sens, t_end=300.0, dt=0.02):
    """Open-loop unit blade-pitch step from rest (no feedback)."""
    specs = [DisturbanceSpec(kind="step-beta", amplitude=1.0)]
    return simulate(_loop(params, sens, ControlGains()), specs,
                    dt=dt, t_end=t_end, method="exact")


def test_nmpz_classification(params, sens_t1f, sens_t1t, sens_t2f,
                             sens_t2t, sens_t3):
    start = time.perf_counter()
    ok = (nmpz_phi_condition(sens_t1f) is False
          and nmpz_phi_condition(sens_t1t) is True
          and nmpz_omega_condition(params, sens_t2f) is False
          and nmpz_omega_condition(params, sens_t2t) is True
          and nmpz_phi_condition(sens_t3) is True
          and nmpz_omega_condition(params, sens_t3) is True)
    # a condition-blind aggressive tuning destabilizes the double-NMPZ
    # operating point
    gains = synthesize(params, sens_t3, RotorTarget(zeta_rot=0.7, nu_rot=0.2))
    rows = modal_report(_loop(params, sens_t3, gains).closed)
    ok = ok and rows["stable"] is False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    assert _verdict("NMPZ classification matches all tabulated operating "
                    f"points and flags the unstable one ({elapsed:.2f} s)", ok)


def test_condition_root_sign_equivalence(params):
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    agree = 0
    n = 1000
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NmpzBoundaryWarning)
        for _ in range(n):
            sens = AeroSensitivities(
                dta_domega=-rng.uniform(1e6, 1e8),
                dta_dv=rng.uniform(1e5, 1e7),
                dta_dbeta=-rng.uniform(1e7, 1e9),
                dfa_domega=-rng.uniform(1e5, 1e7),
                dfa_dv=rng.uniform(1e4, 1e6),
                dfa_dbeta=-rng.uniform(1e6, 1e8),
            )
            ktg = float(rng.choice([0.0, -rng.uniform(1e7, 1e9)]))
            phi_ok = nmpz_phi_condition(sens) == any(
                r.real > 1e-12 for r in np.roots(numerator_phi(params, sens)))
            om_ok = nmpz_omega_condition(params, sens, ktg) == any(
                r.real > 1e-12
                for r in np.roots(numerator_omega(params, sens, ktg)))
            agree += phi_ok and om_ok
    elapsed = time.perf_counter() - start
    ok = agree == n and elapsed < 10.0
    assert _verdict("condition booleans equal numerator RHP-root existence "
                    f"on {agree}/{n} random admissible sets ({elapsed:.1f} s)",
                    ok)


def test_step_response_directionality(params, sens_t1f, sens_t1t, sens_t2t):
    phi_false = _beta_step_response(params, sens_t1f).channels["phi"][-1]
    phi_true = _beta_step_response(params, sens_t1t).channels["phi"][-1]
    om = _beta_step_response(DEMO, sens_t2t).channels["omega"]
    ok = (phi_false < 0.0 < phi_true      # platform tips the "wrong" way
          and np.max(om) > 0.0            # speeds up at first ...
          and om[-1] < 0.0)               # ... then settles slower
    assert _verdict("blade-pitch steps show the wrong-way platform and "
                    "rotor-speed excursions exactly when the conditions "
                    "hold", ok)


def test_damping_imposition(params, sens_t1f):
    start = time.perf_counter()
    ok = True
    # decoupled: imposed damping recovered by log decrement
    for zeta in (0.05, 0.10, 0.25, 0.5):
        kb = kbeta_zeta_fixed(params, sens_t1f, zeta)
        a = np.zeros((4, 4))
        a[2, 3] = 1.0
        a[3, 2] = -params.kt / params.jt
        a[3, 3] = -(params.dt + params.ht ** 2 * sens_t1f.dfa_dv
                    - kb * params.ht * sens_t1f.dfa_dbeta) / params.jt
        res = free_decay(a, x0=[0, 0, 0.1, 0.0], dt=0.01, t_end=400.0)
        ok = ok and abs(res.zeta - zeta) / zeta < 0.02
    # coupled: platform mode pair of the full closed loop
    nus = []
    for zeta in (0.05, 0.10, 0.25, 0.5):
        gains = synthesize(params, sens_t1f, TUNING, strategy="zeta-fixed",
                           zeta_plt=zeta)
        _, mode_zeta = mode_nearest(
            modal_report(_loop(params, sens_t1f, gains).closed), NU_PLT)
        ok = ok and abs(mode_zeta - zeta) / zeta < 0.15
    # the compensation gain never moves the reduced natural frequency
    from fowtctl.stability import platform_summary
    nus = [platform_summary(params, sens_t1f, kb)[0]
           for kb in (-100.0, -1.0, 0.0, 5.0, 100.0)]
    ok = ok and max(abs(nu - NU_PLT) / NU_PLT for nu in nus) < 1e-10
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    assert _verdict("imposed platform damping recovered by free decay "
                    "(2%) and coupled modes (15%), nu_plt untouched "
                    f"({elapsed:.1f} s)", ok)


def test_integrator_fidelity(params, sens_t1f):
    gains = synthesize(params, sens_t1f, TUNING, strategy="zeta-fixed",
                       zeta_plt=0.1)
    specs = [DisturbanceSpec(kind="step-wind", amplitude=1.0)]
    loop = _loop(params, sens_t1f, gains)
    rk4 = simulate(loop, specs, dt=0.01, t_end=100.0, method="rk4")
    zoh = simulate(loop, specs, dt=0.01, t_end=100.0, method="exact")
    err = max(np.max(np.abs(rk4.channels[n] - zoh.channels[n]))
              for n in ("theta", "omega", "phi", "phidot"))
    ok = err < 1e-8
    assert _verdict("classical RK4 matches the exact zero-order-hold "
                    f"discretization to {err:.2e} (< 1e-8) over 100 s", ok)


def _forced_amplitude(params, sens, kbeta, tp, hw, t_end=900.0, dt=0.05):
    # the platform dynamics alone: without dfa_domega and the PI gains,
    # the rotor does not act on the platform-pitch row
    specs = [DisturbanceSpec(kind="mono-wave", amplitude=hw, period=tp)]
    ts = simulate(_loop(params, replace(sens, dfa_domega=0.0),
                        ControlGains(kbeta=kbeta)), specs, dt=dt, t_end=t_end)
    # project the post-transient tail onto the forcing harmonics
    tail = ts.window(t_end - 10.0 * tp)
    t = tail.time
    phi = tail.channels["phi"]
    c = 2.0 * np.pi / tp
    basis = np.column_stack([np.sin(c * t), np.cos(c * t)])
    coef, *_ = np.linalg.lstsq(basis, phi, rcond=None)
    return math.hypot(*coef)


def test_frequency_time_consistency(params, sens_t1f):
    tp = 2.0 * math.pi / NU_PLT
    hw = 1.5
    amps = {}
    ok = True
    for zeta in (0.10, 0.25):
        kb = kbeta_zeta_fixed(params, sens_t1f, zeta)
        amps[zeta] = _forced_amplitude(params, sens_t1f, kb, tp, hw)
        predicted = (sens_t1f.dtw_dw / params.kt) / (2.0 * zeta) * (hw / 2.0)
        ok = ok and abs(amps[zeta] - predicted) / predicted < 0.01
    ratio = amps[0.10] / amps[0.25]
    ok = ok and abs(ratio - 2.5) / 2.5 < 0.10
    assert _verdict("resonant response amplitude matches |G(j nu_plt)| "
                    f"within 1% and the Q ratio is {ratio:.3f} "
                    "(2.5 +- 10%)", ok)


def _strategy_run(params, sens, kbeta, tp, t_end=700.0):
    gains = ControlGains(kp=-0.359736733973185, ki=2.0742012684134593e-4,
                         kbeta=kbeta)
    specs = [DisturbanceSpec(kind="mono-wave", amplitude=1.5, period=tp)]
    ts = simulate(_loop(params, sens, gains), specs, dt=0.05, t_end=t_end)
    tail = ts.window(t_end - 300.0)
    amp = float(np.std(tail.channels["phi"]))
    cycles = rainflow(tail.channels["tower_moment"], hysteresis_frac=1e-3)
    return amp, damage_equivalent_load(cycles, 3.0, 600.0)


def test_strategy_comparison(params, sens_t1f):
    kb = {zeta: kbeta_zeta_fixed(params, sens_t1f, zeta)
          for zeta in (0.10, 0.25)}
    results = {}
    for tp in (28.75, 11.0):
        results[tp] = {
            "none": _strategy_run(params, sens_t1f, 0.0, tp),
            0.10: _strategy_run(params, sens_t1f, kb[0.10], tp),
            0.25: _strategy_run(params, sens_t1f, kb[0.25], tp),
        }
    res = results[28.75]
    ok = (res["none"][0] > res[0.10][0] > res[0.25][0]
          and res["none"][1] > res[0.10][1] > res[0.25][1])
    # off-resonance the same gains bring a weaker relative reduction
    red_res = 1.0 - results[28.75][0.25][0] / results[28.75]["none"][0]
    red_off = 1.0 - results[11.0][0.25][0] / results[11.0]["none"][0]
    ok = ok and red_off < red_res
    assert _verdict("damping imposition shrinks platform motion and "
                    "tower DEL at resonance, ordered by target, and the "
                    f"benefit drops off-resonance ({red_res:.0%} vs "
                    f"{red_off:.0%})", ok)


def test_fatigue_kernel():
    example = [-2.0, 1.0, -3.0, 5.0, -1.0, 3.0, -4.0, 4.0, -2.0]
    counted = sorted((c.range, c.count) for c in rainflow(example))
    ok = counted == [(3.0, 0.5), (4.0, 0.5), (4.0, 1.0), (6.0, 0.5),
                     (8.0, 0.5), (8.0, 0.5), (9.0, 0.5)]
    rng = np.random.default_rng(1)
    sig = list(rng.normal(size=400))
    for c in (1e-4, 3.7, 1e6):
        d0 = damage_equivalent_load(rainflow(sig), 4.0, 600.0)
        d1 = damage_equivalent_load(rainflow([c * x for x in sig]), 4.0, 600.0)
        ok = ok and abs(d1 - c * d0) / (c * d0) < 1e-12
    curve = WohlerCurve(kind="bilinear", m1=3.0, m2=5.0, stress_knee=5e7)
    above = curve.cycles_to_failure(5e7 * (1 + 1e-12))
    below = curve.cycles_to_failure(5e7 * (1 - 1e-12))
    ok = ok and abs(above - below) / curve.knee < 1e-9
    assert _verdict("rainflow reproduces the reference decomposition, DEL "
                    "is homogeneous, the knee is continuous", ok)


CAMPAIGN = """
[structure]
use = umaine-iea15

[sensitivities]
use = table1-false

[run]
seed = 314

[simulation]
dt = 0.05
duration = 150
transient = 50

[disturbance.wave]
kind = jonswap-wave
hs = 1.5
period = 11
gamma = 2

[campaign]
wind_speeds = 12, 18, 24
strategies = none, zeta-fixed:0.10, reference
sens.24 = table2-true
"""


def test_campaign_determinism(tmp_path):
    cfg = tmp_path / "campaign.ini"
    cfg.write_text(CAMPAIGN)
    outs = []
    for sub in ("a", "b"):
        rc = main(["campaign", "--config", str(cfg),
                   "--out", str(tmp_path / sub), "--jobs", "2"])
        assert rc == 0
        outs.append((tmp_path / sub / "campaign.csv").read_bytes())
    ok = outs[0] == outs[1] and len(outs[0]) > 0
    assert _verdict("repeated campaign runs with the same config and seed "
                    "are byte-identical", ok)
