import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fowtctl.config import load_sensitivities
from fowtctl.errors import ParameterError
from fowtctl.gains import RotorTarget, synthesize
from fowtctl.model import (AeroSensitivities, ControlGains, StructuralParams,
                           build_open_loop, close_loop)
from fowtctl.stability import (NmpzBoundaryWarning, damped_band, loop_report,
                               modal_report, nmpz_omega_condition,
                               nmpz_phi_condition, numerator_omega, numerator_phi,
                               platform_summary, rotor_summary)

NU_PLT = math.sqrt(1.433e10 / 3.0e11)


def test_char_poly_matches_factored_closed_form(params, sens_t1f):
    """The closed-loop characteristic polynomial equals the product of the
    reduced rotor and platform quadratics plus a rank-one coupling term."""
    kp, ki, kb, ktg = -0.3597, 2.074e-4, 2.089, -2.2e8
    gains = ControlGains(kp=kp, ki=ki, kbeta=kb, ktaug=ktg)
    ss = close_loop(build_open_loop(params, sens_t1f), gains)
    got = np.poly(ss.closed)[::-1]

    s = sens_t1f
    P = np.polynomial.polynomial
    chi_rot = [-params.ng / params.jr * s.dta_dbeta * ki,
               -params.ng / params.jr * (s.dta_domega + s.dta_dbeta * kp), 1.0]
    chi_plt = [params.kt / params.jt,
               (params.dt + params.ht ** 2 * s.dfa_dv
                - kb * params.ht * s.dfa_dbeta) / params.jt, 1.0]
    bracket = [0.0, s.dfa_dbeta * ki, s.dfa_dbeta * kp + s.dfa_domega]
    scalar = (params.ng * ktg + params.ht * s.dta_dv - kb * s.dta_dbeta)
    coupling = [c * params.ng * params.ht / (params.jr * params.jt) * scalar
                for c in bracket]
    expected = P.polyadd(P.polymul(chi_rot, chi_plt), coupling)
    np.testing.assert_allclose(got, expected, rtol=1e-12)


# --- NMPZ conditions ---------------------------------------------------

def test_phi_condition_table1(sens_t1f, sens_t1t):
    assert nmpz_phi_condition(sens_t1f) is False
    assert nmpz_phi_condition(sens_t1t) is True


def test_omega_condition_table2(params, sens_t2f, sens_t2t):
    assert nmpz_omega_condition(params, sens_t2f) is False
    assert nmpz_omega_condition(params, sens_t2t) is True


def test_both_conditions_table3(params, sens_t3):
    assert nmpz_phi_condition(sens_t3) is True
    assert nmpz_omega_condition(params, sens_t3) is True


def test_phi_condition_boundary_warns():
    # dta_domega/dta_dbeta exactly equals dfa_domega/dfa_dbeta
    sens = AeroSensitivities(dta_domega=-2.0, dta_dv=1.0, dta_dbeta=-4.0,
                             dfa_domega=-1.0, dfa_dv=1.0, dfa_dbeta=-2.0)
    with pytest.warns(NmpzBoundaryWarning):
        result = nmpz_phi_condition(sens)
    assert result is False  # boundary classified as no-NMPZ


@pytest.mark.parametrize("dt", [1.0e8, 0.0])
@pytest.mark.parametrize("offset,warns", [(0.0, True), (1e-13, True),
                                          (1e-11, True), (1e-6, False)])
def test_omega_condition_boundary_warns(params, sens_t1f, dt, offset, warns):
    # dfa_dv on the boundary ht^2 (dfa_dv - dta_dv dfa_dbeta/dta_dbeta) = -dt,
    # then scaled by 1 + offset: within 1e-9 of it the condition warns,
    # also at dt = 0, where one side of that form is 0
    flat = dataclasses.replace(params, dt=dt)
    s = sens_t1f
    edge = -dt / params.ht ** 2 + s.dta_dv * s.dfa_dbeta / s.dta_dbeta
    sens = dataclasses.replace(s, dfa_dv=edge * (1.0 + offset))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        nmpz_omega_condition(flat, sens)
    assert any(w.category is NmpzBoundaryWarning for w in caught) is warns


def test_packaged_sets_are_off_the_nmpz_boundaries(params):
    for name in ("table1-false", "table1-true", "table2-false", "table2-true",
                 "table3-both"):
        sens = load_sensitivities(name)[0]
        full = -params.ht / params.ng * sens.dta_dv
        with warnings.catch_warnings():
            warnings.simplefilter("error", NmpzBoundaryWarning)
            nmpz_phi_condition(sens)
            for ktaug in (0.0, 0.5 * full, full):
                nmpz_omega_condition(params, sens, ktaug)


def test_omega_condition_ktaug_can_flip(params, sens_t2t):
    """A strong enough generator-torque compensation removes the
    rotor-speed channel RHP zero."""
    assert nmpz_omega_condition(params, sens_t2t, ktaug=0.0) is True
    full = -params.ht / params.ng * sens_t2t.dta_dv
    assert nmpz_omega_condition(params, sens_t2t, ktaug=full) is False


def test_condition_singularities():
    # both conditions divide by the pitch sensitivities, which the record
    # refuses to hold as zero, of either sign
    values = dict(dta_domega=-1.0, dta_dv=1.0, dta_dbeta=-1.0,
                  dfa_domega=-1.0, dfa_dv=1.0, dfa_dbeta=-1.0)
    for name in ("dta_dbeta", "dfa_dbeta"):
        for zero in (0.0, -0.0):
            with pytest.raises(ParameterError, match=f"^{name} must be nonzero"):
                AeroSensitivities(**{**values, name: zero})


def test_conditions_of_a_subnormal_pitch_sensitivity(sens_t1f):
    # dta_dbeta = -1e-320: dta_domega/dta_dbeta overflows to inf, which
    # says nothing of the boundary, and the omega numerator's leading
    # coefficient jt*dta_dbeta underflows to 0, so only its sign is read
    tiny = StructuralParams(ng=1.0, jr=3.16e8, jt=1e-10, dt=1e8, kt=1e-10,
                            ht=150.0)
    sens = dataclasses.replace(sens_t1f, dta_dbeta=-1e-320)
    assert tiny.jt * sens.dta_dbeta == 0.0
    normal = dataclasses.replace(sens, dta_dbeta=-1e-6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert nmpz_phi_condition(sens) is nmpz_phi_condition(normal) is False
        assert nmpz_omega_condition(tiny, sens) is True
        assert nmpz_omega_condition(tiny, normal) is True


# --- numerators --------------------------------------------------------

def test_numerator_phi_root_signs(params, sens_t1f, sens_t1t):
    # the nonzero root is the ratio of the two coefficients
    r_false = np.roots(numerator_phi(params, sens_t1f))
    r_true = np.roots(numerator_phi(params, sens_t1t))
    roots_false = [r for r in r_false if abs(r) > 1e-12]
    roots_true = [r for r in r_true if abs(r) > 1e-12]
    assert roots_false[0].real == pytest.approx(-0.015500954287743831, rel=1e-9)
    assert roots_true[0].real == pytest.approx(0.017660010493222952, rel=1e-9)


def test_numerator_omega_root_signs(params, sens_t2f, sens_t2t):
    quad_false = [r for r in np.roots(numerator_omega(params, sens_t2f))
                  if abs(r) > 1e-12]
    quad_true = [r for r in np.roots(numerator_omega(params, sens_t2t))
                 if abs(r) > 1e-12]
    assert all(r.real < 0.0 for r in quad_false)
    assert all(r.real > 0.0 for r in quad_true)
    assert quad_true[0].real == pytest.approx(0.0030654, rel=1e-3)


@pytest.mark.parametrize("ktg", [0.0, -3e8])
def test_numerators_are_the_model_channel_numerators(params, sens_t1f, sens_t3,
                                                     ktg):
    """With tau_g = ktaug * phidot, the beta -> phi and beta -> omega
    numerators c adj(sI - A) b of the state-space model equal the
    returned coefficient arrays up to a constant factor."""
    for sens in (sens_t1f, sens_t3):
        ss = build_open_loop(params, sens)
        a = ss.a0 + np.outer(ss.bc[:, 1], [0.0, 0.0, 0.0, ktg])
        b = ss.bc[:, 0]
        for state, coeffs in ((2, numerator_phi(params, sens)),
                              (1, numerator_omega(params, sens, ktg))):
            c = np.eye(4)[state]
            # det(sI - A + b c) - det(sI - A) = c adj(sI - A) b
            model = (np.poly(a - np.outer(b, c)) - np.poly(a))[1:]
            ours = np.pad(coeffs, (len(model) - len(coeffs), 0))
            i = np.argmax(np.abs(ours))
            np.testing.assert_allclose(model / model[i], ours / ours[i],
                                       rtol=1e-9, atol=1e-9)


def test_numerator_omega_needs_lever_arm():
    # its coefficients divide by ht, which the record refuses to hold as zero
    with pytest.raises(ParameterError, match=r"^ht must be > 0 \(got 0.0\)$"):
        StructuralParams(ng=1.0, jr=3.16e8, jt=3.0e11, dt=1.0e8,
                         kt=1.433e10, ht=0.0)


def _random_admissible(rng):
    return AeroSensitivities(
        dta_domega=-rng.uniform(1e6, 1e8),
        dta_dv=rng.uniform(1e5, 1e7),
        dta_dbeta=-rng.uniform(1e7, 1e9),
        dfa_domega=-rng.uniform(1e5, 1e7),
        dfa_dv=rng.uniform(1e4, 1e6),
        dfa_dbeta=-rng.uniform(1e6, 1e8),
    )


def test_conditions_match_numerator_root_signs(params):
    """The boolean conditions are exactly 'numerator has an RHP root'."""
    rng = np.random.default_rng(2024)
    for _ in range(300):
        sens = _random_admissible(rng)
        ktg = float(rng.choice([0.0, -rng.uniform(1e7, 1e9)]))
        phi_roots = np.roots(numerator_phi(params, sens))
        om_roots = np.roots(numerator_omega(params, sens, ktg))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NmpzBoundaryWarning)
            assert nmpz_phi_condition(sens) == any(
                r.real > 1e-12 for r in phi_roots)
            assert nmpz_omega_condition(params, sens, ktg) == any(
                r.real > 1e-12 for r in om_roots)


# --- modal report ------------------------------------------------------

def test_modal_report_stable_system(params, sens_t1f):
    gains = synthesize(params, sens_t1f, RotorTarget(0.6, 0.01),
                       strategy="zeta-fixed", zeta_plt=0.1)
    ss = close_loop(build_open_loop(params, sens_t1f), gains)
    report = modal_report(ss.closed)
    assert report.stable
    assert len(report.eigenvalues) == 4
    plt_mode = report.mode_nearest(NU_PLT)
    assert plt_mode.oscillatory
    assert plt_mode.zeta == pytest.approx(0.1, rel=0.15)


def test_modal_report_unstable_system():
    a = np.diag([-1.0, -2.0, 0.5, -3.0])
    report = modal_report(a)
    assert not report.stable
    assert any(m.eigenvalue.real > 0 for m in report.modes)


def test_modal_report_pairs_conjugates():
    a = np.array([[0.0, 1.0], [-4.0, -0.4]])  # one underdamped pair
    report = modal_report(a)
    assert len(report.eigenvalues) == 2
    assert len(report.modes) == 1
    mode = report.modes[0]
    assert mode.nu == pytest.approx(2.0, rel=1e-9)
    assert mode.zeta == pytest.approx(0.1, rel=1e-9)


def test_modal_report_keeps_sort_order_for_pairs_of_equal_modulus():
    # two pairs with |lambda| = 2: the pair whose imag < 0 member sorts
    # first (the larger |imag|) reports first
    a = np.zeros((4, 4))
    a[:2, :2] = [[0.0, 1.0], [-4.0, -0.4]]
    a[2:, 2:] = [[0.0, 1.0], [-4.0, -0.8]]
    report = modal_report(a)
    assert [m.zeta for m in report.modes] == pytest.approx([0.1, 0.2], rel=1e-9)
    assert all(m.eigenvalue.imag > 0.0 for m in report.modes)


def test_loop_report_rows(params, sens_t3):
    gains = synthesize(params, sens_t3, RotorTarget(zeta_rot=0.6, nu_rot=0.01),
                       strategy="zeta-fixed", zeta_plt=0.1, m_taug=0.5)
    loop = close_loop(build_open_loop(params, sens_t3), gains)
    rows = loop_report(params, sens_t3, gains, loop)
    report = modal_report(loop.closed)
    zeros = {name: np.sort_complex(np.roots(coeffs)) for name, coeffs in
             (("phi", numerator_phi(params, sens_t3)),
              ("omega", numerator_omega(params, sens_t3, gains.ktaug)))}
    want = {"nmpz_phi_condition": nmpz_phi_condition(sens_t3),
            "nmpz_omega_condition": nmpz_omega_condition(params, sens_t3,
                                                         gains.ktaug),
            **{f"numerator_{name}_root_{i}": r
               for name, roots in zeros.items() for i, r in enumerate(roots)},
            **{f"eigenvalue_{i}": lam for i, lam in enumerate(report.eigenvalues)}}
    for i, mode in enumerate(report.modes):
        want[f"mode_{i}_nu [rad/s]"] = mode.nu
        want[f"mode_{i}_zeta [-]"] = mode.zeta
    want["stable"] = report.stable
    want["damped_band_lo [rad/s]"], want["damped_band_hi [rad/s]"] = damped_band(params)
    want["rotor_nu [rad/s]"], want["rotor_zeta [-]"] = rotor_summary(
        params, sens_t3, gains.kp, gains.ki)
    want["platform_nu [rad/s]"], want["platform_zeta [-]"] = platform_summary(
        params, sens_t3, gains.kbeta)
    assert list(rows.items()) == list(want.items())
    assert {k for k, v in rows.items() if isinstance(v, bool)} == {
        "nmpz_phi_condition", "nmpz_omega_condition", "stable"}


# --- reduced summaries -------------------------------------------------

def test_platform_summary_natural_damping(params, sens_t1f):
    nu, zeta = platform_summary(params, sens_t1f, kbeta=0.0)
    assert nu == pytest.approx(NU_PLT, rel=1e-12)
    assert zeta == pytest.approx(0.06163946499632949, rel=1e-12)


def test_platform_nu_independent_of_kbeta(params, sens_t1f):
    nus = {platform_summary(params, sens_t1f, kb)[0]
           for kb in (-50.0, -2.0, 0.0, 2.0, 50.0)}
    assert len(nus) == 1


def test_rotor_summary_degenerate_flag(params, sens_t1f):
    # degenerate: no band-pass form, so both values are NaN
    nu, zeta = rotor_summary(params, sens_t1f, kp=-0.3, ki=-1e-4)
    assert math.isnan(nu) and math.isnan(zeta)


@given(zeta=st.floats(0.01, 1.5))
@settings(max_examples=60, deadline=None)
def test_imposed_damping_appears_in_coupled_modes(params, sens_t1f, zeta):
    """The reduced-form damping target carries over to the coupled
    closed-loop platform mode pair with only a small coupling shift."""
    gains = synthesize(params, sens_t1f, RotorTarget(0.6, 0.01),
                       strategy="zeta-fixed", zeta_plt=zeta)
    ss = close_loop(build_open_loop(params, sens_t1f), gains)
    mode = modal_report(ss.closed).mode_nearest(NU_PLT)
    if mode.oscillatory and zeta < 0.9:
        assert mode.zeta == pytest.approx(zeta, rel=0.15)
