import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fowtctl.errors import ParameterError
from fowtctl.gains import (RotorTarget, kbeta_reference, kbeta_zeta_fixed,
                           ktaug, synthesize, tune_pi)
from fowtctl.model import AeroSensitivities, StructuralParams
from fowtctl.stability import platform_summary, rotor_summary

TARGET = RotorTarget(zeta_rot=0.6, nu_rot=0.01)


def test_pi_gains_frozen_values(params, sens_t1f):
    kp, ki = tune_pi(params, sens_t1f, TARGET)
    assert kp == pytest.approx(-0.359736733973185, rel=1e-12)
    assert ki == pytest.approx(2.0742012684134593e-4, rel=1e-12)


def test_pi_round_trip(params, sens_t1f):
    kp, ki = tune_pi(params, sens_t1f, TARGET)
    nu, zeta = rotor_summary(params, sens_t1f, kp, ki)
    assert not math.isnan(nu)  # the band-pass form exists
    assert nu == pytest.approx(TARGET.nu_rot, rel=1e-12)
    assert zeta == pytest.approx(TARGET.zeta_rot, rel=1e-12)


@given(tb=st.floats(-1e9, -1e6), tw=st.floats(-1e8, -1e5),
       zeta=st.floats(0.05, 2.0), nu=st.floats(1e-3, 1.0))
@settings(max_examples=200, deadline=None)
def test_pi_round_trip_property(params, tb, tw, zeta, nu):
    sens = AeroSensitivities(dta_domega=tw, dta_dv=1e6, dta_dbeta=tb,
                             dfa_domega=-1e6, dfa_dv=1e5, dfa_dbeta=-1e7)
    kp, ki = tune_pi(params, sens, RotorTarget(zeta_rot=zeta, nu_rot=nu))
    assert rotor_summary(params, sens, kp, ki) == (pytest.approx(nu, rel=1e-9),
                                                   pytest.approx(zeta, rel=1e-9))


@pytest.mark.parametrize("zeta,expected", [
    (0.05, -0.6339002391721162),
    (0.10, 2.089164091413599),
    (0.25, 10.258357083170745),
    (0.50, 23.873678736099322),
])
def test_kbeta_zeta_fixed_frozen_values(params, sens_t1f, zeta, expected):
    kb = kbeta_zeta_fixed(params, sens_t1f, zeta)
    assert kb == pytest.approx(expected, rel=1e-12)


@given(zeta=st.floats(0.01, 2.0))
@settings(max_examples=100, deadline=None)
def test_kbeta_imposes_requested_damping(params, sens_t1f, zeta):
    kb = kbeta_zeta_fixed(params, sens_t1f, zeta)
    nu_plt, zeta_plt = platform_summary(params, sens_t1f, kb)
    assert zeta_plt == pytest.approx(zeta, rel=1e-12)
    # the natural frequency is untouched by the compensation gain
    assert nu_plt == pytest.approx(math.sqrt(params.kt / params.jt), rel=1e-14)


def test_kbeta_reference_frozen_value(params, sens_t1f):
    assert kbeta_reference(params, sens_t1f) == pytest.approx(
        -2.934961975164722, rel=1e-12)


def test_ktaug_frozen_value(params, sens_t1f):
    assert ktaug(params, sens_t1f, 1.0) == pytest.approx(-4.47135e8, rel=1e-12)
    assert ktaug(params, sens_t1f, 0.0) == 0.0
    assert ktaug(params, sens_t1f, 0.5) == pytest.approx(-2.235675e8, rel=1e-12)


def test_ktaug_fraction_bounds(params, sens_t1f):
    with pytest.raises(ParameterError):
        ktaug(params, sens_t1f, 1.5)
    with pytest.raises(ParameterError):
        ktaug(params, sens_t1f, -0.1)


def test_singular_sensitivities_rejected():
    # tune_pi, kbeta_zeta_fixed and kbeta_reference divide by these: the
    # record that carries them refuses a zero
    values = dict(dta_domega=-1.0, dta_dv=1.0, dta_dbeta=-1.0,
                  dfa_domega=-1.0, dfa_dv=1.0, dfa_dbeta=-1.0)
    for name in ("dta_dbeta", "dfa_dbeta"):
        with pytest.raises(ParameterError,
                           match=rf"^{name} must be nonzero \(got 0.0\)$"):
            AeroSensitivities(**{**values, name: 0.0})


def test_zero_lever_arm_rejected():
    # kbeta_zeta_fixed divides by ht
    with pytest.raises(ParameterError, match=r"^ht must be > 0 \(got 0.0\)$"):
        StructuralParams(ng=1.0, jr=3.16e8, jt=3.0e11, dt=1.0e8,
                         kt=1.433e10, ht=0.0)


@pytest.mark.parametrize("jr,dta_dbeta,message", [
    pytest.param(3.16e8, -1e-320, "ng/jr*dta_dbeta underflows double precision "
                 "(ng = 1.0, jr = 316000000.0, dta_dbeta = -1e-320)", id="underflow"),
    pytest.param(1e-310, -1.523478e8, "ng/jr*dta_dbeta overflows double precision "
                 "(ng = 1.0, jr = 1e-310, dta_dbeta = -152347800.0)", id="overflow"),
])
def test_pi_refuses_a_rotor_gain_outside_double_precision(sens_t1f, jr, dta_dbeta,
                                                          message):
    # kp and ki divide by ng/jr*dta_dbeta: a subnormal pitch sensitivity
    # takes it to 0, a subnormal inertia to inf
    params = StructuralParams(ng=1.0, jr=jr, jt=3.0e11, dt=1.0e8,
                              kt=1.433e10, ht=150.0)
    sens = AeroSensitivities(**{**vars(sens_t1f), "dta_dbeta": dta_dbeta})
    with pytest.raises(ParameterError) as info:
        tune_pi(params, sens, TARGET)
    assert str(info.value) == message


def test_synthesize_strategies(params, sens_t1f):
    none = synthesize(params, sens_t1f, TARGET, strategy="none")
    assert none.kbeta == 0.0
    fixed = synthesize(params, sens_t1f, TARGET, strategy="zeta-fixed",
                       zeta_plt=0.1)
    assert fixed.kbeta == pytest.approx(2.089164091413599, rel=1e-12)
    ref = synthesize(params, sens_t1f, TARGET, strategy="reference")
    assert ref.kbeta == pytest.approx(-2.934961975164722, rel=1e-12)
    assert none.kp == fixed.kp == ref.kp
    assert none.ki == fixed.ki == ref.ki


def test_synthesize_validation(params, sens_t1f):
    with pytest.raises(ParameterError, match="zeta_plt"):
        synthesize(params, sens_t1f, TARGET, strategy="zeta-fixed")
    with pytest.raises(ParameterError, match="unknown strategy"):
        synthesize(params, sens_t1f, TARGET, strategy="bogus")


def test_target_validation(params, sens_t1f):
    with pytest.raises(ParameterError):
        RotorTarget(zeta_rot=0.0, nu_rot=0.01)
    with pytest.raises(ParameterError):
        RotorTarget(zeta_rot=0.6, nu_rot=-0.01)
    for zeta in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ParameterError) as info:
            kbeta_zeta_fixed(params, sens_t1f, zeta)
        assert str(info.value) == f"zeta_plt must be > 0 (got {zeta})"

