import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fowtctl.errors import ParameterError
from fowtctl.model import (CHANNELS, AeroSensitivities, ControlGains,
                           StructuralParams, build_open_loop, close_loop)


def test_open_loop_matrix_entries(params, sens_t1f):
    ss = build_open_loop(params, sens_t1f)
    ng_jr = params.ng / params.jr
    ht_jt = params.ht / params.jt
    expected_a0 = np.array([
        [0.0, 1.0, 0.0, 0.0],
        [0.0, ng_jr * sens_t1f.dta_domega, 0.0, -params.ht * ng_jr * sens_t1f.dta_dv],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, ht_jt * sens_t1f.dfa_domega, -params.kt / params.jt,
         -(params.dt + params.ht ** 2 * sens_t1f.dfa_dv) / params.jt],
    ])
    np.testing.assert_allclose(ss.a0, expected_a0, rtol=0, atol=0)
    assert ss.bc.shape == (4, 2)
    assert ss.bd.shape == (4, 2)
    assert ss.bc[1, 0] == ng_jr * sens_t1f.dta_dbeta
    assert ss.bc[1, 1] == -params.ng ** 2 / params.jr
    assert ss.bc[3, 0] == ht_jt * sens_t1f.dfa_dbeta
    assert ss.bd[1, 0] == ng_jr * sens_t1f.dta_dv
    assert ss.bd[3, 1] == sens_t1f.dtw_dw / params.jt
    # only the listed entries are populated
    assert np.count_nonzero(ss.bc) == 3
    assert np.count_nonzero(ss.bd) == 3


def test_close_loop_is_a0_plus_bc_k0(params, sens_t1f):
    ss = build_open_loop(params, sens_t1f)
    gains = ControlGains(kp=-0.3, ki=2e-4, kbeta=1.5, ktaug=-1e8)
    closed = close_loop(ss, gains)
    np.testing.assert_allclose(closed.closed, ss.a0 + ss.bc @ gains.k0(),
                               rtol=0, atol=0)


def test_open_loop_output_rows(params, sens_t1f):
    # y = C0 x + D u for the channels past the state, u = (beta_ol,
    # tau_g_ol, v, w): the pitch, the inputs, v - ht*phidot and the
    # tower-base moment ht*F_a + kt*phi
    ss = build_open_loop(params, sens_t1f)
    ht, s = params.ht, sens_t1f
    assert list(CHANNELS)[4:] == ["beta", "v", "w", "v_rel", "tower_moment"]
    np.testing.assert_array_equal(ss.c0, [
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -ht],
        [0.0, ht * s.dfa_domega, params.kt, -ht ** 2 * s.dfa_dv],
    ])
    np.testing.assert_array_equal(ss.d, [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 1.0, 0.0],
        [ht * s.dfa_dbeta, 0.0, ht * s.dfa_dv, 0.0],
    ])
    assert ss.c is None


def test_close_loop_folds_k0_into_a_and_c(params, sens_t1f):
    # the pitch law enters the outputs through the control columns of D
    # as it enters the dynamics through Bc; D itself is unchanged
    ss = build_open_loop(params, sens_t1f)
    gains = ControlGains(kp=-0.3, ki=2e-4, kbeta=1.5, ktaug=-1e8)
    closed = close_loop(ss, gains)
    np.testing.assert_array_equal(closed.c, ss.c0 + ss.d[:, :2] @ gains.k0())
    np.testing.assert_array_equal(closed.c[0], [gains.ki, gains.kp, 0.0, gains.kbeta])
    np.testing.assert_array_equal(closed.d, ss.d)
    np.testing.assert_array_equal(closed.closed, ss.a0 + ss.bc @ gains.k0())
    zero = close_loop(ss, ControlGains())
    np.testing.assert_array_equal(zero.c, ss.c0)


def test_zero_gains_leave_dynamics_unchanged(params, sens_t1f):
    ss = build_open_loop(params, sens_t1f)
    closed = close_loop(ss, ControlGains())
    np.testing.assert_array_equal(closed.closed, ss.a0)


def test_closed_property_requires_close_loop(params, sens_t1f):
    ss = build_open_loop(params, sens_t1f)
    with pytest.raises(ParameterError):
        ss.closed


def test_matrices_are_read_only(params, sens_t1f):
    ss = close_loop(build_open_loop(params, sens_t1f), ControlGains())
    with pytest.raises(ValueError):
        ss.closed[0, 0] = 1.0
    with pytest.raises(ValueError):
        ss.a0[0, 0] = 1.0
    for arr in (ss.c0, ss.d, ss.c):
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0


def test_b_full_stacks_control_then_disturbance(params, sens_t1f):
    ss = build_open_loop(params, sens_t1f)
    b = ss.b_full()
    assert b.shape == (4, 4)
    np.testing.assert_array_equal(b[:, :2], ss.bc)
    np.testing.assert_array_equal(b[:, 2:], ss.bd)


def test_k0_layout():
    k0 = ControlGains(kp=1.0, ki=2.0, kbeta=3.0, ktaug=4.0).k0()
    np.testing.assert_array_equal(k0, [[2.0, 1.0, 0.0, 3.0],
                                       [0.0, 0.0, 0.0, 4.0]])


def test_sensitivities_reject_non_finite():
    with pytest.raises(ParameterError, match="not finite"):
        AeroSensitivities(dta_domega=math.nan, dta_dv=1.0, dta_dbeta=-1.0,
                          dfa_domega=-1.0, dfa_dv=1.0, dfa_dbeta=-1.0)


def test_above_rated_sign_pattern():
    good = AeroSensitivities(dta_domega=-1.0, dta_dv=1.0, dta_dbeta=-1.0,
                             dfa_domega=-1.0, dfa_dv=1.0, dfa_dbeta=-1.0)
    assert good.validate_above_rated() is good
    flipped = AeroSensitivities(dta_domega=-1.0, dta_dv=1.0, dta_dbeta=1.0,
                                dfa_domega=-1.0, dfa_dv=1.0, dfa_dbeta=-1.0)
    with pytest.raises(ParameterError, match="dta_dbeta"):
        flipped.validate_above_rated()


def test_all_zero_sensitivities_buildable():
    # degenerate sets are storable; only gain synthesis rejects them
    sens = AeroSensitivities(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    params = StructuralParams(ng=1.0, jr=1.0, jt=1.0, dt=0.0, kt=1.0, ht=0.0)
    ss = build_open_loop(params, sens)
    assert ss.a0.shape == (4, 4)


@pytest.mark.parametrize("kwargs", [
    dict(ng=0.5, jr=1.0, jt=1.0, dt=0.0, kt=1.0, ht=1.0),
    dict(ng=1.0, jr=0.0, jt=1.0, dt=0.0, kt=1.0, ht=1.0),
    dict(ng=1.0, jr=1.0, jt=-1.0, dt=0.0, kt=1.0, ht=1.0),
    dict(ng=1.0, jr=1.0, jt=1.0, dt=-1.0, kt=1.0, ht=1.0),
    dict(ng=1.0, jr=1.0, jt=1.0, dt=0.0, kt=0.0, ht=1.0),
    dict(ng=1.0, jr=1.0, jt=1.0, dt=0.0, kt=1.0, ht=-1.0),
])
def test_structural_invariants(kwargs):
    with pytest.raises(ParameterError):
        StructuralParams(**kwargs)


@given(kp=st.floats(-10, 10), ki=st.floats(-1, 1),
       kbeta=st.floats(-100, 100), ktaug=st.floats(-1e9, 1e9))
@settings(max_examples=50, deadline=None)
def test_close_loop_linear_in_gains(kp, ki, kbeta, ktaug):
    params = StructuralParams(ng=1.0, jr=3.16e8, jt=3.0e11, dt=1.0e8,
                              kt=1.433e10, ht=150.0)
    sens = AeroSensitivities(dta_domega=-5.86e7, dta_dv=2.98e6,
                             dta_dbeta=-1.52e8, dfa_domega=-5.66e6,
                             dfa_dv=3.55e5, dfa_dbeta=-1.61e7, dtw_dw=5e8)
    ss = build_open_loop(params, sens)
    g = ControlGains(kp=kp, ki=ki, kbeta=kbeta, ktaug=ktaug)
    half = ControlGains(kp=kp / 2, ki=ki / 2, kbeta=kbeta / 2, ktaug=ktaug / 2)
    full = close_loop(ss, g).closed - ss.a0
    twice_half = 2.0 * (close_loop(ss, half).closed - ss.a0)
    # atol absorbs cancellation noise from subtracting a0 back out
    np.testing.assert_allclose(full, twice_half, rtol=1e-9, atol=1e-10)
