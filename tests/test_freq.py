import math

import numpy as np
import pytest

from fowtctl.errors import ParameterError
from fowtctl.gains import RotorTarget, synthesize
from fowtctl.stability import (FrequencyResponse, bode_gplt, bode_grot,
                               damped_band, default_grid, rotor_summary)

NU_PLT = math.sqrt(1.433e10 / 3.0e11)


def test_default_grid_span(params):
    grid = default_grid(params)
    assert grid.size == 400
    assert grid[0] == pytest.approx(NU_PLT / 100.0, rel=1e-9)
    assert grid[-1] == pytest.approx(100.0 * NU_PLT, rel=1e-9)
    assert np.all(np.diff(grid) > 0.0)


def test_response_grid_must_increase():
    with pytest.raises(ParameterError, match="increasing"):
        FrequencyResponse(nu_grid=np.array([1.0, 1.0, 2.0]),
                          magnitude=np.ones(3), phase=np.zeros(3), label="x")


def test_platform_filter_dc_and_resonance(params, sens_t1f):
    grid = np.array([1e-4, NU_PLT, 10.0])
    resp = bode_gplt(params, sens_t1f, kbeta=2.089164091413599,
                     nu_grid=grid, input_channel="wave")
    dc = sens_t1f.dtw_dw / params.kt
    assert resp.magnitude[0] == pytest.approx(dc, rel=1e-6)
    # exactly at the natural frequency the gain is dc/(2 zeta)
    assert resp.magnitude[1] == pytest.approx(dc / (2.0 * 0.1), rel=1e-9)
    assert resp.magnitude[2] < resp.magnitude[0]  # low-pass rolloff


def test_platform_filter_wind_channel(params, sens_t1f):
    grid = np.array([1e-4])
    resp = bode_gplt(params, sens_t1f, kbeta=0.0, nu_grid=grid,
                     input_channel="wind")
    dc = params.ht * sens_t1f.dfa_dv / params.kt
    assert resp.magnitude[0] == pytest.approx(dc, rel=1e-6)
    assert resp.label == "phi<-v"
    with pytest.raises(ParameterError, match="channel"):
        bode_gplt(params, sens_t1f, 0.0, grid, input_channel="bogus")


def test_more_damping_flattens_the_peak(params, sens_t1f):
    from fowtctl.gains import kbeta_zeta_fixed
    grid = np.array([NU_PLT])
    mags = []
    for zeta in (0.1, 0.25):
        kb = kbeta_zeta_fixed(params, sens_t1f, zeta)
        mags.append(bode_gplt(params, sens_t1f, kb, grid).magnitude[0])
    assert mags[0] / mags[1] == pytest.approx(2.5, rel=1e-9)


def test_rotor_filter_is_band_pass(params, sens_t1f):
    gains = synthesize(params, sens_t1f, RotorTarget(0.6, 0.01))
    grid = np.array([1e-4, 0.01, 1.0])
    resp = bode_grot(params, sens_t1f, gains.kp, gains.ki, grid)
    # peaks at the cutoff, falls off on both sides
    assert resp.magnitude[1] > resp.magnitude[0]
    assert resp.magnitude[1] > resp.magnitude[2]


def test_rotor_filter_degenerate_flag(params, sens_t1f):
    # gains with no band-pass form (rotor_summary's nu is NaN) still give
    # the rational response, the one the Bode file of any gains holds
    kp, ki, grid = -0.3, -1e-4, np.array([0.01, 0.1])
    assert math.isnan(rotor_summary(params, sens_t1f, kp, ki)[0])
    resp = bode_grot(params, sens_t1f, kp=kp, ki=ki, nu_grid=grid)
    g, s = params.ng / params.jr, 1j * grid
    h = g * sens_t1f.dta_dv * s / (s ** 2 - g * sens_t1f.dta_domega * s
                                   - g * sens_t1f.dta_dbeta * (kp * s + ki))
    np.testing.assert_allclose(resp.magnitude, np.abs(h), rtol=1e-14)


def test_damped_band(params):
    lo, hi = damped_band(params)
    assert lo == pytest.approx(NU_PLT / math.sqrt(2.0), rel=1e-12)
    assert hi == pytest.approx(NU_PLT * math.sqrt(2.0), rel=1e-12)
