import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from fowtctl.errors import ParameterError
from fowtctl.gains import RotorTarget, synthesize
from fowtctl.model import (ControlGains, StateSpace, build_open_loop,
                           close_loop)
from fowtctl.sim import (DisturbanceSpec, TimeSeries, build_inputs, free_decay,
                         jonswap_spectrum, jonswap_wave, simulate)

NU_PLT = math.sqrt(1.433e10 / 3.0e11)


@pytest.fixture
def closed_t1f(params, sens_t1f):
    gains = synthesize(params, sens_t1f, RotorTarget(0.6, 0.01),
                       strategy="zeta-fixed", zeta_plt=0.1)
    return close_loop(build_open_loop(params, sens_t1f), gains), gains


# --- TimeSeries --------------------------------------------------------

def test_timeseries_validation():
    with pytest.raises(ParameterError):
        TimeSeries(dt=0.0, channels={"a": np.zeros(3)})
    with pytest.raises(ParameterError):
        TimeSeries(dt=0.1, channels={"a": np.zeros(3), "b": np.zeros(4)})


def test_timeseries_time_and_window():
    ts = TimeSeries(dt=0.5, channels={"a": np.arange(10.0)})
    np.testing.assert_allclose(ts.time, 0.5 * np.arange(10))
    win = ts.window(2.0, 3.5)
    assert win.t0 == 2.0
    np.testing.assert_allclose(win.channels["a"], [4.0, 5.0, 6.0, 7.0])


def test_timeseries_csv_round_trip(tmp_path):
    ts = TimeSeries(dt=0.1, channels={"a": np.array([1.0, 2.5, -3.0])},
                    units={"a": "m"})
    path = tmp_path / "ts.csv"
    ts.to_csv(path, header_lines=["comment line"])
    back = TimeSeries.from_csv(path)
    assert back.dt == pytest.approx(0.1)
    assert back.units["a"] == "m"
    np.testing.assert_allclose(back.channels["a"], ts.channels["a"])


# --- disturbances ------------------------------------------------------

@pytest.mark.parametrize("kwargs,msg", [
    (dict(kind="bogus"), "unknown"),
    (dict(kind="mono-wave", period=0.0), "period"),
    (dict(kind="jonswap-wave", period=11.0, hs=1.5), "seed"),
    (dict(kind="wind-file"), "path"),
    (dict(kind="step-wind", onset=-1.0), "onset"),
    (dict(kind="jonswap-wave", period=11.0, hs=1.5, seed=-1), "seed"),
])
def test_disturbance_validation(kwargs, msg):
    with pytest.raises(ParameterError, match=msg):
        DisturbanceSpec(**kwargs)


def test_jonswap_spectrum_zeroth_moment():
    f = np.linspace(0.0, 2.0, 40000)
    s = jonswap_spectrum(f, hs=1.5, tp=11.0, gamma=2.0)
    m0 = np.trapezoid(s, f)
    assert m0 == pytest.approx((1.5 / 4.0) ** 2, rel=1e-6)


def test_jonswap_wave_deterministic_and_scaled():
    a = jonswap_wave(hs=1.5, tp=11.0, gamma=2.0, seed=3, dt=0.1, t_end=600.0)
    b = jonswap_wave(hs=1.5, tp=11.0, gamma=2.0, seed=3, dt=0.1, t_end=600.0)
    np.testing.assert_array_equal(a.channels["w"], b.channels["w"])
    c = jonswap_wave(hs=1.5, tp=11.0, gamma=2.0, seed=4, dt=0.1, t_end=600.0)
    assert not np.array_equal(a.channels["w"], c.channels["w"])
    # standard deviation approximates hs/4
    assert np.std(a.channels["w"]) == pytest.approx(1.5 / 4.0, rel=0.15)


def test_jonswap_short_duration_warns():
    with pytest.warns(UserWarning, match="short"):
        jonswap_wave(hs=1.5, tp=11.0, gamma=2.0, seed=1, dt=0.1, t_end=50.0)


def test_build_inputs_superposition():
    specs = [DisturbanceSpec(kind="step-wind", amplitude=2.0, onset=5.0),
             DisturbanceSpec(kind="step-wind", amplitude=-0.5, onset=10.0),
             DisturbanceSpec(kind="mono-wave", amplitude=2.0, period=10.0)]
    u = build_inputs(specs, dt=0.1, t_end=20.0)
    rows = u(np.array([2.5, 4.9, 7.0, 12.0]))
    assert rows.shape == (4, 4)
    np.testing.assert_array_equal(rows[:, :2], 0.0)  # beta_ol, tau_g_ol
    np.testing.assert_array_equal(rows[:, 2], [0.0, 0.0, 2.0, 1.5])
    assert rows[0, 3] == pytest.approx(1.0)  # hw/2 at quarter period


def test_wind_file_input(tmp_path):
    path = tmp_path / "wind.csv"
    path.write_text("0.0,10.0\n10.0,12.0\n")
    spec = DisturbanceSpec(kind="wind-file", path=str(path))
    u = build_inputs([spec], dt=0.1, t_end=10.0)
    assert u(np.array([5.0]))[0, 2] == pytest.approx(11.0)


# --- simulate ----------------------------------------------------------

def test_simulate_zero_input_stays_zero(closed_t1f, params, sens_t1f):
    ss, gains = closed_t1f
    ts = simulate(ss, gains, params, sens_t1f, [], dt=0.05, t_end=5.0)
    for name in ("theta", "omega", "phi", "phidot", "beta", "tower_moment"):
        np.testing.assert_array_equal(ts.channels[name], 0.0)


def test_simulate_step_reaches_linear_steady_state(closed_t1f, params, sens_t1f):
    ss, gains = closed_t1f
    specs = [DisturbanceSpec(kind="step-wind", amplitude=1.0)]
    ts = simulate(ss, gains, params, sens_t1f, specs, dt=0.05, t_end=2000.0)
    b = ss.b_full()
    x_ss = np.linalg.solve(ss.closed, -b @ np.array([0.0, 0.0, 1.0, 0.0]))
    # the slow rotor mode (nu = 0.01 rad/s) dominates the residual
    assert ts.channels["omega"][-1] == pytest.approx(x_ss[1], abs=1e-5)
    assert ts.channels["phi"][-1] == pytest.approx(x_ss[2], rel=1e-4)


def test_rk4_matches_exact_discretization(closed_t1f, params, sens_t1f):
    ss, gains = closed_t1f
    # constant input from t = 0 so the zero-order hold is exact for both
    specs = [DisturbanceSpec(kind="step-wind", amplitude=1.0)]
    a = simulate(ss, gains, params, sens_t1f, specs, dt=0.01, t_end=50.0,
                 method="rk4")
    b = simulate(ss, gains, params, sens_t1f, specs, dt=0.01, t_end=50.0,
                 method="exact")
    for name in ("theta", "omega", "phi", "phidot"):
        assert np.max(np.abs(a.channels[name] - b.channels[name])) < 1e-8


def _reference_states(ss, disturbances, dt, t_end, method):
    """The per-step loop: RK4 evaluates the inputs at each stage time,
    exact holds them over the step with the zero-order-hold pair."""
    u = build_inputs(disturbances, dt, t_end)
    a, b = ss.closed, ss.b_full()
    zoh = expm(np.block([[a, b], [np.zeros((4, 8))]]) * dt)

    def u_at(tt):
        return u(np.array([tt]))[0]

    n = int(round(t_end / dt)) + 1
    t = dt * np.arange(n)
    x = np.zeros(4)
    states = np.empty((n, 4))
    states[0] = x
    for k in range(1, n):
        tk = t[k - 1]
        if method == "exact":
            x = zoh[:4, :4] @ x + zoh[:4, 4:] @ u_at(tk)
        else:
            k1 = a @ x + b @ u_at(tk)
            k2 = a @ (x + 0.5 * dt * k1) + b @ u_at(tk + 0.5 * dt)
            k3 = a @ (x + 0.5 * dt * k2) + b @ u_at(tk + 0.5 * dt)
            k4 = a @ (x + dt * k3) + b @ u_at(tk + dt)
            x = x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states[k] = x
    return states


def _assert_states_match(ts, ref):
    for i, name in enumerate(("theta", "omega", "phi", "phidot")):
        err = np.max(np.abs(ts.channels[name] - ref[:, i]))
        assert err <= 1e-10 * np.max(np.abs(ref[:, i])), name


@pytest.mark.parametrize("method", ["rk4", "exact"])
def test_one_step_map_matches_per_step_loop(closed_t1f, params, sens_t1f, method):
    ss, gains = closed_t1f
    dt, t_end = 0.05, 600.0
    # wind-step onset on a point where t[k-1] + dt and t[k] differ by an
    # ulp: the last RK4 stage of step k must see the former
    t = dt * np.arange(int(round(t_end / dt)) + 1)
    k = next(k for k in range(2000, len(t)) if t[k - 1] + dt != t[k])
    specs = [DisturbanceSpec(kind="jonswap-wave", hs=1.5, period=11.0,
                             gamma=3.3, seed=5),
             DisturbanceSpec(kind="step-beta", amplitude=0.01, onset=30.0),
             DisturbanceSpec(kind="step-wind", amplitude=1.0,
                             onset=max(t[k - 1] + dt, t[k]))]
    ts = simulate(ss, gains, params, sens_t1f, specs, dt=dt, t_end=t_end,
                  method=method)
    _assert_states_match(ts, _reference_states(ss, specs, dt, t_end, method))


@pytest.mark.parametrize("method", ["rk4", "exact"])
def test_divergence_matches_per_step_check(params, sens_t1f, method):
    gains = ControlGains(kp=0.5, ki=0.1, kbeta=-300.0)
    ss = close_loop(build_open_loop(params, sens_t1f), gains)
    specs = [DisturbanceSpec(kind="step-wind", amplitude=1.0, onset=1.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ts = simulate(ss, gains, params, sens_t1f, specs, dt=0.05,
                      t_end=600.0, method=method)
    assert ts.meta["diverged_at"] == 18.05
    assert len(ts) == 362
    _assert_states_match(ts, _reference_states(ss, specs, 0.05, 18.05, method))


def test_simulate_divergence_truncates_and_flags(params, sens_t1f):
    a_unstable = np.diag([1.0, 1.0, 1.0, 1.0]) * 5.0
    ss = StateSpace(a0=a_unstable.copy(),
                    bc=np.zeros((4, 2)), bd=np.eye(4, 2), a=a_unstable)
    ts = simulate(ss, ControlGains(), params, sens_t1f,
                  [DisturbanceSpec(kind="step-wind", amplitude=1.0)],
                  dt=0.05, t_end=100.0, method="exact")
    assert "diverged_at" in ts.meta
    assert ts.meta["diverged_at"] < 100.0
    assert len(ts) < 2001
    assert np.all(np.isfinite(ts.channels["phi"][:-1]))


def test_simulate_method_validation(closed_t1f, params, sens_t1f):
    ss, gains = closed_t1f
    with pytest.raises(ParameterError):
        simulate(ss, gains, params, sens_t1f, [], dt=0.05, t_end=1.0,
                 method="euler")
    with pytest.raises(ParameterError):
        simulate(ss, gains, params, sens_t1f, [], dt=-0.1, t_end=1.0)


def test_tower_moment_definition(closed_t1f, params, sens_t1f):
    ss, gains = closed_t1f
    specs = [DisturbanceSpec(kind="step-wind", amplitude=1.0)]
    ts = simulate(ss, gains, params, sens_t1f, specs, dt=0.05, t_end=10.0)
    c = ts.channels
    expected = (params.ht * (sens_t1f.dfa_dv * c["v_rel"]
                             + sens_t1f.dfa_domega * c["omega"]
                             + sens_t1f.dfa_dbeta * c["beta"])
                + params.kt * c["phi"])
    np.testing.assert_allclose(c["tower_moment"], expected, rtol=1e-12)


# --- free decay --------------------------------------------------------

def _platform_only(zeta, nu=NU_PLT):
    a = np.zeros((4, 4))
    a[2, 3] = 1.0
    a[3, 2] = -nu ** 2
    a[3, 3] = -2.0 * zeta * nu
    return a


@pytest.mark.parametrize("zeta", [0.02, 0.1, 0.4])
def test_free_decay_recovers_damping(zeta):
    res = free_decay(_platform_only(zeta), x0=[0, 0, 0.1, 0.0],
                     dt=0.01, t_end=400.0)
    assert not res.overdamped
    assert res.zeta == pytest.approx(zeta, rel=0.02)
    assert res.nu == pytest.approx(NU_PLT, rel=0.01)


def test_free_decay_overdamped_fallback():
    res = free_decay(_platform_only(1.5), x0=[0, 0, 0.1, 0.0],
                     dt=0.01, t_end=200.0)
    assert res.overdamped
    assert math.isnan(res.zeta)
    assert res.decay_rate > 0.0
