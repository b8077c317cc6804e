import bisect
import csv
import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fowtctl import sim
from fowtctl.config import _data_dir, load_sensitivities
from fowtctl.errors import ParameterError
from fowtctl.gains import RotorTarget, synthesize
from fowtctl.model import ControlGains, build_open_loop, close_loop
from fowtctl.sim import (_BLOCK, _POWER_LIMIT, _ROW_BLOCK, DisturbanceSpec,
                         TimeSeries, _expm, _jonswap_amplitudes, _powers, _recur,
                         _smooth_length, build_inputs, csv_cell, jonswap_spectrum,
                         jonswap_wave, simulate, write_csv)

from decay import free_decay

NU_PLT = math.sqrt(1.433e10 / 3.0e11)


@pytest.fixture
def closed_t1f(params, sens_t1f):
    gains = synthesize(params, sens_t1f, RotorTarget(0.6, 0.01),
                       strategy="zeta-fixed", zeta_plt=0.1)
    return close_loop(build_open_loop(params, sens_t1f), gains)


# --- TimeSeries --------------------------------------------------------

def test_timeseries_validation():
    with pytest.raises(ParameterError):
        TimeSeries(dt=0.0, channels={"a": np.zeros(3)})
    with pytest.raises(ParameterError):
        TimeSeries(dt=0.1, channels={"a": np.zeros(3), "b": np.zeros(4)})


def test_timeseries_time_and_window():
    ts = TimeSeries(dt=0.5, channels={"a": np.arange(10.0)})
    np.testing.assert_allclose(ts.time, 0.5 * np.arange(10))
    win = ts.window(3.5)
    assert win.t0 == 3.5
    np.testing.assert_allclose(win.channels["a"], [7.0, 8.0, 9.0])
    assert len(ts.window(5.0)) == 0


def _window_by_mask(ts, t_start):
    """window as a boolean mask over the time axis and a gather."""
    t = ts.time
    idx = np.flatnonzero(t >= t_start)
    return ({k: v[idx] for k, v in ts.channels.items()},
            float(t[idx[0]]) if idx.size else ts.t0)


@pytest.mark.parametrize("t_start", [-1.0, 0.3, 0.3 + 0.1 * 7, 0.3 + 0.1 * 7 + 0.04,
                                     0.3 + 0.1 * 19, 0.3 + 0.1 * 19 + 1e-9, 50.0],
                         ids=["before", "first-sample", "on-sample",
                              "between-samples", "last-sample", "past-last", "past-end"])
def test_window_equals_the_mask_and_gather(t_start):
    rng = np.random.default_rng(5)
    ts = TimeSeries(dt=0.1, t0=0.3, units={"a": "m"}, diverged_at=2.2,
                    channels={"a": rng.normal(size=20), "b": rng.normal(size=20)})
    win = ts.window(t_start)
    channels, t0 = _window_by_mask(ts, t_start)
    assert win.t0 == t0 and win.dt == ts.dt
    assert win.units == ts.units and win.diverged_at == ts.diverged_at
    for name, values in channels.items():
        assert np.array_equal(win.channels[name], values)
    before = {k: v.copy() for k, v in ts.channels.items()}
    for values in win.channels.values():
        values += 1.0
    win.units["a"] = "x"
    for name, values in ts.channels.items():
        assert np.array_equal(values, before[name])
    assert ts.units == {"a": "m"}


def test_timeseries_csv_round_trip(tmp_path):
    ts = TimeSeries(dt=0.1, channels={"a": np.array([1.0, 2.5, -3.0])},
                    units={"a": "m"})
    path = tmp_path / "ts.csv"
    ts.to_csv(path, header_lines=["comment line"])
    back = TimeSeries.from_csv(path, "a")
    assert back.dt == pytest.approx(0.1)
    assert back.units["a"] == "m"
    np.testing.assert_allclose(back.channels["a"], ts.channels["a"])


@pytest.mark.parametrize("diverged_at, lines", [
    (18.05, b"# a\n# diverged_at=18.05\n"),
    (None, b"# a\n"),
], ids=["diverged", "not-diverged"])
def test_to_csv_writes_the_divergence_line_after_the_header(tmp_path, diverged_at,
                                                            lines):
    ts = TimeSeries(dt=0.05, channels={"a": np.array([1.0, 2.0])}, units={"a": "m"},
                    diverged_at=diverged_at)
    path = tmp_path / "ts.csv"
    ts.to_csv(path, ["a"])
    assert path.read_bytes() == (lines + b"t [s],a [m]\r\n"
                                 b"0.000000,1\r\n0.050000,2\r\n")


def test_write_csv_golden_bytes(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["fowtctl 1.0.0", "seed=none"], ["t [s]", "x [m]"],
              "%.6f,%.12g", [(0.0, -0.0), (0.05, 1e-300),
                             (1.0 / 3.0, 12345678901234567.0),
                             (2.5, 0.30000000000000004)])
    assert path.read_bytes() == (
        b"# fowtctl 1.0.0\n# seed=none\n"
        b"t [s],x [m]\r\n"
        b"0.000000,-0\r\n"
        b"0.050000,1e-300\r\n"
        b"0.333333,1.23456789012e+16\r\n"
        b"2.500000,0.3\r\n")


@pytest.mark.parametrize("n", [0, 1, _ROW_BLOCK, 2 * _ROW_BLOCK + 3])
def test_write_csv_columns_match_row_tuples(tmp_path, n):
    # a numeric table given as columns is written in blocks of rows; the
    # bytes are those of one `%` per row, across block boundaries too
    rng = np.random.default_rng(n)
    cols = [0.05 * np.arange(n),
            rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n),
            np.where(rng.random(n) < 0.5, 0.5, 1.0)]
    if n:
        cols[1][0] = -0.0
    args = (["seed=none"], ["t [s]", "x [m]", "count [-]"], "%.6f,%.12g,%g")
    write_csv(tmp_path / "rows.csv", *args, list(zip(*(c.tolist() for c in cols))))
    write_csv(tmp_path / "cols.csv", *args, cols)
    assert (tmp_path / "cols.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_csv_cell_quotes_like_the_csv_module():
    for text in ("plain", "a,b", 'say "hi"', "two\nlines", ""):
        buf = io.StringIO()
        csv.writer(buf).writerow([text, "x"])
        assert csv_cell(text) + ",x\r\n" == buf.getvalue()


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@given(st.lists(_FINITE, min_size=1, max_size=30))
@settings(max_examples=200, deadline=None)
def test_from_csv_parses_printed_floats_bit_equal(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("csv") / "s.csv"
    short = ["%.12g" % v for v in values]
    full = [repr(v) for v in values]
    path.write_text("# comment\nt [s],a [m],b [m]\n" + "".join(
        f"{0.1 * k:.6f},{s},{f}\n" for k, (s, f) in enumerate(zip(short, full))))
    for name, texts in (("a", short), ("b", full)):
        want = np.array([float(t) for t in texts])
        back = TimeSeries.from_csv(path, name)
        assert back.channels[name].tobytes() == want.tobytes()


@pytest.mark.parametrize("channel", ["b"])
def test_from_csv_keeps_only_its_channels(tmp_path, channel):
    # the parsed table, time column included, is not kept alive behind
    # views of its channel columns
    path = tmp_path / "ts.csv"
    x = np.arange(20_000.0)
    TimeSeries(dt=0.05, channels={"a": np.sin(x), "b": np.cos(x)}).to_csv(path)
    TimeSeries.from_csv(path, channel)  # warm-up: first-call caches are not kept data
    tracemalloc.start()
    try:
        back = TimeSeries.from_csv(path, channel)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert list(back.channels) == ["b"]
    assert back.channels["b"].tobytes() == np.array(
        ["%.12g" % v for v in np.cos(x)], dtype=float).tobytes()
    assert kept <= 1.1 * sum(v.nbytes for v in back.channels.values())


# --- disturbances ------------------------------------------------------

@pytest.mark.parametrize("kwargs,msg", [
    (dict(kind="bogus"), "unknown"),
    (dict(kind="mono-wave", period=0.0), "period"),
    (dict(kind="jonswap-wave", period=11.0, hs=1.5), "seed"),
    (dict(kind="wind-file"), "path"),
    (dict(kind="step-wind", onset=-1.0), "onset"),
    (dict(kind="jonswap-wave", period=11.0, hs=1.5, seed=-1), "seed"),
    (dict(kind="jonswap-wave", period=11.0, hs=1.5, seed=1, gamma=0.0), "gamma"),
    (dict(kind="jonswap-wave", period=11.0, hs=1.5, seed=1, gamma=-1.0), "gamma"),
])
def test_disturbance_validation(kwargs, msg):
    with pytest.raises(ParameterError, match=msg):
        DisturbanceSpec(**kwargs)


def test_jonswap_spectrum_zeroth_moment():
    f = np.linspace(0.0, 2.0, 40000)
    s = jonswap_spectrum(f, hs=1.5, tp=11.0, gamma=2.0)
    m0 = np.trapezoid(s, f)
    assert m0 == pytest.approx((1.5 / 4.0) ** 2, rel=1e-6)


def _is_5_smooth(m: int) -> bool:
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


def test_smooth_length_is_the_least_5_smooth_length_at_or_above_n():
    smooth = [m for m in range(1, 5_200) if _is_5_smooth(m)]
    for n in range(1, 5_001):
        assert _smooth_length(n) == smooth[bisect.bisect_left(smooth, n)], n
    # 600 s, 1 h and 6 h at dt 0.05; 432 001 is prime
    assert [_smooth_length(n) for n in (12_001, 72_001, 432_001)] == \
        [12_150, 72_900, 437_400]


def test_jonswap_wave_transforms_on_the_smooth_length(monkeypatch):
    lengths = []

    def recording_irfft(spec, n):
        lengths.append(n)
        return np.fft.irfft(spec, n=n)

    monkeypatch.setattr(sim, "irfft", recording_irfft)
    w = jonswap_wave(hs=1.5, tp=11.0, gamma=3.3, seed=1, dt=0.05, t_end=600.0)
    assert lengths == [_smooth_length(12_001)] == [12_150]
    assert w.shape == (12_001,)


def test_jonswap_wave_deterministic_and_scaled():
    _jonswap_amplitudes.cache_clear()  # a forms the amplitudes, b reads them
    a = jonswap_wave(hs=1.5, tp=11.0, gamma=2.0, seed=3, dt=0.1, t_end=600.0)
    b = jonswap_wave(hs=1.5, tp=11.0, gamma=2.0, seed=3, dt=0.1, t_end=600.0)
    # one sample per dt, both ends included, though synthesized on 6075
    assert a.shape == (6001,) and _smooth_length(6001) == 6075
    np.testing.assert_array_equal(a, b)
    c = jonswap_wave(hs=1.5, tp=11.0, gamma=2.0, seed=4, dt=0.1, t_end=600.0)
    assert not np.array_equal(a, c)
    for key in (dict(section=1), dict(case=1)):
        d = jonswap_wave(hs=1.5, tp=11.0, gamma=2.0, seed=3, dt=0.1,
                         t_end=600.0, **key)
        assert not np.array_equal(a, d)
    # standard deviation approximates hs/4
    assert np.std(a) == pytest.approx(1.5 / 4.0, rel=0.15)


def test_jonswap_seeds_share_one_read_only_amplitude_array():
    _jonswap_amplitudes.cache_clear()
    a = jonswap_wave(hs=1.5, tp=11.0, gamma=3.3, seed=1, dt=0.05, t_end=120.0)
    b = jonswap_wave(hs=1.5, tp=11.0, gamma=3.3, seed=2, dt=0.05, t_end=120.0)
    assert not np.array_equal(a, b)
    info = _jonswap_amplitudes.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    # the shared array, on the synthesis length of the 2401 samples
    amp = _jonswap_amplitudes(_smooth_length(2401), 0.05, 1.5, 11.0, 3.3)
    assert _jonswap_amplitudes.cache_info().hits == 2
    assert not amp.flags.writeable
    with pytest.raises(ValueError):
        amp[1] = 0.0


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


def test_build_inputs_samples_the_jonswap_wave_on_its_grid():
    spec = DisturbanceSpec(kind="jonswap-wave", hs=1.5, period=11.0,
                           gamma=2.0, seed=3)
    u = build_inputs([spec], dt=0.1, t_end=600.0)
    w = jonswap_wave(hs=1.5, tp=11.0, gamma=2.0, seed=3, dt=0.1, t_end=600.0)
    np.testing.assert_array_equal(u(0.1 * np.arange(len(w)))[:, 3], w)


def test_wind_file_input(tmp_path):
    path = tmp_path / "wind.csv"
    path.write_text("0.0,10.0\n10.0,12.0\n")
    spec = DisturbanceSpec(kind="wind-file", path=str(path))
    u = build_inputs([spec], dt=0.1, t_end=10.0)
    assert u(np.array([5.0]))[0, 2] == pytest.approx(11.0)


# --- simulate ----------------------------------------------------------

def test_simulate_zero_input_stays_zero(closed_t1f):
    ss = closed_t1f
    ts = simulate(ss, [], dt=0.05, t_end=5.0)
    for name in ("theta", "omega", "phi", "phidot", "beta", "tower_moment"):
        np.testing.assert_array_equal(ts.channels[name], 0.0)


def test_simulate_step_reaches_linear_steady_state(closed_t1f):
    ss = closed_t1f
    specs = [DisturbanceSpec(kind="step-wind", amplitude=1.0)]
    ts = simulate(ss, specs, dt=0.05, t_end=2000.0)
    b = ss.b_full()
    x_ss = np.linalg.solve(ss.closed, -b @ np.array([0.0, 0.0, 1.0, 0.0]))
    # the slow rotor mode (nu = 0.01 rad/s) dominates the residual
    assert ts.channels["omega"][-1] == pytest.approx(x_ss[1], abs=1e-5)
    assert ts.channels["phi"][-1] == pytest.approx(x_ss[2], rel=1e-4)


def test_rk4_matches_exact_discretization(closed_t1f):
    ss = closed_t1f
    # constant input from t = 0 so the zero-order hold is exact for both
    specs = [DisturbanceSpec(kind="step-wind", amplitude=1.0)]
    a = simulate(ss, specs, dt=0.01, t_end=50.0, method="rk4")
    b = simulate(ss, specs, dt=0.01, t_end=50.0, method="exact")
    for name in ("theta", "omega", "phi", "phidot"):
        assert np.max(np.abs(a.channels[name] - b.channels[name])) < 1e-8


def _reference_states(ss, disturbances, dt, t_end, method):
    """The per-step loop: RK4 evaluates the inputs at each stage time,
    exact holds them over the step with the zero-order-hold pair."""
    u = build_inputs(disturbances, dt, t_end)
    a, b = ss.closed, ss.b_full()
    if method == "exact":
        # scipy's exponential is the independent oracle, so without scipy
        # an exact case is skipped
        expm = pytest.importorskip("scipy.linalg").expm
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
def test_one_step_map_matches_per_step_loop(closed_t1f, method):
    ss = closed_t1f
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
    ts = simulate(ss, specs, dt=dt, t_end=t_end, method=method)
    _assert_states_match(ts, _reference_states(ss, specs, dt, t_end, method))


@pytest.mark.parametrize("method", ["rk4", "exact"])
def test_divergence_matches_per_step_check(params, sens_t1f, method):
    gains = ControlGains(kp=0.5, ki=0.1, kbeta=-300.0)
    ss = close_loop(build_open_loop(params, sens_t1f), gains)
    specs = [DisturbanceSpec(kind="step-wind", amplitude=1.0, onset=1.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ts = simulate(ss, specs, dt=0.05, t_end=600.0, method=method)
    assert ts.diverged_at == 18.05
    assert len(ts) == 362
    _assert_states_match(ts, _reference_states(ss, specs, 0.05, 18.05, method))


def _per_step_recur(p, f, x0):
    """_recur's contract as a loop over steps: the states, cut after the
    first one that is non-finite or has norm > 1e12."""
    states = [np.asarray(x0, dtype=float)]
    with np.errstate(over="ignore", invalid="ignore"):
        for fk in f:
            x = p @ states[-1] + fk
            states.append(x)
            if not np.linalg.norm(x) <= 1e12:  # also false for nan and inf
                return np.array(states), True
    return np.array(states), False


def test_recur_matches_per_step_loop():
    """The blocked scan against the per-step loop on random P, from
    strongly stable to explosive, under forcing that starts late."""
    rng = np.random.default_rng(2024)
    n_cut = 0
    for case in range(135):
        p = rng.standard_normal((4, 4))
        if case % 2:
            # spectral radius 0.05 .. 1.02 on a random, non-normal P
            p *= rng.uniform(0.05, 1.02) / np.max(np.abs(np.linalg.eigvals(p)))
        else:
            p *= 10.0 ** rng.uniform(-2.0, 8.0)  # entries up to about 1e8
        n = _BLOCK * int(rng.integers(1, 25)) + int(rng.integers(1, _BLOCK))
        f = rng.standard_normal((n, 4)) * 10.0 ** rng.uniform(-3.0, 3.0, 4)
        f[:int(n * rng.uniform(0.5, 0.95))] = 0.0
        x0 = np.zeros(4) if case % 3 else rng.standard_normal(4)
        got, got_cut = _recur(p, f, x0)
        want, want_cut = _per_step_recur(p, f, x0)
        assert (got_cut, len(got)) == (want_cut, len(want)), case
        kept = len(want) - 1 if want_cut else len(want)
        n_cut += want_cut
        peak = np.max(np.abs(want[:kept]), axis=0)
        err = np.max(np.abs(got[:kept] - want[:kept]), axis=0)
        assert np.all(err <= 1e-10 * peak), (case, err, peak)
    assert 20 < n_cut < 115  # both outcomes are exercised


def _powers_per_power(p):
    """_powers as a loop that checks each power as it forms it."""
    pw = [p]
    with np.errstate(over="ignore", invalid="ignore"):
        while len(pw) < _BLOCK:
            nxt = pw[-1] @ p
            if not np.abs(nxt).max() < _POWER_LIMIT:
                break
            pw.append(nxt)
    return np.array(pw)


def test_powers_match_the_per_power_loop():
    """Same powers, bit for bit, and the same cut: on P whose powers all
    stay small, cross 1e100 inside the block, or overflow to inf."""
    rng = np.random.default_rng(7)
    lengths = set()
    for case in range(120):
        p = rng.standard_normal((4, 4))
        radius = np.max(np.abs(np.linalg.eigvals(p)))
        # spectral radius 0.1 .. 1e60: from about 1e5 on, the powers
        # overflow to inf inside the block, past the cut
        p *= 10.0 ** rng.uniform(-1.0, 60.0) / radius
        got, want = _powers(p), _powers_per_power(p)
        assert len(got) == len(want), case
        assert np.array_equal(got, want), case
        lengths.add(len(want))
    for p in (np.full((4, 4), 1e200), np.diag([1e60, 1.0, 1.0, 1.0])):
        got = _powers(p)  # P^2 overflows or passes 1e100: P alone is kept
        assert len(got) == 1 and np.array_equal(got, _powers_per_power(p))
    assert {1, _BLOCK} <= lengths and len(lengths) > 10


@pytest.mark.parametrize("method", ["rk4", "exact"])
def test_simulate_memory_per_step(closed_t1f, method):
    # the forcing, the scan's work array and the states are never all
    # held at once, and the returned channels keep no sampled input rows
    ss = closed_t1f
    specs = [DisturbanceSpec(kind="jonswap-wave", hs=1.5, period=11.0,
                             gamma=3.3, seed=1),
             DisturbanceSpec(kind="step-wind", amplitude=1.0, onset=100.0)]

    def run():
        return simulate(ss, specs, dt=0.05, t_end=600.0, method=method)

    run()  # warm-up: first-call caches are not the function's memory
    tracemalloc.start()
    try:
        ts = run()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ts) == 12_001
    assert peak <= 130 * len(ts)
    assert kept <= 80 * len(ts)


def test_simulate_divergence_truncates_and_flags(params, sens_t1f):
    # a PI gain of the wrong sign: the rotor mode grows at about 0.8 1/s
    for method in ("rk4", "exact"):
        ts = simulate(close_loop(build_open_loop(params, sens_t1f),
                                 ControlGains(kp=-2.0)),
                      [DisturbanceSpec(kind="step-wind", amplitude=1.0)],
                      dt=0.05, t_end=100.0, method=method)
        assert ts.diverged_at is not None and ts.diverged_at < 100.0
        assert len(ts) < 2001
        for name, values in ts.channels.items():
            assert np.all(np.isfinite(values)), (method, name)


def test_overflowed_state_leaves_the_outputs_it_does_not_enter(params, sens_t1f):
    # the exact one-step map of this loop overflows, so the first state is
    # nan; a zero weight of C or D adds nothing, where 0 * nan
    # would turn the inputs and the pitch of zero PI and platform gains
    # into nan too
    specs = [DisturbanceSpec(kind="step-beta", amplitude=0.01),
             DisturbanceSpec(kind="step-wind", amplitude=1.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ts = simulate(close_loop(build_open_loop(params, sens_t1f),
                                 ControlGains(ktaug=1e40)),
                      specs, dt=0.05, t_end=10.0, method="exact")
    assert ts.diverged_at == 0.05 and len(ts) == 2
    last = {name: values[-1] for name, values in ts.channels.items()}
    assert (last["beta"], last["v"], last["w"]) == (0.01, 1.0, 0.0)
    for name in ("theta", "omega", "phi", "phidot", "v_rel", "tower_moment"):
        assert math.isnan(last[name]), name


def test_simulate_method_validation(closed_t1f):
    ss = closed_t1f
    with pytest.raises(ParameterError):
        simulate(ss, [], dt=0.05, t_end=1.0, method="euler")
    with pytest.raises(ParameterError):
        simulate(ss, [], dt=-0.1, t_end=1.0)


def test_tower_moment_definition(closed_t1f, params, sens_t1f):
    ss = closed_t1f
    specs = [DisturbanceSpec(kind="step-wind", amplitude=1.0)]
    ts = simulate(ss, specs, dt=0.05, t_end=10.0)
    c = ts.channels
    expected = (params.ht * (sens_t1f.dfa_dv * c["v_rel"]
                             + sens_t1f.dfa_domega * c["omega"]
                             + sens_t1f.dfa_dbeta * c["beta"])
                + params.kt * c["phi"])
    np.testing.assert_allclose(c["tower_moment"], expected, rtol=1e-12)


def test_tower_moment_is_the_platform_row_of_the_dynamics(params):
    """On every packaged set under every strategy, the tower moment of
    the closed loop's C and D is the thrust moment the platform-pitch row of A x + B u
    carries: jt phi'' + dt phidot + kt phi - dtw_dw w = ht F_a - kt phi."""
    sets = sorted(p.stem for p in (_data_dir() / "sensitivities").glob("*.ini"))
    assert len(sets) == 5
    dt, t_end = 0.05, 100.0
    specs = [DisturbanceSpec(kind="jonswap-wave", hs=1.5, period=8.0,
                             gamma=3.3, seed=3),
             DisturbanceSpec(kind="step-wind", amplitude=1.0, onset=10.0),
             DisturbanceSpec(kind="step-beta", amplitude=0.01, onset=20.0)]
    for name in sets:
        sens = load_sensitivities(name)[0]
        for kind, zeta in (("none", None), ("reference", None),
                           ("zeta-fixed", 0.10), ("zeta-fixed", 0.25)):
            gains = synthesize(params, sens, RotorTarget(0.6, 0.01),
                               strategy=kind, zeta_plt=zeta)
            ss = close_loop(build_open_loop(params, sens), gains)
            ts = simulate(ss, specs, dt=dt, t_end=t_end)
            c = ts.channels
            x = np.column_stack([c[n] for n in ("theta", "omega", "phi", "phidot")])
            u = build_inputs(specs, dt, t_end)(ts.time)
            accel = (x @ ss.closed.T + u @ ss.b_full().T)[:, 3]
            want = (params.jt * accel + params.dt * c["phidot"]
                    + 2.0 * params.kt * c["phi"] - sens.dtw_dw * c["w"])
            peak = np.max(np.abs(c["tower_moment"]))
            assert np.max(np.abs(c["tower_moment"] - want)) <= 1e-9 * peak, (name, kind)


# --- matrix exponential ------------------------------------------------

def test_expm_matches_scipy_on_the_zero_order_hold_matrices(params):
    """The augmented matrices of the exact method, [[A, B], [0, 0]] * dt,
    for every packaged sensitivity set, four strategies and dt from 0.01
    to 10 s; each column within 1e-13 of its largest entry.  The runtime
    needs numpy only, so without scipy this test is skipped."""
    expm = pytest.importorskip("scipy.linalg").expm
    sets = sorted(p.stem for p in (_data_dir() / "sensitivities").glob("*.ini"))
    assert len(sets) == 5
    worst = 0.0
    for name in sets:
        sens = load_sensitivities(name)[0]
        for kind, zeta in (("none", None), ("reference", None),
                           ("zeta-fixed", 0.10), ("zeta-fixed", 0.25)):
            gains = synthesize(params, sens, RotorTarget(0.6, 0.01),
                               strategy=kind, zeta_plt=zeta)
            ss = close_loop(build_open_loop(params, sens), gains)
            aug = np.block([[ss.closed, ss.b_full()], [np.zeros((4, 8))]])
            for dt in (0.01, 0.05, 0.2, 1.0, 10.0):
                ref = expm(aug * dt)
                err = np.abs(_expm(aug * dt) - ref) / np.abs(ref).max(axis=0)
                worst = max(worst, err.max())
    assert worst <= 1e-13


def test_expm_closed_forms():
    for n in (1, 4, 8):
        assert np.array_equal(_expm(np.zeros((n, n))), np.eye(n))
    d = np.array([-30.0, -1.0, 0.0, 1e-3, 2.0, 10.0])
    np.testing.assert_allclose(_expm(np.diag(d)), np.diag(np.exp(d)),
                               rtol=1e-13, atol=0.0)
    # nilpotent: exp(N) = I + N, exactly through every squaring
    for c in (3.7, -1e-200, 1e300):
        assert np.array_equal(_expm(np.array([[0.0, c], [0.0, 0.0]])),
                              np.array([[1.0, c], [0.0, 1.0]]))


@pytest.mark.parametrize("a", [
    pytest.param(np.diag([1.0, math.inf, 1.0]), id="inf"),
    pytest.param(np.array([[0.0, -math.inf], [0.0, 0.0]]), id="-inf"),
    pytest.param(np.array([[1.0, 0.0], [math.nan, 1.0]]), id="nan"),
    # finite entries whose exponential overflows
    pytest.param(np.full((4, 4), 1e300), id="overflow"),
])
def test_expm_non_finite_or_overflowing_gives_nan(a):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(_expm(a)).all()


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
