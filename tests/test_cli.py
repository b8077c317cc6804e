import contextlib
import csv
import importlib.util
import io
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fowtctl
from fowtctl import cli
from fowtctl.cli import _resolve_gains, main
from fowtctl.config import _data_dir, load_run_config
from fowtctl.model import CHANNELS, build_open_loop, close_loop
from fowtctl.sim import TimeSeries
from fowtctl.stability import loop_stable, numerator_omega, numerator_phi

from hurwitz import hurwitz_stable

BASE = """
[structure]
use = umaine-iea15

[sensitivities]
use = table1-false

[rotor]
zeta = 0.6
nu = 0.01

[strategy]
kind = zeta-fixed
zeta = 0.10
"""

SIM = BASE + """
[run]
seed = 42

[simulation]
dt = 0.05
duration = 60

[disturbance.wave]
kind = jonswap-wave
hs = 1.5
period = 11
gamma = 2
"""


def _cfg(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _read_rows(path):
    with open(path) as fh:
        return [r for r in csv.reader(fh) if r and not r[0].startswith("#")]


def test_tune_writes_importable_gains(tmp_path, capsys):
    cfg = _cfg(tmp_path, BASE)
    assert main(["tune", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    exported = (tmp_path / "o" / "gains.ini").read_text()
    gains = load_run_config(
        _cfg(tmp_path, BASE + exported, "with-gains.ini")).gains_override
    assert gains.kp == pytest.approx(-0.359736733973185, rel=1e-12)
    assert gains.ki == pytest.approx(2.0742012684134593e-4, rel=1e-12)
    assert gains.kbeta == pytest.approx(2.089164091413599, rel=1e-12)
    out = capsys.readouterr().out
    assert "zeta=0.6" in out or "zeta=0.600000" in out


def test_tune_header_names_zeta_plt_only_for_zeta_fixed(tmp_path):
    # a zeta beside any other kind is refused; [gains] replaces the
    # synthesis, so the header names no strategy beside it
    reference = BASE.replace("kind = zeta-fixed\nzeta = 0.10", "kind = reference")
    override = BASE.replace("zeta = 0.10", "zeta = 0.25") + "\n[gains]\nkbeta = 0\n"
    for kind, text, want in (("zeta-fixed", BASE, "strategy=zeta-fixed zeta_plt=0.1\n"),
                             ("reference", reference, "strategy=reference\n"),
                             ("override", override, "gains=[gains]\n")):
        cfg = _cfg(tmp_path, text)
        assert main(["tune", "--config", cfg, "--out", str(tmp_path / kind)]) == 0
        assert f"# {want}" in (tmp_path / kind / "gains.ini").read_text()


def test_analyze_reports_conditions(tmp_path, capsys):
    # table1-false: neither NMPZ condition holds; table3-both: both hold
    for sens, expected in (("table1-false", "false"), ("table3-both", "true")):
        cfg = _cfg(tmp_path, BASE.replace("table1-false", sens), f"{sens}.ini")
        out = tmp_path / sens
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
        assert not (out / "analysis.txt").exists()
        rows = dict((r[0], r[1]) for r in _read_rows(out / "analysis.csv")[1:])
        assert rows["nmpz_phi_condition"] == expected
        assert rows["nmpz_omega_condition"] == expected
        assert rows["stable"] == "true"
        # the damped band, then the reduced forms, close the table
        assert list(rows)[-6:] == ["damped_band_lo [rad/s]", "damped_band_hi [rad/s]",
                                   "rotor_nu [rad/s]", "rotor_zeta [-]",
                                   "platform_nu [rad/s]", "platform_zeta [-]"]
        # the printed zeros are those of the numerator coefficient arrays,
        # and a channel has an RHP zero exactly when its condition holds
        run = load_run_config(cfg)
        ktaug = _resolve_gains(run).ktaug
        for name, coeffs, n_rhp in (
                ("phi", numerator_phi(run.params, run.sens), 1),
                ("omega", numerator_omega(run.params, run.sens, ktaug), 2)):
            printed = [v for k, v in rows.items()
                       if k.startswith(f"numerator_{name}_root_")]
            assert printed == [f"{r:.12g}"
                               for r in np.sort_complex(np.roots(coeffs))]
            assert len(printed) == len(coeffs) - 1
            roots = np.array([complex(v) for v in printed])
            nonzero = roots[roots != 0.0]
            assert np.sum(nonzero.real > 0.0) == (n_rhp if expected == "true" else 0)


def test_analysis_rows_keep_their_order(tmp_path):
    # a new report row goes at the end, so every earlier row keeps its line
    cfg = _cfg(tmp_path, BASE.replace("table1-false", "table3-both")
               + "m_taug = 0.5\n")
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert [r[0] for r in _read_rows(tmp_path / "analysis.csv")[1:]] == [
        "nmpz_phi_condition", "nmpz_omega_condition",
        "numerator_phi_root_0", "numerator_phi_root_1",
        "numerator_omega_root_0", "numerator_omega_root_1",
        "numerator_omega_root_2",
        "eigenvalue_0", "eigenvalue_1", "eigenvalue_2", "eigenvalue_3",
        "mode_0_nu [rad/s]", "mode_0_zeta [-]",
        "mode_1_nu [rad/s]", "mode_1_zeta [-]",
        "stable",
        "damped_band_lo [rad/s]", "damped_band_hi [rad/s]",
        "rotor_nu [rad/s]", "rotor_zeta [-]",
        "platform_nu [rad/s]", "platform_zeta [-]"]


def test_simulate_output_round_trips(tmp_path):
    cfg = _cfg(tmp_path, SIM)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    ts = TimeSeries.from_csv(tmp_path / "o" / "timeseries.csv", "tower_moment")
    assert ts.dt == pytest.approx(0.05)
    assert len(ts) == 1201
    assert ts.units == {"tower_moment": "N*m"}
    # header carries the provenance lines
    head = (tmp_path / "o" / "timeseries.csv").read_text().splitlines()[:4]
    assert head[0].startswith("# fowtctl")
    assert "config_hash=" in head[1]
    assert "seed=42" in head[3]


def test_timeseries_columns_follow_the_channel_table(tmp_path):
    cfg = _cfg(tmp_path, SIM)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    head = _read_rows(tmp_path / "o" / "timeseries.csv")[0]
    assert head == ["t [s]"] + [f"{name} [{unit}]" for name, unit in CHANNELS.items()]


def test_seed_flag_overrides_config(tmp_path):
    cfg = _cfg(tmp_path, SIM)
    main(["simulate", "--config", cfg, "--out", str(tmp_path / "a")])
    main(["simulate", "--config", cfg, "--out", str(tmp_path / "b"),
          "--seed", "43"])
    a = TimeSeries.from_csv(tmp_path / "a" / "timeseries.csv", "w")
    b = TimeSeries.from_csv(tmp_path / "b" / "timeseries.csv", "w")
    assert not np.array_equal(a.channels["w"], b.channels["w"])


def test_seed_flag_keeps_an_explicit_disturbance_seed(tmp_path):
    """--seed replaces the run seed and the seeds that inherit it, not a
    disturbance seed set explicitly to the same value."""
    sea = ("\n[disturbance.sea]\nkind = jonswap-wave\nhs = 1\nperiod = 11\n"
           "\n[disturbance.swell]\nkind = jonswap-wave\nhs = 0.5\nperiod = 25\n"
           "seed = 7\n")
    flagged = _cfg(tmp_path, BASE + "[run]\nseed = 7\n" + sea, "flagged.ini")
    written = _cfg(tmp_path, BASE + "[run]\nseed = 9\n" + sea, "written.ini")
    main(["simulate", "--config", flagged, "--out", str(tmp_path / "a"),
          "--seed", "9"])
    main(["simulate", "--config", written, "--out", str(tmp_path / "b")])
    a, b = ((tmp_path / d / "timeseries.csv").read_text().splitlines()
            for d in "ab")
    # only the config hash differs
    assert [x for x, y in zip(a, b) if x != y] == [a[1]]
    assert len(a) == len(b)


SEA = """
[simulation]
dt = 0.05
duration = 120

[disturbance.sea]
kind = jonswap-wave
hs = 1.5
period = 11
"""

# two speeds on one sensitivity set and one strategy: the two cases
# differ only in their waves
TWO_CASES = "\n[campaign]\nwind_speeds = 12, 16\nstrategies = none\n"


def _case_statistics(path):
    """The cells after the case's name, speed and strategy (gains, flags,
    statistics and fatigue), one tuple per campaign.csv row."""
    return [tuple(r[3:]) for r in _read_rows(path)[1:]]


def test_sections_that_inherit_the_run_seed_draw_different_waves(tmp_path):
    second = "\n[disturbance.swell]\nkind = jonswap-wave\nhs = 1.5\nperiod = 11\n"
    one = _cfg(tmp_path, BASE + "[run]\nseed = 7\n" + SEA, "one.ini")
    two = _cfg(tmp_path, BASE + "[run]\nseed = 7\n" + SEA + second, "two.ini")
    assert [d.seed for d in load_run_config(two).disturbances] == [7, 7]
    for cfg, out in ((one, "a"), (two, "b")):
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / out)]) == 0
    w_one, w_two = (TimeSeries.from_csv(tmp_path / d / "timeseries.csv", "w")
                    .channels["w"] for d in "ab")
    # the same phases in both sections would give twice the first wave
    assert not np.allclose(w_two, 2.0 * w_one)


def test_campaigns_of_neighbouring_seeds_share_no_case_wave(tmp_path):
    cfg = _cfg(tmp_path, BASE + "[run]\nseed = 7\n" + SEA + TWO_CASES)
    for seed in ("7", "8"):
        assert main(["campaign", "--config", cfg, "--out", str(tmp_path / seed),
                     "--seed", seed]) == 0
    seven, eight = (_case_statistics(tmp_path / d / "campaign.csv") for d in "78")
    assert len(set(seven + eight)) == 4


def test_campaign_keeps_an_explicit_section_seed_in_every_case(tmp_path):
    cfg = _cfg(tmp_path, BASE + "[run]\nseed = 7\n" + SEA + "seed = 3\n"
               + TWO_CASES)
    for seed in ("7", "9"):
        assert main(["campaign", "--config", cfg, "--out", str(tmp_path / seed),
                     "--seed", seed]) == 0
    seven, nine = (_case_statistics(tmp_path / d / "campaign.csv") for d in "79")
    # the run seed reaches no case's wave, and each case has its own
    assert seven == nine
    assert seven[0] != seven[1]


def test_bode_outputs_three_sweeps(tmp_path):
    cfg = _cfg(tmp_path, BASE)
    assert main(["bode", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    for name in ("bode_phi_from_w.csv", "bode_phi_from_v.csv",
                 "bode_omega_from_v.csv"):
        rows = _read_rows(tmp_path / "o" / name)
        assert rows[0] == ["nu [rad/s]", "magnitude [dB]", "phase [deg]"]
        assert len(rows) == 401


def test_bode_of_an_identically_zero_response_writes_minus_inf_db(tmp_path):
    # dtw_dw = 0: the wave reaches no platform moment, so phi<-w is 0 at
    # every frequency, -inf dB; its phase and the other two sweeps are finite
    cfg = _cfg(tmp_path, BASE.replace(
        "[sensitivities]\nuse = table1-false\n",
        (_data_dir() / "sensitivities" / "table1-false.ini").read_text()
        .replace("dtw_dw = 5.0e5", "dtw_dw = 0")))
    assert _main_without_runtime_warnings(
        ["bode", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    rows = _read_rows(tmp_path / "o" / "bode_phi_from_w.csv")[1:]
    assert len(rows) == 400
    assert {mag for _, mag, _ in rows} == {"-inf"}
    assert all(math.isfinite(float(phase)) for _, _, phase in rows)
    for name in ("phi_from_v", "omega_from_v"):
        rows = _read_rows(tmp_path / "o" / f"bode_{name}.csv")[1:]
        assert len(rows) == 400
        assert all(math.isfinite(float(cell)) for row in rows for cell in row)


def test_fatigue_subcommand(tmp_path, capsys):
    cfg = _cfg(tmp_path, SIM)
    main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert main(["fatigue", "--config", cfg, "--out", str(tmp_path / "o"),
                 str(tmp_path / "o" / "timeseries.csv")]) == 0
    rows = _read_rows(tmp_path / "o" / "fatigue_summary.csv")
    summary = dict((r[0], r[1]) for r in rows[1:])
    assert summary["channel"] == "tower_moment"
    assert float(summary["damage [-]"]) >= 0.0
    cyc = _read_rows(tmp_path / "o" / "cycles.csv")
    assert cyc[0] == ["range [N*m]", "mean [N*m]", "count [-]"]
    assert all(r[2] in ("0.5", "1") for r in cyc[1:])


def test_fatigue_unknown_channel_errors(tmp_path, capsys):
    cfg = _cfg(tmp_path, SIM)
    main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
    rc = main(["fatigue", "--config", cfg, "--out", str(tmp_path / "o"),
               str(tmp_path / "o" / "timeseries.csv"), "--channel", "bogus"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_campaign_rows_sorted_and_complete(tmp_path):
    cfg = _cfg(tmp_path, SIM + """
[campaign]
wind_speeds = 22, 11
strategies = zeta-fixed:0.10, none
""")
    assert main(["campaign", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--jobs", "1"]) == 0
    rows = _read_rows(tmp_path / "o" / "campaign.csv")
    assert len(rows) == 5  # header + 4 cases
    speeds = [float(r[1]) for r in rows[1:]]
    assert speeds == sorted(speeds)
    strategies = [r[2] for r in rows[1:]]
    assert strategies == ["none", "zeta-fixed:0.1", "none", "zeta-fixed:0.1"]


def test_campaign_parallel_equals_serial(tmp_path):
    cfg = _cfg(tmp_path, SIM + """
[campaign]
wind_speeds = 11, 22
strategies = none, reference
""")
    main(["campaign", "--config", cfg, "--out", str(tmp_path / "a"),
          "--jobs", "1"])
    main(["campaign", "--config", cfg, "--out", str(tmp_path / "b"),
          "--jobs", "2"])
    assert (tmp_path / "a" / "campaign.csv").read_bytes() == \
        (tmp_path / "b" / "campaign.csv").read_bytes()


@pytest.mark.parametrize("sens", ["table1-false", "table1-true", "table2-false",
                                  "table2-true", "table3-both"])
def test_campaign_statistics_equal_the_per_channel_reductions(tmp_path,
                                                              monkeypatch, sens):
    """Each case's min, mean, max and std, bit for bit as numpy gives
    them for the channel alone, over the series past the transient."""
    windows, rows = [], []
    window, case = TimeSeries.window, cli._campaign_case

    def keep_window(ts, t_start):
        windows.append(window(ts, t_start))
        return windows[-1]

    def keep_row(*args):
        rows.append(case(*args))
        return rows[-1]

    monkeypatch.setattr(TimeSeries, "window", keep_window)
    monkeypatch.setattr(cli, "_campaign_case", keep_row)
    cfg = _cfg(tmp_path, SIM.replace("use = table1-false", f"use = {sens}")
               .replace("duration = 60", "duration = 60\ntransient = 20.02")
               + "\n[campaign]\nwind_speeds = 12, 18\n"
               "strategies = none, zeta-fixed:0.10\n")
    assert main(["campaign", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert len(rows) == len(windows) == 4
    for row, post in zip(rows, windows):
        assert post.t0 == pytest.approx(20.05) and len(post) == 800
        want = []
        for name in cli.STAT_CHANNELS:
            ch = post.channels[name]
            want += [float(np.min(ch)), float(np.mean(ch)),
                     float(np.max(ch)), float(np.std(ch))]
        assert row[9:9 + len(want)] == tuple(want)


def test_campaign_without_grid_errors(tmp_path, capsys):
    cfg = _cfg(tmp_path, SIM)
    assert main(["campaign", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 2
    assert "campaign" in capsys.readouterr().err


def test_config_error_is_reported_not_raised(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[structure]\nuse = nowhere\n[sensitivities]\nuse = table1-false\n")
    assert main(["tune", "--config", str(path)]) == 2
    assert "not found" in capsys.readouterr().err


MINIMAL = """
[structure]
use = umaine-iea15

[sensitivities]
use = table1-false
"""

# keys other than the malformed one that its section needs to reach it
_SECTION_CONTEXT = {"strategy": {"kind": "zeta-fixed", "zeta": "0.10"},
                    "disturbance.d": {"kind": "step-wind"},
                    "disturbance.sea": {"kind": "jonswap-wave"}}


@pytest.mark.parametrize("section,key,value", [
    ("run", "seed", "4.5"),
    *[("rotor", k, "x") for k in ("zeta", "nu")],
    *[("rotor", k, v) for k in ("zeta", "nu") for v in ("nan", "inf", "0", "-1")],
    *[("strategy", "m_taug", v) for v in ("nan", "-0.1", "1.5")],
    *[("strategy", k, "x") for k in ("zeta", "m_taug")],
    *[("strategy", "zeta", v) for v in ("nan", "inf", "0", "-1")],
    *[("gains", k, "x") for k in ("kp", "ki", "kbeta", "ktaug")],
    *[("simulation", k, "abc") for k in ("dt", "duration", "transient")],
    *[("simulation", "transient", v) for v in ("nan", "inf", "-5")],
    *[("disturbance.d", k, "x")
      for k in ("seed", "amplitude", "period", "onset", "hs", "gamma")],
    *[("disturbance.d", k, v)
      for k in ("amplitude", "period", "onset", "hs", "gamma")
      for v in ("nan", "inf", "-inf")],
    *[("disturbance.sea", k, v) for k in ("period", "gamma") for v in ("0", "-1")],
    ("disturbance.sea", "hs", "-1"),
    ("disturbance.d", "onset", "-1"),
    *[("fatigue", k, "x")
      for k in ("m1", "m2", "knee", "stress_knee", "section_modulus",
                "n_ref", "lifetime_scale", "hysteresis_frac")],
    ("campaign", "wind_speeds", "12, x"),
    *[("fatigue", k, v)
      for k in ("m1", "m2", "knee", "stress_knee", "section_modulus", "n_ref")
      for v in ("nan", "inf", "0", "-1")],
    *[("fatigue", "lifetime_scale", v) for v in ("nan", "inf", "-1")],
    *[("fatigue", "hysteresis_frac", v) for v in ("nan", "inf", "1", "-0.5")],
    *[("campaign", "wind_speeds", v)
      for v in ("nan", "12, inf", "0", "-3", "12, 12", "12, 12.0")],
    ("campaign", "strategies", "none, zeta-fixed:abc"),
    *[("campaign", "strategies", v)
      for v in ("none, none", "zeta-fixed:0.1, zeta-fixed:0.10",
                "zeta-fixed:nan", "zeta-fixed:inf", "zeta-fixed:0",
                "zeta-fixed:-1", "bogus", "zeta-fixedfoo:0.1")],
    ("campaign", "sens.abc", "table1-true"),
    ("simulation", "method", "bogus"),
    ("fatigue", "curve", "bogus"),
])
def test_malformed_number_is_reported_not_raised(tmp_path, capsys,
                                                 section, key, value):
    body = {**_SECTION_CONTEXT.get(section, {}), key: value}
    cfg = _cfg(tmp_path, MINIMAL + f"\n[{section}]\n"
               + "".join(f"{k} = {v}\n" for k, v in body.items()))
    assert main(["tune", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"'{key}'" in err and f"[{section}]" in err


@pytest.mark.parametrize("kind,zeta,msg", [
    pytest.param("reference", "0.25", "must be absent with kind = reference",
                 id="reference"),
    pytest.param("none", "0.1", "must be absent with kind = none", id="none"),
    pytest.param("zeta-fixed", None, "must be finite and > 0 with kind = zeta-fixed",
                 id="zeta-fixed-without-zeta"),
])
def test_strategy_zeta_follows_the_campaign_strategies_rule(tmp_path, capsys,
                                                            kind, zeta, msg):
    # [strategy] refuses the kind and zeta that a [campaign] strategies
    # entry refuses; kind = reference with zeta = 0.25 used to run
    entry = kind if zeta is None else f"{kind}:{zeta}"
    strategy = f"[strategy]\nkind = {kind}\n" + (f"zeta = {zeta}\n" if zeta else "")
    campaign = f"[campaign]\nwind_speeds = 12\nstrategies = {entry}\n"
    for section, want in ((strategy, f"'zeta' in [strategy] {msg}"),
                          (campaign, "'strategies' in [campaign]")):
        cfg = _cfg(tmp_path, MINIMAL + "\n" + section)
        assert main(["tune", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and want in err, err


_SIM_SHORT = MINIMAL + """
[simulation]
dt = 0.05
duration = 5
"""


@pytest.mark.parametrize("text,extra", [
    pytest.param(MINIMAL + "\n[structure]\nuse = umaine-iea15\n", [],
                 id="duplicate-section"),
    pytest.param(MINIMAL + "use = table1-true\n", [], id="duplicate-option"),
    pytest.param("use = umaine-iea15\n" + MINIMAL, [], id="no-section-header"),
    *[pytest.param(MINIMAL + f"\n[simulation]\n{key} = {value}\n", [],
                   id=f"{key}={value}")
      for key in ("dt", "duration") for value in ("nan", "inf", "-inf", "0", "-1")],
    pytest.param(None, [], id="missing-config"),
    pytest.param(_SIM_SHORT + "\n[disturbance.w]\nkind = wind-file\n"
                 "path = {missing}\n", [], id="missing-wind-file"),
    pytest.param(MINIMAL.replace("umaine-iea15", "broken"),
                 ["--params-dir", "{params}"], id="duplicate-option-in-set"),
    # names no table lists: each of these used to run and exit 0
    pytest.param(MINIMAL + "\n[simulaton]\nduration = 5\n", [],
                 id="misspelled-section"),
    pytest.param(MINIMAL + "\n[simulation]\ndurration = 50\n", [],
                 id="misspelled-key"),
    pytest.param(_SIM_SHORT + "\n[disturbance.d]\nkind = step-wind\n"
                 "amplitud = 1\n", [], id="misspelled-disturbance-key"),
    pytest.param("[DEFAULT]\ndt = 0.1\n" + _SIM_SHORT, [], id="default-section"),
    pytest.param(MINIMAL.replace("use = umaine-iea15",
                                 "use = umaine-iea15\nkt = 2e10"), [],
                 id="use-beside-a-value"),
    pytest.param(MINIMAL.replace(
        "[sensitivities]\nuse = table1-false\n",
        (_data_dir() / "sensitivities" / "table1-false.ini").read_text()
        .replace("units = kN", "unit = kN")), [], id="inline-unit"),
    pytest.param(MINIMAL.replace("umaine-iea15", "typo"),
                 ["--params-dir", "{params}"], id="misspelled-key-in-set"),
    pytest.param(_SIM_SHORT + "\n[disturbancex]\nkind = step-wind\n"
                 "amplitude = 1\n", [], id="disturbance-without-dot"),
    pytest.param(MINIMAL.replace("umaine-iea15", "extra"),
                 ["--params-dir", "{params}"], id="extra-section-in-set"),
    # a key the disturbance kind does not read: each of these ran a zero
    # or unchanged input and exited 0
    pytest.param(_SIM_SHORT + "\n[disturbance.sea]\nkind = mono-wave\n"
                 "amplitude = 1\nperiod = 11\nhs = 1.5\n", [], id="mono-wave-hs"),
    pytest.param(_SIM_SHORT + "\n[run]\nseed = 7\n[disturbance.sea]\n"
                 "kind = jonswap-wave\namplitude = 2\nperiod = 11\n", [],
                 id="jonswap-wave-amplitude"),
    pytest.param(_SIM_SHORT + "\n[disturbance.d]\nkind = step-wind\n"
                 "amplitude = 1\nperiod = 11\n", [], id="step-wind-period"),
    pytest.param(MINIMAL.replace("umaine-iea15", "chain"),
                 ["--params-dir", "{params}"], id="use-in-set"),
    pytest.param(_SIM_SHORT + "\n[disturbance.x]\namplitude = 1\n", [],
                 id="disturbance-without-kind"),
])
def test_malformed_input_ends_as_error(tmp_path, capsys, text, extra):
    broken = tmp_path / "params" / "structure" / "broken.ini"
    broken.parent.mkdir(parents=True)
    broken.write_text("[structure]\nng = 1\nng = 2\n")
    (broken.parent / "typo.ini").write_text(
        (_data_dir() / "structure" / "umaine-iea15.ini").read_text() + "htt = 3\n")
    (broken.parent / "extra.ini").write_text(
        (_data_dir() / "structure" / "umaine-iea15.ini").read_text()
        + "[structur]\nkt = 2e10\n")
    (broken.parent / "chain.ini").write_text("[structure]\nuse = umaine-iea15\n")
    fill = {"missing": tmp_path / "no-such-wind.csv", "params": tmp_path / "params"}
    cfg = (str(tmp_path / "no-such.ini") if text is None
           else _cfg(tmp_path, text.format(**fill)))
    argv = ["simulate", "--config", cfg, "--out", str(tmp_path / "o")]
    assert main(argv + [a.format(**fill) for a in extra]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_campaign_sens_override_searches_params_dir(tmp_path):
    custom = tmp_path / "params" / "sensitivities" / "custom.ini"
    custom.parent.mkdir(parents=True)
    custom.write_bytes(
        (_data_dir() / "sensitivities" / "table2-true.ini").read_bytes())
    grid = """
[campaign]
wind_speeds = 11, 22
strategies = none
sens.22 = {}
"""
    rows = {}
    for name in ("custom", "table2-true"):
        cfg = _cfg(tmp_path, SIM + grid.format(name), name=f"{name}.ini")
        assert main(["campaign", "--config", cfg, "--out", str(tmp_path / name),
                     "--params-dir", str(tmp_path / "params")]) == 0
        rows[name] = _read_rows(tmp_path / name / "campaign.csv")
    assert rows["custom"] == rows["table2-true"]


def _counting(monkeypatch, name, everywhere=False):
    """Replace cli.<name> with a wrapper, and with `everywhere` every
    other fowtctl module's binding of the same function too; returns the
    list of the positional arguments of every call."""
    calls, fn = [], getattr(cli, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    modules = [m for key, m in sys.modules.items()
               if key.split(".")[0] == "fowtctl" and getattr(m, name, None) is fn]
    for module in modules if everywhere else [cli]:
        monkeypatch.setattr(module, name, wrapper)
    return calls


def test_campaign_loads_each_set_once(tmp_path, monkeypatch):
    calls = _counting(monkeypatch, "load_sensitivities")
    cfg = _cfg(tmp_path, SIM + """
[campaign]
wind_speeds = 12, 16, 20
strategies = none, reference
sens.20 = table2-false
sens.16 = table1-true
sens.12 = table1-true
""")
    assert main(["campaign", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    # config order, one call per set
    assert [args[0] for args in calls] == ["table2-false", "table1-true"]
    assert len(_read_rows(tmp_path / "o" / "campaign.csv")) == 1 + 6


def test_campaign_closes_each_loop_once(tmp_path, monkeypatch):
    # the loop simulate integrates is the one loop_stable reads
    calls = _counting(monkeypatch, "close_loop", everywhere=True)
    cfg = _cfg(tmp_path, SIM + """
[campaign]
wind_speeds = 12, 16
strategies = none, reference, zeta-fixed:0.25
""")
    assert main(["campaign", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == 6
    assert len(_read_rows(tmp_path / "o" / "campaign.csv")) == 1 + 6


def test_campaign_calls_no_linalg_routine(tmp_path, monkeypatch):
    # the verdict is integer arithmetic and the exact method's exponential
    # is products only, so no case pages in LAPACK
    calls = []

    def recording(name, fn):
        def call(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return call

    for name in np.linalg.__all__:
        fn = getattr(np.linalg, name)
        if callable(fn) and not isinstance(fn, type):
            monkeypatch.setattr(np.linalg, name, recording(name, fn))
    cfg = _cfg(tmp_path, SIM.replace("duration = 60", "duration = 60\nmethod = exact")
               + "\n[campaign]\nwind_speeds = 12, 16\n"
               "strategies = none, reference, zeta-fixed:0.25\nsens.16 = table3-both\n")
    assert main(["campaign", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert len(_read_rows(tmp_path / "o" / "campaign.csv")) == 1 + 6
    assert calls == []
    np.linalg.eigvals(np.eye(2))  # the recorder is in place
    assert calls == ["eigvals"]


# eigvals puts the largest real part of this loop's poles at +2.5e-13; an
# 80-digit eigensolve of the same matrix puts it at -2.5e-14
STIFF = """
[structure]
ng = 22300
jr = 3650
jt = 3e8
dt = 3.76e12
kt = 4.92e11
ht = 284000

[sensitivities]
dta_domega = -1.28e8
dta_dv = 77
dta_dbeta = -3.51e8
dfa_domega = -1.12e8
dfa_dv = 27.2
dfa_dbeta = -1.03e7
dtw_dw = 1.34e13

[strategy]
kind = zeta-fixed
zeta = 0.10

[campaign]
wind_speeds = 12
strategies = zeta-fixed:0.10
"""


def test_stiff_loop_gets_the_exact_verdict(tmp_path):
    cfg = _cfg(tmp_path, STIFF)
    for command in ("analyze", "campaign"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    analysis = dict(r[:2] for r in _read_rows(tmp_path / "o" / "analysis.csv")[1:])
    assert analysis["stable"] == "true"
    head, row = _read_rows(tmp_path / "o" / "campaign.csv")
    assert row[head.index("stable")] == "true"
    run = load_run_config(cfg)
    a = close_loop(build_open_loop(run.params, run.sens), _resolve_gains(run)).closed
    assert loop_stable(a) is hurwitz_stable(a) is True


def test_campaign_missing_set_ends_before_any_case(tmp_path, monkeypatch, capsys):
    runs = _counting(monkeypatch, "simulate")
    cfg = _cfg(tmp_path, SIM + """
[campaign]
wind_speeds = 12, 16
strategies = none, reference
sens.16 = no-such-set
""")
    assert main(["campaign", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "no-such-set" in err
    assert runs == []
    assert not (tmp_path / "o" / "campaign.csv").exists()


@pytest.mark.parametrize("keys,key,msg", [
    pytest.param("sens.61 = table2-true", "sens.61", "listed in wind_speeds",
                 id="speed-not-in-grid"),
    pytest.param("sens.16 = table1-true\nsens.16.0 = table2-true", "sens.16.0",
                 "no other sens. key", id="speed-named-twice"),
])
def test_campaign_sens_key_must_name_one_grid_speed(tmp_path, capsys, keys,
                                                   key, msg):
    cfg = _cfg(tmp_path, SIM + f"""
[campaign]
wind_speeds = 12, 16
strategies = none
{keys}
""")
    assert main(["campaign", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"'{key}' in [campaign]" in err
    assert msg in err
    assert not (tmp_path / "o" / "campaign.csv").exists()


@pytest.mark.parametrize("text,msg", [
    pytest.param(None, "cannot read", id="missing"),
    pytest.param("", "needs a header row", id="empty"),
    pytest.param("# fowtctl\nt [s],tower_moment [N*m]\n", "needs a header row",
                 id="header-only"),
    pytest.param("\r\n# fowtctl\r\nt [s],tower_moment [N*m]\r\n# x\r\n\r\n",
                 "needs a header row", id="header-only-crlf"),
    pytest.param("t [s],tower_moment [N*m]\n0.0,1.0\n0.1,abc\n",
                 "non-numeric value 'abc' in data row 2", id="non-numeric"),
    pytest.param("\n# a\r\n\r\nt [s],tower_moment [N*m]\r\n0.0,1.0\r\n"
                 "# b\r\n0.1,abc\r\n", "non-numeric value 'abc' in data row 2",
                 id="non-numeric-after-comments-crlf"),
    pytest.param("t [s],tower_moment [N*m]\n0.0,1.0\n0.1,2_0\n",
                 "non-numeric value '2_0' in data row 2", id="underscore"),
    pytest.param("t [s],tower_moment [N*m]\n0.0,1.0\n0.1,nan\n0.2,3.0\n",
                 "non-finite value in data row 2", id="nan-cell"),
    pytest.param("t [s],tower_moment [N*m]\n0.0,1.0\n0.1,2.0\n0.2,-inf\n",
                 "non-finite value in data row 3", id="inf-cell"),
    pytest.param("\n# a\nt [s],tower_moment [N*m]\n0.0,1.0\n# b\n\n0.1,2.0\n"
                 "0.2,inf\n", "non-finite value in data row 3",
                 id="inf-cell-after-comments"),
    pytest.param("t [s],tower_moment [N*m]\n0.0,1.0\n0.1,2.0,3.0\n",
                 "(3 for 2 columns) in data row 2", id="ragged"),
    pytest.param("# a\r\n\r\nt [s],tower_moment [N*m]\r\n0.0,1.0\r\n# b\r\n"
                 "\r\n0.1,2.0\r\n0.2,2.0,3.0\r\n",
                 "(3 for 2 columns) in data row 3",
                 id="ragged-after-comments-crlf"),
    # a line of spaces is a row of one empty value, as np.loadtxt reads it
    pytest.param("t [s],tower_moment [N*m]\n0.0,1.0\n  \n0.1,2.0\n",
                 "(1 for 2 columns) in data row 2", id="spaces-only"),
])
def test_fatigue_bad_series_file_ends_as_error(tmp_path, capsys, text, msg):
    series = tmp_path / "series.csv"
    if text is not None:
        series.write_bytes(text.encode())
    cfg = _cfg(tmp_path, BASE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # reported as an error, not warned about
        assert main(["fatigue", "--config", cfg, "--out", str(tmp_path / "o"),
                     str(series)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(series) in err and msg in err


def test_fatigue_of_a_series_whose_range_overflows_ends_as_error(tmp_path, capsys):
    series = tmp_path / "series.csv"
    series.write_text("t [s],tower_moment [N*m]\n0.0,1e308\n0.1,-1e308\n"
                      "0.2,1e308\n0.3,-1e308\n")
    cfg = _cfg(tmp_path, BASE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # reported as an error, not warned about
        assert main(["fatigue", "--config", cfg, "--out", str(tmp_path / "o"),
                     str(series)]) == 2
    assert capsys.readouterr().err == ("error: load range overflows: the history "
                                       "spans -1e+308 to 1e+308\n")
    assert not (tmp_path / "o" / "cycles.csv").exists()


def test_fatigue_of_a_series_whose_del_overflows_ends_as_error(tmp_path, capsys):
    # a range of 2e200 is finite, its cube is not
    series = tmp_path / "series.csv"
    series.write_text("t [s],tower_moment [N*m]\n0.0,1e200\n0.1,-1e200\n"
                      "0.2,1e200\n0.3,-1e200\n")
    cfg = _cfg(tmp_path, BASE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # reported as an error, not warned about
        assert main(["fatigue", "--config", cfg, "--out", str(tmp_path / "o"),
                     str(series)]) == 2
    assert capsys.readouterr().err == ("error: the DEL at m=3 overflows: the largest "
                                       "load range is 2e+200\n")
    assert not (tmp_path / "o" / "cycles.csv").exists()
    assert not (tmp_path / "o" / "fatigue_summary.csv").exists()


def test_campaign_whose_damage_overflows_ends_as_error(tmp_path, capsys):
    # every range over a section modulus of 1e-300 is an infinite stress
    cfg = _cfg(tmp_path, BASE + "[simulation]\ndt = 0.05\nduration = 20\n"
               "[disturbance.wind]\nkind = step-wind\namplitude = 1\nonset = 5\n"
               "[fatigue]\nsection_modulus = 1e-300\n"
               "[campaign]\nwind_speeds = 12\nstrategies = none\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["campaign", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(
        "error: the Miner damage overflows: the largest load range is ")
    assert not (tmp_path / "o" / "campaign.csv").exists()


_SERIES_HEAD = "t [s],tower_moment [N*m]"


@pytest.mark.parametrize("text", [
    pytest.param("\n# a\n\n# b\n" + _SERIES_HEAD + "\n0.0,1.0\n0.1,-2.0\n"
                 "0.2,3.0\n0.3,-1.5\n", id="blank-and-comments-before-header"),
    pytest.param(_SERIES_HEAD + "\n0.0,1.0\n# b\n0.1,-2.0\n\n# c\n0.2,3.0\n"
                 "0.3,-1.5\n", id="comments-in-body"),
    pytest.param("# a\r\n\r\n" + _SERIES_HEAD + "\r\n0.0,1.0\r\n# b\r\n"
                 "0.1,-2.0\r\n0.2,3.0\r\n0.3,-1.5\r\n", id="crlf"),
])
def test_fatigue_series_comments_blank_lines_and_crlf(tmp_path, text):
    cfg = _cfg(tmp_path, BASE)
    outs = {}
    for name, body in (("plain", _SERIES_HEAD + "\n0.0,1.0\n0.1,-2.0\n"
                                 "0.2,3.0\n0.3,-1.5\n"), ("edge", text)):
        series = tmp_path / f"{name}.csv"
        series.write_bytes(body.encode())
        assert main(["fatigue", "--config", cfg, "--out", str(tmp_path / name),
                     str(series)]) == 0
        outs[name] = (tmp_path / name / "cycles.csv").read_bytes()
    assert outs["edge"] == outs["plain"]
    # the turning points 1, -2, 3, -1.5 give three half cycles
    assert outs["plain"].endswith(b"count [-]\r\n3,-0.5,0.5\r\n5,0.5,0.5\r\n"
                                  b"4.5,0.75,0.5\r\n")


@pytest.mark.parametrize("column,unit", [
    ("phi [rad]", "rad"), ("phi", "-"), ("tower_moment [N*m]", "N*m"),
    # spaces around the cell, the name and the unit are not part of them
    pytest.param(" tower_moment [N*m] ", "N*m", id="padded"),
    pytest.param("tower_moment  [ N*m ]", "N*m", id="padded-inside")])
def test_fatigue_outputs_carry_the_unit_of_the_series_header(tmp_path, capsys,
                                                            column, unit):
    # they used to read N*m whatever the channel.  The S-N curve reads
    # range / section modulus as a stress, so only a moment gets a Miner
    # damage: one of an angle or a unitless signal would mean nothing
    series = tmp_path / "series.csv"
    series.write_text(f"t [s],{column}\n0.0,1e7\n0.1,-2e7\n0.2,3e7\n")
    cfg = _cfg(tmp_path, BASE)
    assert main(["fatigue", "--config", cfg, "--out", str(tmp_path / "o"),
                 str(series), "--channel",
                 column.partition(" [")[0].strip()]) == 0
    cyc = _read_rows(tmp_path / "o" / "cycles.csv")
    assert cyc[0] == [f"range [{unit}]", f"mean [{unit}]", "count [-]"]
    summary = dict(_read_rows(tmp_path / "o" / "fatigue_summary.csv")[1:])
    moment = unit == "N*m"
    assert list(summary) == ["channel", "n_cycles", f"del_m3 [{unit}]"] + \
        ["damage [-]"] * moment
    assert not moment or float(summary["damage [-]"]) > 0.0
    assert ("damage=" in capsys.readouterr().out) == moment


def test_fatigue_summary_quotes_a_channel_name_with_a_comma(tmp_path):
    series = tmp_path / "series.csv"
    series.write_text('t [s],"load, tower [N*m]"\n0.0,1.0\n0.1,-2.0\n0.2,3.0\n')
    cfg = _cfg(tmp_path, BASE)
    assert main(["fatigue", "--config", cfg, "--out", str(tmp_path / "o"),
                 str(series), "--channel", "load, tower"]) == 0
    data = (tmp_path / "o" / "fatigue_summary.csv").read_bytes()
    assert b'\r\nchannel,"load, tower"\r\n' in data
    rows = _read_rows(tmp_path / "o" / "fatigue_summary.csv")
    assert rows[1] == ["channel", "load, tower"]


def test_fatigue_headers_quote_a_unit_with_a_comma(tmp_path):
    # the unit cells were written bare: 5 header cells over 3-value rows
    series = tmp_path / "series.csv"
    series.write_text('t [s],"tm [N,m]"\n0.0,1.0\n0.1,-2.0\n0.2,3.0\n')
    cfg = _cfg(tmp_path, BASE)
    assert main(["fatigue", "--config", cfg, "--out", str(tmp_path / "o"),
                 str(series), "--channel", "tm"]) == 0
    cyc = _read_rows(tmp_path / "o" / "cycles.csv")
    assert cyc[0] == ["range [N,m]", "mean [N,m]", "count [-]"]
    assert {len(r) for r in cyc} == {3}
    summary = _read_rows(tmp_path / "o" / "fatigue_summary.csv")
    assert {len(r) for r in summary} == {2}
    assert summary[3][0] == "del_m3 [N,m]"


@pytest.mark.parametrize("body,msg", [
    pytest.param("0,10\n# gust\n100,nan\n600,12\n",
                 "non-finite value in data row 2", id="nan"),
    pytest.param("0,10\n300,12\n600,inf\n", "non-finite value in data row 3",
                 id="inf"),
    pytest.param("0,10\n300,14\n200,12\n600,13\n",
                 "t must be strictly increasing (data row 3)", id="unsorted"),
    pytest.param("0,10\n300,14\n300,12\n600,13\n",
                 "t must be strictly increasing (data row 3)", id="repeated-t"),
    pytest.param("", "has no data rows", id="empty"),
    pytest.param("# t, v\n", "has no data rows", id="comment-only"),
    pytest.param("0\n300\n600\n", "has one column; it needs two (t, v)",
                 id="one-column"),
    # rows named as series files name them, not as numpy's message does
    pytest.param("0,10\n# gust\n300,abc\n600,12\n",
                 "non-numeric value 'abc' in data row 2", id="non-numeric"),
    pytest.param("0,10\n300,12,1\n600,12\n",
                 "wrong number of values (3 for 2 columns) in data row 2",
                 id="ragged"),
    pytest.param("0,10,99\n300,12,99\n600,11,99\n",
                 "has 3 columns; it needs two (t, v)", id="three-column"),
])
def test_bad_wind_file_ends_as_error(tmp_path, capsys, body, msg):
    wind = tmp_path / "wind.csv"
    wind.write_text(body)
    cfg = _cfg(tmp_path, BASE + f"""
[simulation]
duration = 600

[disturbance.wind]
kind = wind-file
path = {wind}
""")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # reported as an error, not warned about
        assert main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(wind) in err and msg in err
    assert not (tmp_path / "o" / "timeseries.csv").exists()


def test_one_row_wind_file_is_a_constant_wind(tmp_path):
    wind = tmp_path / "one.csv"
    wind.write_text("0,10\n")
    cfg = _cfg(tmp_path, BASE + f"""
[simulation]
duration = 60

[disturbance.wind]
kind = wind-file
path = {wind}
""")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 0
    ts = TimeSeries.from_csv(tmp_path / "o" / "timeseries.csv", channel="v")
    assert len(ts.channels["v"]) == 1201 and (ts.channels["v"] == 10.0).all()


@pytest.mark.parametrize("gamma,rc", [("-1", 2), ("0", 2), ("0.5", 0)])
def test_jonswap_gamma_must_be_positive(tmp_path, capsys, gamma, rc):
    cfg = _cfg(tmp_path, SIM.replace("gamma = 2", f"gamma = {gamma}"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the short-duration note
        warnings.simplefilter("error", RuntimeWarning)  # refused, not warned about
        assert main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == rc
    err = capsys.readouterr().err
    assert ("'gamma' in [disturbance.wave] must be finite and > 0" in err) == (rc == 2)


@pytest.mark.parametrize("kind,name,body,msg", [
    pytest.param("structure", "umaine-iea15", b"[other]\nng = 1\n",
                 "no [structure]", id="structure-no-section"),
    pytest.param("sensitivities", "table1-false", b"[other]\nng = 1\n",
                 "no [sensitivities]", id="sensitivities-no-section"),
    pytest.param("structure", "umaine-iea15", b"[structure]\nng = \xff\n",
                 "cannot read", id="undecodable"),
])
def test_broken_set_file_ends_as_error(tmp_path, capsys, kind, name, body, msg):
    broken = tmp_path / "params" / kind / "broken.ini"
    broken.parent.mkdir(parents=True)
    broken.write_bytes(body)
    cfg = _cfg(tmp_path, MINIMAL.replace(name, "broken"))
    assert main(["tune", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--params-dir", str(tmp_path / "params")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and msg in err and str(broken) in err


@pytest.mark.parametrize("text,extra", [
    pytest.param(SIM.replace("seed = 42", "seed = -1"), [], id="run-seed"),
    pytest.param(SIM + "seed = -3\n", [], id="disturbance-seed"),
    pytest.param(SIM, ["--seed", "-5"], id="seed-flag"),
])
def test_negative_seed_ends_as_error(tmp_path, capsys, text, extra):
    cfg = _cfg(tmp_path, text)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]
                + extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seed" in err


_BAD = ("nan", "inf", "-1", "0", "abc", "", "1, 1")
# section -> key -> valid values.  A drawn config holds the always-present
# sections and a subset of the others, every key valid, then puts a value
# from _BAD into up to two keys.  [simulation] dt and duration keep a run
# short whether valid or bad.
_FUZZ_SECTIONS = {
    "structure": {"use": ("umaine-iea15",)},
    "sensitivities": {"use": ("table1-false", "table1-true", "table3-both")},
    "simulation": {"dt": ("0.05", "0.5"), "duration": ("2", "20"),
                   "method": ("rk4", "exact"), "transient": ("1",)},
    "rotor": {"zeta": ("0.6",), "nu": ("0.01",)},
    # zeta only beside zeta-fixed is valid, so None leaves it out
    "strategy": {"kind": ("zeta-fixed", "reference", "none"),
                 "zeta": ("0.1", None), "m_taug": ("0.5",)},
    "gains": {"kp": ("-0.36",), "ki": ("2e-4",), "kbeta": ("2.1",),
              "ktaug": ("1e6",)},
    "run": {"seed": ("42",)},
    "disturbance.a": {"kind": ("jonswap-wave",), "hs": ("1.5",),
                      "period": ("11",), "gamma": ("2",), "seed": ("3",)},
    "disturbance.b": {"kind": ("step-wind", "step-beta"), "amplitude": ("1",),
                      "onset": ("1",)},
    "disturbance.c": {"kind": ("mono-wave",), "amplitude": ("1",),
                      "period": ("20",)},
    "fatigue": {"curve": ("single", "bilinear"), "m1": ("3", "4"), "m2": ("5",),
                "knee": ("1e6",), "stress_knee": ("5e7",),
                "section_modulus": ("6.5",), "n_ref": ("600",),
                "lifetime_scale": ("1", "0"), "hysteresis_frac": ("0", "1e-3")},
    "campaign": {"wind_speeds": ("12", "12, 16"),
                 "strategies": ("none", "none, zeta-fixed:0.1", "none, none"),
                 "sens.16": ("table1-true",)},
}
_ALWAYS = ("structure", "sensitivities", "simulation")


@st.composite
def _fuzz_config(draw):
    sections = {section: {key: draw(st.sampled_from(valid))
                          for key, valid in keys.items()}
                for section, keys in _FUZZ_SECTIONS.items()
                if section in _ALWAYS or draw(st.booleans())}
    slots = draw(st.permutations([(section, key) for section, keys in sections.items()
                                  for key in keys]))
    for section, key in slots[:draw(st.integers(0, 2))]:
        sections[section][key] = draw(st.sampled_from(_BAD))
    return "".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()
                                               if v is not None)
                   for section, keys in sections.items())


@st.composite
def _fuzz_series(draw):
    """(text, ok) of a tower_moment series file; ok is False when the file
    has no data row or a bad cell (non-finite, empty, text or ragged)."""
    cells = [repr(v) for v in draw(st.lists(st.floats(-1e6, 1e6), max_size=40))]
    ok = bool(cells)
    for i, bad in draw(st.lists(st.tuples(st.integers(0, 39), st.sampled_from(
            ("nan", "inf", "-inf", "", "abc", "1,2"))), max_size=2)):
        if i < len(cells):
            cells[i] = bad
            ok = False
    rows = "".join(f"{0.1 * k:.6f},{c}\n" for k, c in enumerate(cells))
    return "# series\nt [s],tower_moment [N*m]\n" + rows, ok


def _assert_outputs_sound(out: Path):
    """Every number in every CSV a successful command wrote is finite, and
    campaign case ids are unique."""
    for path in out.glob("*.csv"):
        rows = _read_rows(path)
        for row in rows[1:]:
            for cell in row:
                try:
                    value = float(cell)
                except ValueError:
                    continue
                assert math.isfinite(value), (path.name, row)
        if path.name == "campaign.csv":
            ids = [row[0] for row in rows[1:]]
            assert len(set(ids)) == len(ids), ids


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(command=st.sampled_from(["tune", "analyze", "simulate", "bode",
                                "fatigue", "campaign"]),
       text=_fuzz_config(), series=_fuzz_series())
def test_main_returns_0_or_2_and_never_raises(command, text, series):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.ini"
        cfg.write_text(text)
        series_file = Path(tmp) / "series.csv"
        series_file.write_text(series[0])
        out = Path(tmp) / "out"
        argv = [command, "--config", str(cfg), "--out", str(out)]
        if command == "fatigue":
            argv.append(str(series_file))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc = main(argv)
        assert rc in (0, 2)
        if command == "fatigue" and not series[1]:
            assert rc == 2
        if rc == 0:
            _assert_outputs_sound(out)


def _run_python(script: str, env: dict | None = None):
    """script in a fresh interpreter that imports this fowtctl; env, if
    given, replaces the inherited environment."""
    env = dict(os.environ if env is None else env)
    src = str(Path(fowtctl.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_a_warning_is_one_line_on_stderr(tmp_path):
    # 60 s is short of ten JONSWAP peak periods of 11 s
    argv = ["simulate", "--config", _cfg(tmp_path, SIM), "--out", str(tmp_path / "o")]
    proc = _run_python(f"from fowtctl.cli import main\nassert main({argv!r}) == 0\n")
    assert proc.stderr == ("warning: duration 60.0 s short for spectral "
                           "resolution (< 10*Tp = 110.0 s)\n")


def test_a_valid_config_loads_without_difflib(tmp_path):
    _run_python(f"""
import sys
from fowtctl.cli import load_run_config
load_run_config({_cfg(tmp_path, SIM)!r})
assert "difflib" not in sys.modules
""")


@pytest.mark.parametrize("block", [False, True], ids=["importable", "blocked"])
def test_no_command_loads_scipy(tmp_path, block):
    """`import fowtctl.cli`, all six commands with method = exact and an
    rk4 simulation leave scipy, numpy.polynomial and numpy.random
    unloaded; with scipy made unimportable they all still run.  The
    simulations and the campaign draw JONSWAP waves."""
    rk4 = _cfg(tmp_path, SIM, name="rk4.ini")
    exact = _cfg(tmp_path, SIM.replace("duration = 60",
                                       "duration = 60\nmethod = exact")
                 + "\n[campaign]\nwind_speeds = 12\nstrategies = none, reference\n",
                 name="exact.ini")
    out = str(tmp_path / "o")
    series = str(tmp_path / "o" / "timeseries.csv")
    _run_python(f"""
import sys
if {block!r}:
    sys.modules["scipy"] = None  # any scipy import now raises ImportError
import fowtctl
from fowtctl.cli import main

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy"
                  and sys.modules[m] is not None
                  or m.startswith(("numpy.polynomial", "numpy.random")))

assert not loaded(), ("import", loaded())
assert main({["simulate", "--config", rk4, "--out", out]!r}) == 0
for command in ("tune", "analyze", "simulate", "bode", "campaign"):
    assert main([command, "--config", {exact!r}, "--out", {out!r}]) == 0
    assert not loaded(), (command, loaded())
assert main({["fatigue", "--config", exact, "--out", out, series]!r}) == 0
assert not loaded(), ("fatigue", loaded())
""")


# _sha2 from Python 3.12 on, _sha256 before
@pytest.mark.skipif(not any(importlib.util.find_spec(name)
                            for name in ("_sha2", "_sha256")),
                    reason="interpreter built without _sha2 and _sha256, so "
                           "the config hash falls back to hashlib")
def test_no_command_loads_openssl(tmp_path):
    """`import fowtctl.cli` and all six commands leave hashlib and its
    OpenSSL module `_hashlib` unloaded: the config hash is the
    interpreter's own SHA-256."""
    cfg = _cfg(tmp_path, SIM + "\n[campaign]\nwind_speeds = 12\n"
               "strategies = none, reference\n")
    out = str(tmp_path / "o")
    series = str(tmp_path / "o" / "timeseries.csv")
    _run_python(f"""
import sys
from fowtctl.cli import main

def loaded():
    return sorted(m for m in ("hashlib", "_hashlib") if m in sys.modules)

assert not loaded(), ("import", loaded())
for command in ("tune", "analyze", "simulate", "bode", "campaign"):
    assert main([command, "--config", {cfg!r}, "--out", {out!r}]) == 0
    assert not loaded(), (command, loaded())
assert main({["fatigue", "--config", cfg, "--out", out, series]!r}) == 0
assert not loaded(), ("fatigue", loaded())
""")


def test_config_hash_without_the_builtin_sha256(tmp_path):
    # an interpreter built without _sha2 and _sha256 takes hashlib's
    cfg = _cfg(tmp_path, SIM)
    lines = {}
    for block in (False, True):
        out = str(tmp_path / f"o{block}")
        _run_python(f"""
import sys
if {block!r}:
    sys.modules["_sha2"] = sys.modules["_sha256"] = None
from fowtctl.cli import main
assert main({["simulate", "--config", cfg, "--out", out]!r}) == 0
assert ("hashlib" in sys.modules) == {block!r}
""")
        text = (Path(out) / "timeseries.csv").read_text()
        lines[block] = [line for line in text.splitlines()
                        if line.startswith("# config_hash=")]
    assert lines[True] == lines[False] and len(lines[True]) == 1


# jr = 1e-300 makes the closed loop's state matrix overflow
OVERFLOW = SIM.replace("use = umaine-iea15", """ng = 1.0
jr = 1e-300
jt = 3.0e11
dt = 1.0e8
kt = 1.433e10
ht = 150.0""")


def _main_without_runtime_warnings(argv) -> int:
    """main(argv)'s exit code, checking that it raised no RuntimeWarning:
    outside pytest each one would print a numpy source line on stderr."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv)
    raised = [f"{w.category.__name__}: {w.message}" for w in caught
              if issubclass(w.category, RuntimeWarning)]
    assert not raised, (argv[0], raised)
    return rc


def test_exact_simulation_of_an_overflowing_loop_diverges_at_the_first_step(
        tmp_path, capsys):
    # A and the exponential of A*dt overflow
    cfg = _cfg(tmp_path, OVERFLOW.replace("duration = 60",
                                          "duration = 60\nmethod = exact"))
    assert _main_without_runtime_warnings(
        ["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert "diverged at t=0.05 s" in capsys.readouterr().err
    text = (tmp_path / "o" / "timeseries.csv").read_text()
    assert "# diverged_at=0.05\n" in text
    assert len(_read_rows(tmp_path / "o" / "timeseries.csv")) == 1 + 2


def test_overflowing_loop_ends_as_an_error_naming_the_overflow(tmp_path, capsys):
    # campaign runs each case's rk4 simulation before its modal report,
    # so it also meets the overflowing one-step map and forcing
    cfg = _cfg(tmp_path, OVERFLOW + "\n[campaign]\nwind_speeds = 12\n"
               "strategies = none\n")
    for command in ("analyze", "campaign", "bode", "tune"):
        rc = _main_without_runtime_warnings(
            [command, "--config", cfg, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        *notes, last = err.splitlines()
        # the campaign's 60 s JONSWAP sea may first print its one-line note
        assert rc == 2 and last.startswith("error: ") and "overflow" in last, \
            (command, err)
        assert all(line.startswith("warning: ") for line in notes), (command, err)
        assert "pole on grid" not in err
    # tune refuses the loop before it writes gains.ini
    assert "error: state matrix is not finite: " in last
    assert not (tmp_path / "o" / "gains.ini").exists()


UMAINE = dict(ng="1.0", jr="3.16e8", jt="3.0e11", dt="1.0e8", kt="1.433e10",
              ht="150.0")


def _inline_structure(text, **values):
    """text with the packaged structure inline, values replacing its own."""
    keys = "".join(f"{k} = {v}\n" for k, v in {**UMAINE, **values}.items())
    return text.replace("use = umaine-iea15\n", keys)


@pytest.mark.parametrize("values,message", [
    pytest.param({"ht": "0.0"}, "ht must be > 0 (got 0.0)", id="ht=0"),
    pytest.param({"ht": "1e160"}, "ht*ht overflows double precision (ht = 1e+160)",
                 id="ht=1e160"),
    pytest.param({"ng": "1e200"}, "ng*ng overflows double precision (ng = 1e+200)",
                 id="ng=1e200"),
    pytest.param({"kt": "1e-170", "jt": "1e-170"},
                 "kt*jt underflows double precision (kt = 1e-170, jt = 1e-170)",
                 id="kt=jt=1e-170"),
    pytest.param({"kt": "1e-200", "jt": "1e200"},
                 "kt/jt underflows double precision (kt = 1e-200, jt = 1e+200)",
                 id="kt/jt=1e-400"),
])
@pytest.mark.parametrize("command", ["tune", "analyze", "simulate", "bode",
                                     "campaign", "fatigue"])
def test_structure_without_a_model_ends_as_an_error(tmp_path, capsys, command,
                                                    values, message):
    # every closed form divides by ht and takes ht^2, ng^2, sqrt(kt*jt)
    # and sqrt(kt/jt); each of these structures ended at least one command
    # in a traceback, or ran one command that another refused
    cfg = _cfg(tmp_path, _inline_structure(SIM, **values)
               + "\n[campaign]\nwind_speeds = 12\nstrategies = none\n")
    series = tmp_path / "series.csv"
    series.write_text("t [s],tower_moment [N*m]\n0,1\n0.1,-1\n0.2,1\n")
    argv = [command, "--config", cfg, "--out", str(tmp_path / "o")]
    rc = _main_without_runtime_warnings(
        argv + [str(series)] if command == "fatigue" else argv)
    captured = capsys.readouterr()
    assert (rc, captured.err) == (2, f"error: {message}\n")
    assert not (tmp_path / "o").exists() or not any((tmp_path / "o").iterdir())


@pytest.mark.parametrize("command", ["tune", "analyze", "simulate", "bode",
                                     "campaign"])
def test_subnormal_pitch_sensitivity_ends_as_an_error(tmp_path, capsys, command):
    # dta_dbeta = -1e-320 is nonzero, but ng/jr*dta_dbeta, which both PI
    # gains divide by, is 0 in double precision
    sens = "\n".join(f"{k} = {v}" for k, v in dict(
        dta_domega=-5.85971e7, dta_dv=2.9809e6, dta_dbeta=-1e-320,
        dfa_domega=-5.658e6, dfa_dv=3.548e5, dfa_dbeta=-1.60522e7,
        dtw_dw=5e8).items())
    cfg = _cfg(tmp_path, SIM.replace("use = table1-false", sens)
               + "\n[campaign]\nwind_speeds = 12\nstrategies = none\n")
    rc = _main_without_runtime_warnings(
        [command, "--config", cfg, "--out", str(tmp_path / "o")])
    assert (rc, capsys.readouterr().err) == (
        2, "error: ng/jr*dta_dbeta underflows double precision "
           "(ng = 1.0, jr = 316000000.0, dta_dbeta = -1e-320)\n")
    assert not any((tmp_path / "o").iterdir())


# table1-false with a subnormal dta_dbeta, and [gains] in place of the
# synthesis that refuses it
_SUBNORMAL_TB = """dta_domega = -5.85971e7
dta_dv = 2.9809e6
dta_dbeta = -1e-320
dfa_domega = -5.658e6
dfa_dv = 3.548e5
dfa_dbeta = -1.60522e7
dtw_dw = 5e8
"""
_GAINS = "\n[gains]\nkp = -0.36\nki = 2e-4\nkbeta = 2.1\nktaug = 0\n"


@pytest.mark.parametrize("values,sens,coefficients", [
    # jt/ht*dta_dbeta is subnormal: the roots' quotients overflow
    pytest.param({}, _SUBNORMAL_TB, "-1.9999777343654e-311, 7177500447000000.0, "
                 "-9.55322697784e-313", id="subnormal-leading"),
    # jt*dta_dbeta underflows to 0, which nmpz_omega_condition divided by
    pytest.param(dict(jt="1e-10", kt="1e-10"), _SUBNORMAL_TB,
                 "-0.0, 7177500447000000.0, -0.0", id="zero-leading"),
    # a normal dta_dbeta, but ht*dfa_dbeta*dta_dv overflows the middle one
    pytest.param({}, _SUBNORMAL_TB.replace("-1e-320", "-1.523478e8").replace(
        "3.548e5", "1e300"), "-3.046956e+17, -inf, -1.455429316e+16",
        id="infinite-middle"),
])
@pytest.mark.parametrize("command", ["tune", "analyze"])
def test_numerator_whose_roots_overflow_ends_as_an_error(tmp_path, capsys, command,
                                                         values, sens, coefficients):
    text = _inline_structure(BASE, **values).replace("use = table1-false\n", sens)
    cfg = _cfg(tmp_path, text + _GAINS)
    rc = _main_without_runtime_warnings(
        [command, "--config", cfg, "--out", str(tmp_path / "o")])
    assert (rc, capsys.readouterr().err) == (
        2, "error: the roots of numerator_omega overflow double precision "
           f"(coefficients [{coefficients}, 0.0])\n")
    assert not any((tmp_path / "o").iterdir())


@pytest.mark.parametrize("sens", ["table1-false", "table1-true", "table2-false",
                                  "table2-true", "table3-both"])
def test_tune_writes_the_reduced_rows_analyze_writes(tmp_path, capsys, sens):
    # the synthesized gains of each strategy, and [gains] whose rotor loop
    # has no band-pass form
    degenerate = "\n[gains]\nkp = -0.3\nki = -1e-4\nkbeta = 2.1\nktaug = 0\n"
    for name, text in (("zeta-fixed", BASE),
                       ("reference", BASE.replace("zeta-fixed\nzeta = 0.10",
                                                  "reference")),
                       ("none", BASE.replace("zeta-fixed\nzeta = 0.10", "none")),
                       ("degenerate", BASE + degenerate)):
        cfg = _cfg(tmp_path, text.replace("table1-false", sens), f"{name}.ini")
        out = tmp_path / name
        rcs = [main([command, "--config", cfg, "--out", str(out)])
               for command in ("tune", "analyze")]
        assert rcs == [0, 0], (name, capsys.readouterr().err)
        header = [line[2:] for line in (out / "gains.ini").read_text().splitlines()
                  if line.startswith("# rotor: ") or line.startswith("# platform: ")]
        values = [float(word.split("=")[1]) for line in header
                  for word in line.split() if word.startswith(("nu=", "zeta="))]
        rows = dict(_read_rows(out / "analysis.csv")[1:])
        assert [f"{v:.12g}" for v in values] == [
            rows[k] for k in ("rotor_nu [rad/s]", "rotor_zeta [-]",
                              "platform_nu [rad/s]", "platform_zeta [-]")]
        degenerate_rotor = name == "degenerate"
        assert f"degenerate={degenerate_rotor}" in header[0]
        assert (rows["rotor_nu [rad/s]"] == "nan") is degenerate_rotor


def test_campaign_statistic_overflow_ends_as_an_error(tmp_path, capsys):
    # a stable loop whose tower moment, through ht * dfa_dv * v, steps by
    # about 1.5e158: its square, and so its std, overflows, before the DEL
    # that overflows too
    sens = """dta_domega = -5.85971e7
dta_dv = 2.9809e6
dta_dbeta = -1.523478e8
dfa_domega = -5.658e6
dfa_dv = 1e156
dfa_dbeta = -1.60522e7
dtw_dw = 5e8
"""
    text = _inline_structure(MINIMAL, jt="1e160").replace(
        "use = table1-false\n", sens)
    cfg = _cfg(tmp_path, text + """
[run]
seed = 7
[simulation]
duration = 200
transient = 20
[disturbance.wind]
kind = step-wind
amplitude = 1
onset = 50
[campaign]
wind_speeds = 12
strategies = none
""")
    rc = _main_without_runtime_warnings(
        ["campaign", "--config", cfg, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2 and err == ("error: the std of tower_moment in case ws12_none "
                               "overflows: its largest magnitude is "
                               "1.471875e+158\n"), err
    assert not (tmp_path / "o" / "campaign.csv").exists()


def test_infeasible_step_count_ends_as_an_error(tmp_path, capsys):
    # 6e17 steps: numpy refuses the 4 EiB time grid before allocating it
    cfg = _cfg(tmp_path, SIM.replace("dt = 0.05", "dt = 1e-15")
               .replace("duration = 60", "duration = 600"))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ") and "allocate" in err, err


def test_campaign_runs_in_one_process(tmp_path):
    cfg = _cfg(tmp_path, SIM + """
[campaign]
wind_speeds = 11, 22
strategies = none, reference
""")
    argv = ["campaign", "--config", cfg, "--out", str(tmp_path / "o"),
            "--jobs", "2"]
    _run_python(f"""
import sys
from fowtctl.cli import main

assert main({argv!r}) == 0
pools = [m for m in ("multiprocessing", "concurrent.futures.process")
         if m in sys.modules]
assert not pools, pools
""")


def test_simulate_bytes_do_not_depend_on_blas_threads(tmp_path):
    # 40 000 steps: one product over all blocks at once would be large
    # enough for OpenBLAS to split it over threads.  fowtctl loads numpy
    # with one thread unless the caller names a count, so the other side
    # names two.
    cfg = _cfg(tmp_path, SIM.replace("duration = 60", "duration = 2000")
               + "\n[disturbance.step]\nkind = step-wind\namplitude = 1\n"
               "onset = 100\n")
    default = {k: v for k, v in os.environ.items() if k not in
               ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    for name, env in (("default", default),
                      ("two", {**default, "OPENBLAS_NUM_THREADS": "2"})):
        argv = ["simulate", "--config", cfg, "--out", str(tmp_path / name)]
        _run_python(f"from fowtctl.cli import main\nassert main({argv!r}) == 0\n",
                    env)
    assert (tmp_path / "default" / "timeseries.csv").read_bytes() == \
        (tmp_path / "two" / "timeseries.csv").read_bytes()


# umaine-iea15 and table1-false in SI: the magnitudes the fuzz below scales
_MAGNITUDE_BASE = {
    "structure": dict(ng=1.0, jr=3.16e8, jt=3.0e11, dt=1.0e8, kt=1.433e10,
                      ht=150.0),
    "sensitivities": dict(dta_domega=-5.85971e7, dta_dv=2.9809e6,
                          dta_dbeta=-1.523478e8, dfa_domega=-5.658e6,
                          dfa_dv=3.548e5, dfa_dbeta=-1.60522e7, dtw_dw=5e8),
}
_DISTURBANCE = {
    "jonswap": "kind = jonswap-wave\nhs = 1.5\nperiod = 11\ngamma = 2\n",
    "mono": "kind = mono-wave\namplitude = 1\nperiod = 20\n",
    "step": "kind = step-wind\namplitude = 1\nonset = 1\n",
}


@st.composite
def _magnitude_config(draw):
    """A config whose structure and sensitivities are the base values each
    scaled by 10^U(-s, s), s in [100, 150]: signs stay as they are and ng
    scales up only, so every set is admissible in sign.  The strategy, the
    method and one disturbance are drawn too."""
    s = draw(st.floats(100.0, 150.0))
    text = ""
    for section, values in _MAGNITUDE_BASE.items():
        text += f"[{section}]\n"
        for key, base in values.items():
            u = draw(st.floats(-1.0, 1.0))
            text += f"{key} = {base * 10.0 ** (s * (abs(u) if key == 'ng' else u))!r}\n"
    kind = draw(st.sampled_from(["none", "reference", "zeta-fixed"]))
    text += f"[strategy]\nkind = {kind}\n"
    text += "zeta = 0.1\n" if kind == "zeta-fixed" else ""
    text += f"m_taug = {draw(st.sampled_from(['0', '0.5']))}\n"
    text += ("[run]\nseed = 7\n[simulation]\ndt = 0.05\nduration = 30\n"
             f"method = {draw(st.sampled_from(['rk4', 'exact']))}\n")
    text += "[disturbance.d]\n" + _DISTURBANCE[draw(st.sampled_from(sorted(_DISTURBANCE)))]
    return text + "[campaign]\nwind_speeds = 12\nstrategies = none, zeta-fixed:0.1\n"


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(text=_magnitude_config())
def test_extreme_magnitudes_end_as_an_error_or_a_result(text):
    # each closed form returns a finite value or raises a ParameterError
    # that names the quantity; a raw exception or warning is a fault
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.ini"
        cfg.write_text(text)
        out = Path(tmp) / "out"
        rc = {}
        for command in ("tune", "analyze", "simulate", "bode", "campaign",
                        "fatigue"):
            argv = [command, "--config", str(cfg), "--out", str(out)]
            if command == "fatigue":
                argv.append(str(out / "timeseries.csv"))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                rc[command] = _main_without_runtime_warnings(argv)
            assert rc[command] in (0, 2), (command, err.getvalue())
            assert all(line.startswith(("error: ", "warning: "))
                       for line in err.getvalue().splitlines()), \
                (command, err.getvalue())
        # analyze's report is the one tune reads before it writes gains.ini
        assert rc["tune"] != 0 or rc["analyze"] == 0, rc
        # analyze and campaign read the one verdict of the same loop
        kind = text.split("[strategy]\nkind = ", 1)[1].split("\n", 1)[0]
        if rc["analyze"] == rc["campaign"] == 0 and kind != "reference":
            analysis = dict(r[:2] for r in _read_rows(out / "analysis.csv")[1:])
            head, *rows = _read_rows(out / "campaign.csv")
            label = "none" if kind == "none" else "zeta-fixed:0.1"
            row = next(r for r in rows if r[head.index("strategy")] == label)
            assert row[head.index("stable")] == analysis["stable"], text
