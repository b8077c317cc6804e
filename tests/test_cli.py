import csv
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fowtctl.cli import main
from fowtctl.config import _data_dir, import_gains
from fowtctl.sim import TimeSeries

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
    gains = import_gains(tmp_path / "o" / "gains.ini")
    assert gains.kp == pytest.approx(-0.359736733973185, rel=1e-12)
    assert gains.ki == pytest.approx(2.0742012684134593e-4, rel=1e-12)
    assert gains.kbeta == pytest.approx(2.089164091413599, rel=1e-12)
    out = capsys.readouterr().out
    assert "zeta=0.6" in out or "zeta=0.600000" in out


def test_analyze_reports_conditions(tmp_path, capsys):
    cfg = _cfg(tmp_path, BASE)
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    text = (tmp_path / "o" / "analysis.txt").read_text()
    assert "nmpz_phi_condition = false" in text
    assert "nmpz_omega_condition = false" in text
    assert "verdict = stable" in text
    rows = dict((r[0], r[1]) for r in _read_rows(tmp_path / "o" / "analysis.csv")[1:])
    assert rows["stable"] == "true"


def test_simulate_output_round_trips(tmp_path):
    cfg = _cfg(tmp_path, SIM)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    ts = TimeSeries.from_csv(tmp_path / "o" / "timeseries.csv")
    assert ts.dt == pytest.approx(0.05)
    assert len(ts) == 1201
    assert "tower_moment" in ts.channels
    # header carries the provenance lines
    head = (tmp_path / "o" / "timeseries.csv").read_text().splitlines()[:4]
    assert head[0].startswith("# fowtctl")
    assert "config_hash=" in head[1]
    assert "seed=42" in head[3]


def test_seed_flag_overrides_config(tmp_path):
    cfg = _cfg(tmp_path, SIM)
    main(["simulate", "--config", cfg, "--out", str(tmp_path / "a")])
    main(["simulate", "--config", cfg, "--out", str(tmp_path / "b"),
          "--seed", "43"])
    a = TimeSeries.from_csv(tmp_path / "a" / "timeseries.csv")
    b = TimeSeries.from_csv(tmp_path / "b" / "timeseries.csv")
    assert not np.array_equal(a.channels["w"], b.channels["w"])


def test_bode_outputs_three_sweeps(tmp_path):
    cfg = _cfg(tmp_path, BASE)
    assert main(["bode", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    for name in ("bode_phi_from_w.csv", "bode_phi_from_v.csv",
                 "bode_omega_from_v.csv"):
        rows = _read_rows(tmp_path / "o" / name)
        assert rows[0] == ["nu [rad/s]", "magnitude [dB]", "phase [deg]"]
        assert len(rows) == 401


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
                    "disturbance.d": {"kind": "step-wind"}}


@pytest.mark.parametrize("section,key,value", [
    ("run", "seed", "4.5"),
    *[("rotor", k, "x") for k in ("zeta", "nu")],
    *[("strategy", k, "x") for k in ("zeta", "m_taug")],
    *[("gains", k, "x") for k in ("kp", "ki", "kbeta", "ktaug")],
    *[("simulation", k, "abc") for k in ("dt", "duration", "transient")],
    *[("disturbance.d", k, "x")
      for k in ("seed", "amplitude", "period", "onset", "hs", "gamma")],
    *[("fatigue", k, "x")
      for k in ("m1", "m2", "knee", "stress_knee", "section_modulus",
                "n_ref", "lifetime_scale", "hysteresis_frac")],
    ("campaign", "wind_speeds", "12, x"),
    ("campaign", "strategies", "none, zeta-fixed:abc"),
    ("campaign", "sens.abc", "table1-true"),
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
])
def test_malformed_input_ends_as_error(tmp_path, capsys, text, extra):
    broken = tmp_path / "params" / "structure" / "broken.ini"
    broken.parent.mkdir(parents=True)
    broken.write_text("[structure]\nng = 1\nng = 2\n")
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


@pytest.mark.parametrize("text", [
    pytest.param(None, id="missing"),
    pytest.param("", id="empty"),
    pytest.param("# fowtctl\nt [s],tower_moment [N*m]\n", id="header-only"),
    pytest.param("t [s],tower_moment [N*m]\n0.0,1.0\n0.1,abc\n", id="non-numeric"),
])
def test_fatigue_bad_series_file_ends_as_error(tmp_path, capsys, text):
    series = tmp_path / "series.csv"
    if text is not None:
        series.write_text(text)
    cfg = _cfg(tmp_path, BASE)
    assert main(["fatigue", "--config", cfg, "--out", str(tmp_path / "o"),
                 str(series)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(series) in err


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


_BAD = ("nan", "inf", "-1", "0", "abc", "")
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
    "strategy": {"kind": ("zeta-fixed", "reference", "none"),
                 "zeta": ("0.1",), "m_taug": ("0.5",)},
    "gains": {"kp": ("-0.36",), "ki": ("2e-4",), "kbeta": ("2.1",),
              "ktaug": ("1e6",)},
    "run": {"seed": ("42",)},
    "disturbance.a": {"kind": ("jonswap-wave",), "hs": ("1.5",),
                      "period": ("11",), "gamma": ("2",), "seed": ("3",)},
    "disturbance.b": {"kind": ("step-wind", "step-beta"), "amplitude": ("1",),
                      "onset": ("1",)},
    "disturbance.c": {"kind": ("mono-wave",), "amplitude": ("1",),
                      "period": ("20",)},
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
    return "".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for section, keys in sections.items())


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(command=st.sampled_from(["tune", "analyze", "simulate"]),
       text=_fuzz_config())
def test_main_returns_0_or_2_and_never_raises(command, text):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.ini"
        cfg.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main([command, "--config", str(cfg), "--out", tmp]) in (0, 2)
