import hashlib
import re
from pathlib import Path

import pytest

from fowtctl.config import (_TABLE, export_gains, load_run_config,
                            load_sensitivities, load_structure)
from fowtctl.errors import ConfigError
from fowtctl.model import ControlGains
from fowtctl.sim import DISTURBANCE_FIELDS

BASE = """
[structure]
use = umaine-iea15

[sensitivities]
use = table1-false
"""


def _write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_structure_by_name():
    params, name = load_structure("umaine-iea15")
    assert name == "umaine-iea15"
    assert params.ng == 1.0
    assert params.ht == 150.0


def test_unknown_set_raises():
    with pytest.raises(ConfigError, match="not found"):
        load_structure("atlantis")
    with pytest.raises(ConfigError, match="not found"):
        load_sensitivities("table9")


def test_kilonewton_conversion():
    sens, _ = load_sensitivities("table1-false")
    # stored as 2980.9 kN.s
    assert sens.dta_dv == pytest.approx(2.9809e6)
    assert sens.dta_dbeta == pytest.approx(-1.523478e8)


def test_search_dir_takes_precedence(tmp_path):
    (tmp_path / "structure").mkdir()
    (tmp_path / "structure" / "umaine-iea15.ini").write_text(
        "[structure]\nng = 2\njr = 1e8\njt = 1e11\ndt = 1e7\nkt = 1e10\nht = 120\n")
    params, _ = load_structure("umaine-iea15", search_dir=tmp_path)
    assert params.ng == 2.0


def test_inline_sections(tmp_path):
    cfg = load_run_config(_write(tmp_path, """
[structure]
ng = 1
jr = 3.16e8
jt = 3.0e11
dt = 1.0e8
kt = 1.433e10
ht = 150

[sensitivities]
units = si
dta_dv = 2.9809e6
dfa_dv = 3.548e5
dta_domega = -5.85971e7
dfa_domega = -5.658e6
dta_dbeta = -1.523478e8
dfa_dbeta = -1.60522e7
dtw_dw = 5.0e8
"""))
    assert cfg.params_name == "<inline>"
    assert cfg.sens.dta_dv == pytest.approx(2.9809e6)


def test_missing_sections_raise(tmp_path):
    with pytest.raises(ConfigError, match="structure"):
        load_run_config(_write(tmp_path, "[sensitivities]\nuse = table1-false\n"))


def test_missing_key_raises(tmp_path):
    with pytest.raises(ConfigError, match="missing key"):
        load_run_config(_write(tmp_path, """
[structure]
ng = 1
jr = 3.16e8

[sensitivities]
use = table1-false
"""))


def test_strategy_and_rotor_parsing(tmp_path):
    cfg = load_run_config(_write(tmp_path, BASE + """
[rotor]
zeta = 0.7
nu = 0.2

[strategy]
kind = zeta-fixed
zeta = 0.25
m_taug = 0.5
"""))
    assert cfg.zeta_rot == 0.7
    assert cfg.nu_rot == 0.2
    assert cfg.strategy == "zeta-fixed"
    assert cfg.zeta_plt == 0.25
    assert cfg.m_taug == 0.5


def test_zeta_fixed_requires_value(tmp_path):
    with pytest.raises(ConfigError, match="zeta"):
        load_run_config(_write(tmp_path, BASE + "[strategy]\nkind = zeta-fixed\n"))


def test_gains_override(tmp_path):
    cfg = load_run_config(_write(tmp_path, BASE + """
[gains]
kp = -0.3
ki = 2e-4
kbeta = 1.5
ktaug = -1e8
"""))
    assert cfg.gains_override == ControlGains(kp=-0.3, ki=2e-4,
                                              kbeta=1.5, ktaug=-1e8)


def test_disturbance_parsing_and_seed_rule(tmp_path):
    cfg = load_run_config(_write(tmp_path, BASE + """
[run]
seed = 9

[disturbance.wave]
kind = jonswap-wave
hs = 1.5
period = 11
gamma = 2

[disturbance.gust]
kind = step-wind
amplitude = 2.0
onset = 100
"""))
    kinds = sorted(d.kind for d in cfg.disturbances)
    assert kinds == ["jonswap-wave", "step-wind"]
    wave = next(d for d in cfg.disturbances if d.kind == "jonswap-wave")
    assert wave.seed == 9  # inherited from [run]


# a valid value of each [disturbance.*] key
_DISTURBANCE_VALUES = {"amplitude": "1", "onset": "5", "period": "11",
                       "hs": "1.5", "gamma": "2", "seed": "3", "path": "wind.csv"}


@pytest.mark.parametrize("kind,key", [
    (kind, key) for kind, read in DISTURBANCE_FIELDS.items()
    for key in _DISTURBANCE_VALUES if key not in read])
def test_disturbance_key_its_kind_does_not_read_is_refused(tmp_path, kind, key):
    # every key the kind reads, then one it does not: that one used to be
    # ignored, so mono-wave with hs ran a zero sea
    def config(keys):
        return (BASE + f"[run]\nseed = 9\n[disturbance.d]\nkind = {kind}\n"
                + "".join(f"{k} = {_DISTURBANCE_VALUES[k]}\n" for k in keys))

    load_run_config(_write(tmp_path, config(DISTURBANCE_FIELDS[kind])))
    with pytest.raises(ConfigError, match=re.escape(
            f"'{key}' in [disturbance.d] must be absent with kind = {kind} (got ")):
        load_run_config(_write(tmp_path, config([*DISTURBANCE_FIELDS[kind], key])))


def test_stochastic_without_seed_rejected(tmp_path):
    with pytest.raises(ConfigError, match="seed"):
        load_run_config(_write(tmp_path, BASE + """
[disturbance.wave]
kind = jonswap-wave
hs = 1.5
period = 11
"""))


def test_campaign_parsing(tmp_path):
    cfg = load_run_config(_write(tmp_path, BASE + """
[campaign]
wind_speeds = 12, 16, 20
strategies = none, zeta-fixed:0.10, reference
sens.20 = table2-true
"""))
    assert cfg.campaign_speeds == [12.0, 16.0, 20.0]
    assert cfg.campaign_strategies == [("none", None), ("zeta-fixed", 0.1),
                                       ("reference", None)]
    assert cfg.campaign_sens == {20.0: "table2-true"}


def test_bad_campaign_strategy(tmp_path):
    with pytest.raises(ConfigError, match="zeta-fixed"):
        load_run_config(_write(tmp_path, BASE +
                               "[campaign]\nstrategies = zeta-fixed\n"))


def test_config_hash_tracks_bytes(tmp_path):
    a = load_run_config(_write(tmp_path, BASE, "a.ini"))
    b = load_run_config(_write(tmp_path, BASE, "b.ini"))
    c = load_run_config(_write(tmp_path, BASE + "\n[run]\nseed = 1\n", "c.ini"))
    assert a.config_hash == b.config_hash
    assert a.config_hash != c.config_hash
    assert len(a.config_hash) == 12


@pytest.mark.parametrize("raw", [
    pytest.param(BASE.encode(), id="ascii"),
    pytest.param(("# Böe, 12 m/s — Tabelle 1\n" + BASE).encode(), id="utf8-comment"),
    pytest.param(BASE.replace("\n", "\r\n").encode(), id="crlf"),
])
def test_config_hash_is_sha256_of_the_file_bytes(tmp_path, raw):
    # taken from the interpreter's own SHA-256, not hashlib's OpenSSL one
    path = tmp_path / "run.ini"
    path.write_bytes(raw)
    assert load_run_config(path).config_hash == hashlib.sha256(raw).hexdigest()[:12]


def test_gains_round_trip(tmp_path):
    gains = ControlGains(kp=-0.359736733973185, ki=2.0742012684134593e-4,
                         kbeta=2.089164091413599, ktaug=-4.47135e8)
    path = tmp_path / "gains.ini"
    export_gains(gains, path, header_lines=["whatever"])
    cfg = load_run_config(_write(tmp_path, BASE + path.read_text()))
    assert cfg.gains_override == gains


def test_fatigue_section(tmp_path):
    cfg = load_run_config(_write(tmp_path, BASE + """
[fatigue]
curve = bilinear
m1 = 4
m2 = 6
knee = 2e6
n_ref = 1200
"""))
    fs = cfg.fatigue
    assert fs.curve_kind == "bilinear"
    assert fs.m1 == 4.0
    assert fs.m2 == 6.0
    assert fs.knee == 2e6
    assert fs.n_ref == 1200.0


def test_misspelled_key_names_the_closest_key(tmp_path):
    with pytest.raises(ConfigError, match=r"^unknown key 'durration' in "
                       r"\[simulation\] \(did you mean 'duration'\?\)$"):
        load_run_config(_write(tmp_path, BASE + "[simulation]\ndurration = 50\n"))


def test_readme_config_block_lists_every_key_the_table_accepts(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("### Config format\n\n```ini\n", 1)[1].split("```", 1)[0]
    load_run_config(_write(tmp_path, block))
    names, section = set(), None
    for line in block.splitlines():
        line = line.lstrip("# ")
        head = re.match(r"\[(\w+)(\.\w+)?\]", line)
        if head:
            section = head[1] + (".<name>" if head[2] else "")
            names.add((section, None))
        elif re.match(r"[a-z_][a-z0-9_]*(\.\d+)?\s*=", line):
            key = line.split("=", 1)[0].strip()
            names.add((section, "sens.<speed>" if key.startswith("sens.") else key))
    assert names == {(section, key) for section, keys in _TABLE.items()
                     for key in (None, *keys)}
