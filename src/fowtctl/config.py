"""Run-configuration ingestion and parameter-set resolution.

Configs are INI-style key = value files.  A [structure] or
[sensitivities] section either carries its values inline or references a
named parameter set through `use = <name>`; named sets resolve against a
user-supplied directory first, then the packaged data files.  Sensitivity
sets may declare `units = kN` and are converted to strict SI on load, so
the stored fixtures can mirror published kN-based tables verbatim.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .errors import ConfigError
from .model import AeroSensitivities, ControlGains, StructuralParams
from .sim import DisturbanceSpec, write_header

_STRUCT_KEYS = ("ng", "jr", "jt", "dt", "kt", "ht")
_SENS_KEYS = ("dta_domega", "dta_dv", "dta_dbeta",
              "dfa_domega", "dfa_dv", "dfa_dbeta", "dtw_dw")


def _data_dir() -> Path:
    return Path(str(resources.files("fowtctl").joinpath("data")))


def _resolve(section: str, name: str, search_dir: str | Path | None) -> Path:
    candidates = []
    if search_dir is not None:
        candidates.append(Path(search_dir) / section / f"{name}.ini")
        candidates.append(Path(search_dir) / f"{name}.ini")
    candidates.append(_data_dir() / section / f"{name}.ini")
    for path in candidates:
        if path.is_file():
            return path
    raise ConfigError(f"parameter set {name!r} not found (looked in "
                      f"{', '.join(str(c.parent) for c in candidates)})")


def _parse_ini(text: str, path) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    return cp


def _read_ini(path: Path) -> configparser.ConfigParser:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    return _parse_ini(text, path)


def _number(text: str, key: str, where: str, conv=float):
    """conv(text), or a ConfigError naming the key and where it sits."""
    try:
        return conv(text)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r} in {where}: {text!r}") from exc


def _get(sec, key: str, default, conv=float):
    """sec[key] converted by conv, or default when the key is absent."""
    if key not in sec:
        return default
    return _number(sec[key], key, f"[{sec.name}]", conv)


def _section_floats(sec, keys, where: str) -> dict[str, float]:
    out = {}
    for key in keys:
        if key not in sec:
            raise ConfigError(f"missing key {key!r} in {where}")
        out[key] = _number(sec[key], key, where)
    return out


def _set_section(kind: str, name_or_sec, search_dir):
    """The [kind] section of a named parameter set, or the inline config
    section itself (which may name a set with `use = <name>`).
    Returns (section, set_name)."""
    if not isinstance(name_or_sec, str):
        if "use" not in name_or_sec:
            return name_or_sec, "<inline>"
        name_or_sec = name_or_sec["use"]
    path = _resolve(kind, name_or_sec, search_dir)
    cp = _read_ini(path)
    if kind not in cp:
        raise ConfigError(f"parameter set {path} has no [{kind}] section")
    return cp[kind], name_or_sec


def load_structure(name_or_sec, search_dir=None) -> tuple[StructuralParams, str]:
    """Structural parameters from a set name or a parsed config section.
    Returns (params, set_name)."""
    sec, name = _set_section("structure", name_or_sec, search_dir)
    vals = _section_floats(sec, _STRUCT_KEYS, f"structure set {name}")
    return StructuralParams(**vals), name


def load_sensitivities(name_or_sec, search_dir=None) -> tuple[AeroSensitivities, str]:
    """Aerodynamic sensitivities of an above-rated operating point from a
    set name or parsed section, converted to SI if the set declares kN
    units."""
    sec, name = _set_section("sensitivities", name_or_sec, search_dir)
    vals = _section_floats(sec, _SENS_KEYS, f"sensitivity set {name}")
    units = sec.get("units", "si").strip().lower()
    if units == "kn":
        vals = {k: v * 1e3 for k, v in vals.items()}
    elif units != "si":
        raise ConfigError(f"unknown units {units!r} in sensitivity set {name}")
    return AeroSensitivities(**vals).validate_above_rated(), name


@dataclass
class FatigueSettings:
    curve_kind: str = "single"
    m1: float = 3.0
    m2: float | None = 5.0
    knee: float = 1e6
    stress_knee: float = 5.0e7   # Pa
    section_modulus: float = 6.5  # m^3, tower-base design value
    n_ref: float = 600.0
    lifetime_scale: float = 1.0
    hysteresis_frac: float = 1e-3


@dataclass
class RunConfig:
    """Everything one subcommand invocation needs, parsed and resolved."""

    params: StructuralParams
    sens: AeroSensitivities
    params_name: str
    sens_name: str
    strategy: str = "none"          # zeta-fixed | reference | none
    zeta_plt: float | None = None
    m_taug: float = 0.0
    zeta_rot: float = 0.6
    nu_rot: float = 0.01
    gains_override: ControlGains | None = None
    disturbances: list[DisturbanceSpec] = field(default_factory=list)
    dt: float = 0.05
    duration: float = 600.0
    method: str = "rk4"
    transient: float = 200.0
    seed: int | None = None
    out_dir: str = "."
    fatigue: FatigueSettings = field(default_factory=FatigueSettings)
    campaign_speeds: list[float] = field(default_factory=list)
    campaign_strategies: list[tuple[str, float | None]] = field(default_factory=list)
    campaign_sens: dict[float, str] = field(default_factory=dict)
    search_dir: str | Path | None = None  # where campaign_sens sets resolve first
    config_hash: str = ""


def _parse_strategy(text: str) -> tuple[str, float | None]:
    text = text.strip()
    if text.startswith("zeta-fixed"):
        _, _, arg = text.partition(":")
        if not arg:
            raise ConfigError("zeta-fixed strategy needs a value, e.g. zeta-fixed:0.10")
        return "zeta-fixed", _number(arg, "strategies", "[campaign]")
    if text in ("reference", "none"):
        return text, None
    raise ConfigError(f"unknown strategy {text!r}")


def load_run_config(path, search_dir=None) -> RunConfig:
    path = Path(path)
    try:
        raw = path.read_bytes()
        text = raw.decode()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    cp = _parse_ini(text, path)

    if "structure" not in cp:
        raise ConfigError("config needs a [structure] section")
    if "sensitivities" not in cp:
        raise ConfigError("config needs a [sensitivities] section")
    params, params_name = load_structure(cp["structure"], search_dir)
    sens, sens_name = load_sensitivities(cp["sensitivities"], search_dir)

    cfg = RunConfig(params=params, sens=sens,
                    params_name=params_name, sens_name=sens_name,
                    search_dir=search_dir)
    cfg.config_hash = hashlib.sha256(raw).hexdigest()[:12]

    if "run" in cp:
        run = cp["run"]
        if "seed" in run:
            cfg.seed = _get(run, "seed", None, int)
        cfg.out_dir = run.get("out", cfg.out_dir)

    if "rotor" in cp:
        cfg.zeta_rot = _get(cp["rotor"], "zeta", cfg.zeta_rot)
        cfg.nu_rot = _get(cp["rotor"], "nu", cfg.nu_rot)

    if "strategy" in cp:
        sec = cp["strategy"]
        kind = sec.get("kind", "none").strip()
        if kind == "zeta-fixed":
            if "zeta" not in sec:
                raise ConfigError("zeta-fixed strategy requires zeta")
            cfg.zeta_plt = _get(sec, "zeta", None)
        elif kind not in ("reference", "none"):
            raise ConfigError(f"unknown strategy kind {kind!r}")
        cfg.strategy = kind
        cfg.m_taug = _get(sec, "m_taug", 0.0)

    if "gains" in cp:
        g = cp["gains"]
        cfg.gains_override = ControlGains(
            kp=_get(g, "kp", 0.0), ki=_get(g, "ki", 0.0),
            kbeta=_get(g, "kbeta", 0.0), ktaug=_get(g, "ktaug", 0.0))

    if "simulation" in cp:
        sec = cp["simulation"]
        cfg.dt = _get(sec, "dt", cfg.dt)
        cfg.duration = _get(sec, "duration", cfg.duration)
        cfg.method = sec.get("method", cfg.method)
        cfg.transient = _get(sec, "transient", cfg.transient)
        for key in ("dt", "duration"):
            value = getattr(cfg, key)
            if not (math.isfinite(value) and value > 0.0):
                raise ConfigError(f"{key!r} in [simulation] must be finite "
                                  f"and > 0 (got {value!r})")

    stochastic = False
    for name in sorted(s for s in cp.sections() if s.startswith("disturbance")):
        sec = cp[name]
        kind = sec.get("kind", "").strip()
        seed = _get(sec, "seed", None, int)
        if kind == "jonswap-wave":
            stochastic = True
            if seed is None:
                seed = cfg.seed
            if seed is None:
                raise ConfigError("stochastic disturbance needs a seed "
                                  "([run] seed or per-disturbance)")
        cfg.disturbances.append(DisturbanceSpec(
            kind=kind,
            amplitude=_get(sec, "amplitude", 0.0),
            period=_get(sec, "period", 0.0),
            onset=_get(sec, "onset", 0.0),
            hs=_get(sec, "hs", 0.0),
            gamma=_get(sec, "gamma", 1.0),
            seed=seed,
            path=sec.get("path", None),
        ))
    if stochastic and cfg.seed is None:
        raise ConfigError("[run] seed is mandatory with stochastic disturbances")

    if "fatigue" in cp:
        sec = cp["fatigue"]
        fs = cfg.fatigue
        fs.curve_kind = sec.get("curve", fs.curve_kind)
        fs.m1 = _get(sec, "m1", fs.m1)
        fs.m2 = _get(sec, "m2", fs.m2 if fs.m2 is not None else 5.0)
        fs.knee = _get(sec, "knee", fs.knee)
        fs.stress_knee = _get(sec, "stress_knee", fs.stress_knee)
        fs.section_modulus = _get(sec, "section_modulus", fs.section_modulus)
        fs.n_ref = _get(sec, "n_ref", fs.n_ref)
        fs.lifetime_scale = _get(sec, "lifetime_scale", fs.lifetime_scale)
        fs.hysteresis_frac = _get(sec, "hysteresis_frac", fs.hysteresis_frac)

    if "campaign" in cp:
        sec = cp["campaign"]
        if "wind_speeds" in sec:
            cfg.campaign_speeds = [_number(s, "wind_speeds", "[campaign]")
                                   for s in sec["wind_speeds"].split(",") if s.strip()]
        if "strategies" in sec:
            cfg.campaign_strategies = [_parse_strategy(s)
                                       for s in sec["strategies"].split(",") if s.strip()]
        for key, value in sec.items():
            if key.startswith("sens."):
                speed = _number(key.split(".", 1)[1], key, "[campaign]")
                cfg.campaign_sens[speed] = value.strip()

    return cfg


def export_gains(gains: ControlGains, path, header_lines=None):
    """Write gains in the config format so they round-trip into later runs."""
    with open(path, "w") as fh:
        write_header(fh, header_lines or [])
        fh.write("[gains]\n")
        fh.write(f"kp = {gains.kp!r}\n")
        fh.write(f"ki = {gains.ki!r}\n")
        fh.write(f"kbeta = {gains.kbeta!r}\n")
        fh.write(f"ktaug = {gains.ktaug!r}\n")


def import_gains(path) -> ControlGains:
    cp = _read_ini(Path(path))
    g = cp["gains"]
    return ControlGains(kp=g.getfloat("kp"), ki=g.getfloat("ki"),
                        kbeta=g.getfloat("kbeta"), ktaug=g.getfloat("ktaug"))
