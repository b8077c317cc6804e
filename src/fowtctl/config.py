"""Run-configuration ingestion and parameter-set resolution.

Configs are INI-style key = value files holding only the sections and
keys _TABLE lists.  A [structure] or [sensitivities] section either
carries its values inline or references a named parameter set through
`use = <name>`; named sets resolve against a user-supplied directory
first, then the packaged data files.  Sensitivity sets may declare
`units = kN` and are converted to strict SI on load, so the stored
fixtures can mirror published kN-based tables verbatim.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

# the interpreter's own SHA-256 (_sha2 from 3.12, _sha256 before), as
# random takes its sha512: hashlib would map OpenSSL's libcrypto into
# every command only for the config hash
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from .errors import ConfigError
from .model import AeroSensitivities, ControlGains, StructuralParams
from .sim import DISTURBANCE_FIELDS, DisturbanceSpec, write_header


def _data_dir() -> Path:
    return Path(__file__).with_name("data")


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
    if cp.defaults():
        keys = ", ".join(map(repr, cp.defaults()))
        raise ConfigError(f"[DEFAULT] of {path} holds {keys}, which it would "
                          "set in every section")
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


def _require(ok: bool, key: str, where: str, value, what: str) -> None:
    """A ConfigError naming the key unless ok."""
    if not ok:
        raise ConfigError(f"{key!r} in {where} must be {what} (got {value!r})")


def _unknown(what: str, name: str, known, where: str = "") -> ConfigError:
    """A ConfigError refusing name, with the closest of known as a hint."""
    import difflib  # only a refused config pays for this import
    close = difflib.get_close_matches(name, known, n=1)
    hint = f" (did you mean {close[0]}?)" if close else ""
    return ConfigError(f"unknown {what} {name}{where}{hint}")


@dataclass
class FatigueSettings:
    curve_kind: str = "single"
    m1: float = 3.0
    m2: float = 5.0
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
    """One [campaign] strategies entry: kind, or kind:<zeta>."""
    kind, colon, zeta = text.partition(":")
    return kind.strip(), float(zeta) if colon else None


def _valid_strategy(kind: str, zeta: float | None) -> bool:
    if kind == "zeta-fixed":
        return zeta is not None and 0.0 < zeta < math.inf
    return kind in ("reference", "none") and zeta is None


def strategy_label(strategy: tuple[str, float | None]) -> str:
    """A campaign strategy as campaign.csv prints it: kind, or kind:%g."""
    kind, zeta = strategy
    return kind if zeta is None else f"{kind}:{zeta:g}"


def _items(conv):
    """A conversion of a comma-separated list, item by item."""
    return lambda text: [conv(s) for s in text.split(",") if s.strip()]


def _one_of(*names):
    """A table check that the value is one of names."""
    return (lambda v: v in names, ", ".join(names[:-1]) + " or " + names[-1])


def _keys(names, conv=float, check=None):
    """Table rows for keys that set the field of their own name."""
    return {name: (name, conv, check) for name in names}


_FINITE = (math.isfinite, "finite")
_POSITIVE = (lambda v: 0.0 < v < math.inf, "finite and > 0")
_NONNEGATIVE = (lambda v: 0.0 <= v < math.inf, "finite and >= 0")
_USE = {"use": ("use", str, None)}

# section -> key -> (field the value sets, conversion of the text, check of
# the value as (predicate, what the value must be) or None).  The fields
# are those of StructuralParams, AeroSensitivities, RunConfig, ControlGains,
# DisturbanceSpec and FatigueSettings; each default lives there.
_TABLE = {
    "structure": {**_USE, **_keys(f.name for f in fields(StructuralParams))},
    "sensitivities": {**_USE, "units": ("units", str.lower, _one_of("si", "kn")),
                      **_keys(f.name for f in fields(AeroSensitivities))},
    "run": {"seed": ("seed", int, None), "out": ("out_dir", str, None)},
    "rotor": {"zeta": ("zeta_rot", float, _POSITIVE),
              "nu": ("nu_rot", float, _POSITIVE)},
    "strategy": {"kind": ("strategy", str, _one_of("zeta-fixed", "reference", "none")),
                 "zeta": ("zeta_plt", float, None),
                 "m_taug": ("m_taug", float, (lambda v: 0.0 <= v <= 1.0, "in [0, 1]"))},
    "gains": _keys(f.name for f in fields(ControlGains)),
    "simulation": {**_keys(("dt", "duration"), check=_POSITIVE),
                   "method": ("method", str, _one_of("rk4", "exact")),
                   "transient": ("transient", float, _NONNEGATIVE)},
    "fatigue": {"curve": ("curve_kind", str, _one_of("single", "bilinear")),
                **_keys(("m1", "m2", "knee", "stress_knee", "section_modulus",
                         "n_ref"), check=_POSITIVE),
                "lifetime_scale": ("lifetime_scale", float, _NONNEGATIVE),
                "hysteresis_frac": ("hysteresis_frac", float,
                                    (lambda v: 0.0 <= v < 1.0, "in [0, 1)"))},
    "campaign": {"wind_speeds": ("campaign_speeds", _items(float),
                                 (lambda v: all(0.0 < s < math.inf for s in v),
                                  "finite and > 0")),
                 "strategies": ("campaign_strategies", _items(_parse_strategy),
                                (lambda v: all(_valid_strategy(*s) for s in v),
                                 "none, reference or zeta-fixed:<zeta> with zeta "
                                 "finite and > 0")),
                 # a field of None: load_run_config reads the key itself
                 "sens.<speed>": (None, str, None)},
    "disturbance.<name>": {**_keys(("kind", "path"), str), "seed": ("seed", int, None),
                           **_keys(("amplitude", "period", "onset", "hs", "gamma"),
                                   check=_FINITE)},
}


def _read(sec, where: str | None = None) -> dict:
    """{field: value} of a config section, converted and checked by its
    _TABLE rows; a section or key the table does not list is refused."""
    base, _, name = sec.name.partition(".")
    table = _TABLE.get("disturbance.<name>" if base == "disturbance" and name
                       else sec.name)
    if table is None:
        raise _unknown("section", f"[{sec.name}]", [f"[{s}]" for s in _TABLE])
    where = where or f"[{sec.name}]"
    out = {}
    for key, text in sec.items():
        row = table.get("sens.<speed>" if key.startswith("sens.") else key)
        if row is None:
            raise _unknown("key", repr(key), [repr(k) for k in table], f" in {where}")
        target, conv, check = row
        if target is not None:
            out[target] = _number(text, key, where, conv)
            if check is not None:
                _require(check[0](out[target]), key, where, text, check[1])
    return out


def _set_values(kind: str, name_or_sec, search_dir) -> tuple[dict, str]:
    """The values of a [kind] parameter set, given by name or as a config
    section, which may instead name a set with `use = <name>` and then
    hold no other key.  Returns (values, set_name)."""
    vals = {"use": name_or_sec} if isinstance(name_or_sec, str) else _read(name_or_sec)
    name, where = "<inline>", f"[{kind}]"
    if "use" in vals:
        extra = [key for key in vals if key != "use"]
        if extra:
            raise ConfigError(f"{extra[0]!r} in {where} beside 'use': a section "
                              "that names a parameter set holds no other key")
        name = vals.pop("use")
        path = _resolve(kind, name, search_dir)
        cp = _read_ini(path)
        if kind not in cp:
            raise ConfigError(f"parameter set {path} has no [{kind}] section")
        sets = ["[structure]", "[sensitivities]"]
        for sec in cp.sections():
            if f"[{sec}]" not in sets:
                raise _unknown("section", f"[{sec}]", sets, f" in {path}")
        where = f"[{kind}] of {path}"
        vals = _read(cp[kind], where)
        if "use" in vals:
            raise ConfigError(f"'use' in {where}: a parameter set names no other set")
    missing = [k for k in _TABLE[kind] if k not in vals and k not in ("use", "units")]
    if missing:
        raise ConfigError(f"missing key {missing[0]!r} in {where}")
    return vals, name


def load_structure(name_or_sec, search_dir=None) -> tuple[StructuralParams, str]:
    """Structural parameters from a set name or a parsed config section.
    Returns (params, set_name)."""
    vals, name = _set_values("structure", name_or_sec, search_dir)
    return StructuralParams(**vals), name


def load_sensitivities(name_or_sec, search_dir=None) -> tuple[AeroSensitivities, str]:
    """Aerodynamic sensitivities of an above-rated operating point from a
    set name or parsed section, converted to SI if the set declares kN
    units."""
    vals, name = _set_values("sensitivities", name_or_sec, search_dir)
    if vals.pop("units", None) == "kn":
        vals = {k: v * 1e3 for k, v in vals.items()}
    return AeroSensitivities(**vals).validate_above_rated(), name


def load_run_config(path, search_dir=None, seed=None) -> RunConfig:
    """The parsed and resolved config at path.  seed, if given, replaces
    the [run] seed, and with it the seed of every JONSWAP disturbance that
    inherits the run seed; a disturbance's own seed is kept."""
    path = Path(path)
    try:
        raw = path.read_bytes()
        text = raw.decode()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    cp = _parse_ini(text, path)
    for name in ("structure", "sensitivities"):
        if name not in cp:
            raise ConfigError(f"config needs a [{name}] section")
    vals = {name: _read(cp[name]) for name in cp.sections()
            if name not in ("structure", "sensitivities")}
    params, params_name = load_structure(cp["structure"], search_dir)
    sens, sens_name = load_sensitivities(cp["sensitivities"], search_dir)

    kwargs = {}
    for name in ("run", "rotor", "strategy", "simulation", "campaign"):
        kwargs.update(vals.get(name, {}))
    if seed is not None:
        kwargs["seed"] = seed
    cfg = RunConfig(params=params, sens=sens, params_name=params_name,
                    sens_name=sens_name, search_dir=search_dir,
                    config_hash=sha256(raw).hexdigest()[:12],
                    fatigue=FatigueSettings(**vals.get("fatigue", {})), **kwargs)
    if "gains" in vals:
        cfg.gains_override = ControlGains(**vals["gains"])

    # the rules that span keys or sections; [strategy] kind and zeta as
    # each [campaign] strategies entry
    _require(_valid_strategy(cfg.strategy, cfg.zeta_plt), "zeta", "[strategy]",
             cfg.zeta_plt, "finite and > 0 with kind = zeta-fixed"
             if cfg.strategy == "zeta-fixed" else f"absent with kind = {cfg.strategy}")
    for name in sorted(s for s in vals if s.startswith("disturbance.")):
        spec = vals[name]
        if "kind" not in spec:
            raise ConfigError(f"missing key 'kind' in [{name}]")
        kind = spec["kind"]
        # a key its kind does not read would be ignored; an unknown kind
        # passes here, and DisturbanceSpec refuses it
        read = DISTURBANCE_FIELDS.get(kind, tuple(spec))
        for key, value in spec.items():
            _require(key == "kind" or key in read, key, f"[{name}]", value,
                     f"absent with kind = {kind}")
        if kind == "jonswap-wave":
            if cfg.seed is None:
                raise ConfigError(f"[{name}] is stochastic: [run] seed is mandatory")
            spec.setdefault("seed", cfg.seed)
        cfg.disturbances.append(DisturbanceSpec(**spec))
    # the printed speed and strategy label name the case, so they must be
    # unique too
    for key, labels in (("wind_speeds", [f"{s:g}" for s in cfg.campaign_speeds]),
                        ("strategies", [strategy_label(s)
                                        for s in cfg.campaign_strategies])):
        _require(len(set(labels)) == len(labels), key, "[campaign]",
                 ", ".join(labels), "unique as printed")
    for key, value in (cp["campaign"].items() if "campaign" in cp else ()):
        if key.startswith("sens."):
            speed = _number(key.split(".", 1)[1], key, "[campaign]")
            # a set for a speed the grid does not run, or a second set
            # for one speed, would be ignored or override silently
            _require(speed in cfg.campaign_speeds, key, "[campaign]",
                     speed, "a speed listed in wind_speeds")
            _require(speed not in cfg.campaign_sens, key, "[campaign]",
                     speed, "a speed no other sens. key names")
            cfg.campaign_sens[speed] = value
    return cfg


def export_gains(gains: ControlGains, path, header_lines=None):
    """Write gains in the config format so they round-trip into later runs."""
    with open(path, "w") as fh:
        write_header(fh, header_lines or [])
        fh.write("[gains]\n")
        for f in fields(ControlGains):
            fh.write(f"{f.name} = {getattr(gains, f.name)!r}\n")
