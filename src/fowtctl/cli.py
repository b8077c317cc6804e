"""Command-line interface: tune, analyze, simulate, bode, fatigue, campaign.

Every output file starts with comment lines embedding the tool version,
the config hash, the parameter-set names and the seed, so a result can
always be traced back to the exact configuration that produced it.
Identical configs (including seed) produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .config import (FatigueSettings, RunConfig, export_gains, load_run_config,
                     load_sensitivities, strategy_label)
from .errors import FowtctlError, ParameterError
from .fatigue import (WohlerCurve, damage_equivalent_load, miner_damage,
                      rainflow)
from .gains import RotorTarget, synthesize
from .model import (CHANNELS, AeroSensitivities, ControlGains, build_open_loop,
                    close_loop)
from .sim import TimeSeries, csv_cell, simulate, write_csv
from .stability import (bode_gplt, bode_grot, default_grid, loop_report,
                        modal_report)

STAT_CHANNELS = ("phi", "omega", "beta", "tower_moment")


def _header(cfg: RunConfig) -> list[str]:
    seed = cfg.seed if cfg.seed is not None else "none"
    return [
        f"fowtctl {__version__}",
        f"config_hash={cfg.config_hash}",
        f"structure={cfg.params_name} sensitivities={cfg.sens_name}",
        f"seed={seed}",
    ]


def _synthesize(cfg: RunConfig, sens: AeroSensitivities, kind: str,
                zeta_plt: float | None) -> ControlGains:
    return synthesize(cfg.params, sens,
                      RotorTarget(zeta_rot=cfg.zeta_rot, nu_rot=cfg.nu_rot),
                      strategy=kind, zeta_plt=zeta_plt, m_taug=cfg.m_taug)


def _resolve_gains(cfg: RunConfig) -> ControlGains:
    if cfg.gains_override is not None:
        return cfg.gains_override
    return _synthesize(cfg, cfg.sens, cfg.strategy, cfg.zeta_plt)


def _out_dir(cfg: RunConfig, override: str | None) -> Path:
    out = Path(override if override is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_tune(cfg: RunConfig, out: Path) -> int:
    gains = _resolve_gains(cfg)
    # analyze's report: a loop it refuses ends here, before gains.ini exists
    report = loop_report(cfg.params, cfg.sens, gains,
                         close_loop(build_open_loop(cfg.params, cfg.sens), gains))
    rot_nu, rot_zeta = report["rotor_nu [rad/s]"], report["rotor_zeta [-]"]
    plt_nu, plt_zeta = report["platform_nu [rad/s]"], report["platform_zeta [-]"]
    degenerate = math.isnan(rot_nu)
    lines = _header(cfg) + [
        "gains=[gains]" if cfg.gains_override is not None
        else f"strategy={cfg.strategy}"
        + (f" zeta_plt={cfg.zeta_plt}" if cfg.strategy == "zeta-fixed" else ""),
        f"rotor: nu={rot_nu!r} rad/s zeta={rot_zeta!r} degenerate={degenerate}",
        f"platform: nu={plt_nu!r} rad/s zeta={plt_zeta!r}",
    ]
    export_gains(gains, out / "gains.ini", header_lines=lines)
    for f in fields(ControlGains):
        print(f"{f.name} = {getattr(gains, f.name)!r}")
    print(f"rotor nu={rot_nu:.6g} rad/s zeta={rot_zeta:.6g}"
          + (" (degenerate)" if degenerate else ""))
    print(f"platform nu={plt_nu:.6g} rad/s zeta={plt_zeta:.6g}")
    print(f"wrote {out / 'gains.ini'}")
    return 0


def cmd_analyze(cfg: RunConfig, out: Path) -> int:
    gains = _resolve_gains(cfg)
    loop = close_loop(build_open_loop(cfg.params, cfg.sens), gains)
    report = loop_report(cfg.params, cfg.sens, gains, loop)
    path = out / "analysis.csv"
    write_csv(path, _header(cfg), ["quantity", "value"], "%s,%s",
              [(name, str(v).lower() if isinstance(v, bool) else f"{v:.12g}")
               for name, v in report.items()])
    verdict = "stable" if report["stable"] else "unstable"
    print(f"phi-NMPZ: {report['nmpz_phi_condition']}  "
          f"omega-NMPZ: {report['nmpz_omega_condition']}  verdict: {verdict}")
    print(f"wrote {path}")
    return 0


def cmd_simulate(cfg: RunConfig, out: Path) -> int:
    loop = close_loop(build_open_loop(cfg.params, cfg.sens), _resolve_gains(cfg))
    ts = simulate(loop, cfg.disturbances, dt=cfg.dt, t_end=cfg.duration,
                  method=cfg.method)
    path = out / "timeseries.csv"
    if ts.diverged_at is not None:
        print(f"warning: simulation diverged at t={ts.diverged_at} s", file=sys.stderr)
    ts.to_csv(path, header_lines=_header(cfg))
    print(f"wrote {path} ({len(ts)} samples, {len(ts.channels)} channels)")
    return 0


def cmd_bode(cfg: RunConfig, out: Path) -> int:
    gains = _resolve_gains(cfg)
    grid = default_grid(cfg.params)
    responses = [
        bode_gplt(cfg.params, cfg.sens, gains.kbeta, grid, input_channel="wave"),
        bode_gplt(cfg.params, cfg.sens, gains.kbeta, grid, input_channel="wind"),
        bode_grot(cfg.params, cfg.sens, gains.kp, gains.ki, grid),
    ]
    for resp in responses:
        name = resp.label.replace("<-", "_from_")
        path = out / f"bode_{name}.csv"
        write_csv(path, _header(cfg),
                  ["nu [rad/s]", "magnitude [dB]", "phase [deg]"], "%.12g,%.12g,%.12g",
                  # an exactly zero magnitude, as of a wave channel with
                  # dtw_dw = 0, is -inf dB
                  ((nu, 20.0 * math.log10(mag) if mag else -math.inf,
                    math.degrees(ph))
                   for nu, mag, ph in zip(resp.nu_grid.tolist(),
                                          resp.magnitude.tolist(),
                                          resp.phase.tolist())))
        print(f"wrote {path}")
    return 0


def _evaluate_fatigue(signal, fs: FatigueSettings, moment: bool = True):
    """Rainflow cycles, damage-equivalent load and Miner damage of one
    load history under the [fatigue] settings.  The S-N curve reads each
    range over the section modulus as a stress, so the damage is None
    unless the history is a bending moment."""
    cycles = rainflow(signal, hysteresis_frac=fs.hysteresis_frac)
    del_value = damage_equivalent_load(cycles, fs.m1, fs.n_ref)
    if not moment:
        return cycles, del_value, None
    curve = WohlerCurve(kind=fs.curve_kind, m1=fs.m1, m2=fs.m2,
                        knee=fs.knee, stress_knee=fs.stress_knee)
    damage = miner_damage(cycles, curve, fs.section_modulus, fs.lifetime_scale)
    return cycles, del_value, damage


def cmd_fatigue(cfg: RunConfig, out: Path, series_file: str,
                channel: str = "tower_moment") -> int:
    ts = TimeSeries.from_csv(series_file, channel=channel)
    unit = ts.units[channel] or "-"
    cycles, del_value, damage = _evaluate_fatigue(
        ts.channels[channel], cfg.fatigue, moment=unit == CHANNELS["tower_moment"])
    n_cycles = float(np.sum(cycles.count))
    write_csv(out / "cycles.csv", _header(cfg),
              [csv_cell(f"range [{unit}]"), csv_cell(f"mean [{unit}]"), "count [-]"],
              "%.12g,%.12g,%g", [cycles.range, cycles.mean, cycles.count])
    rows = [("channel", csv_cell(channel)),
            ("n_cycles", f"{n_cycles:g}"),
            (csv_cell(f"del_m{cfg.fatigue.m1:g} [{unit}]"), f"{del_value:.12g}")]
    summary = f"{channel}: {n_cycles:g} cycles, DEL={del_value:.6g}"
    if damage is not None:
        rows.append(("damage [-]", f"{damage:.12g}"))
        summary += f", damage={damage:.6g}"
    write_csv(out / "fatigue_summary.csv", _header(cfg), ["quantity", "value"],
              "%s,%s", rows)
    print(summary)
    return 0


def _campaign_case(cfg: RunConfig, index: int, speed: float,
                   sens: AeroSensitivities, strategy: tuple[str, float | None]):
    """One campaign.csv row: synthesized gains, stability, statistics and
    tower fatigue of one (speed, strategy) simulation under sens.  index
    numbers the case in the grid and keys its JONSWAP phases."""
    gains = _synthesize(cfg, sens, *strategy)
    loop = close_loop(build_open_loop(cfg.params, sens), gains)
    ts = simulate(loop, cfg.disturbances, dt=cfg.dt, t_end=cfg.duration,
                  method=cfg.method, case=index)
    stable = modal_report(loop.closed).stable
    diverged = ts.diverged_at is not None
    t_skip = cfg.transient if cfg.transient < cfg.duration else 0.0
    post = ts.window(t_skip) if not diverged else ts
    # one row per channel: each reduction runs along a contiguous row, in
    # the order a call on that channel alone would sum it
    chans = np.stack([post.channels[name] for name in STAT_CHANNELS])
    with np.errstate(over="ignore", invalid="ignore"):
        stats = np.column_stack([chans.min(axis=1), chans.mean(axis=1),
                                 chans.max(axis=1), chans.std(axis=1)])
    label = strategy_label(strategy)
    case_id = f"ws{speed:g}_{label}"
    # a finite channel's sum or sum of squares past the largest double is
    # refused, as the DEL is; a diverged run's inf passes through
    for name, values, row in zip(STAT_CHANNELS, chans, stats):
        if not np.isfinite(row).all() and np.isfinite(values).all():
            stat = ("min", "mean", "max", "std")[int(np.argmin(np.isfinite(row)))]
            raise ParameterError(
                f"the {stat} of {name} in case {case_id} overflows: its largest "
                f"magnitude is {float(np.abs(values).max())!r}")
    _, del_tower, damage = _evaluate_fatigue(post.channels["tower_moment"],
                                             cfg.fatigue)
    return (case_id, speed, label,
            gains.kp, gains.ki, gains.kbeta, gains.ktaug,
            str(stable).lower(), str(diverged).lower(),
            *stats.ravel().tolist(), del_tower, damage)


def cmd_campaign(cfg: RunConfig, out: Path) -> int:
    if not cfg.campaign_speeds or not cfg.campaign_strategies:
        raise FowtctlError("campaign needs [campaign] wind_speeds and strategies")
    # each set named in [campaign] is loaded once, in config order, so a
    # missing or broken set ends the command before any case runs
    names = dict.fromkeys(cfg.campaign_sens.values())
    loaded = {name: load_sensitivities(name, cfg.search_dir)[0] for name in names}
    sens = {speed: loaded[cfg.campaign_sens[speed]] if speed in cfg.campaign_sens
            else cfg.sens for speed in cfg.campaign_speeds}
    grid = [(speed, strat) for speed in cfg.campaign_speeds
            for strat in cfg.campaign_strategies]
    rows = sorted((_campaign_case(cfg, i, speed, sens[speed], strat)
                   for i, (speed, strat) in enumerate(grid)),
                  key=lambda row: (row[1], row[2]))  # speed, then strategy

    head = ["case_id", "wind_speed [m/s]", "strategy",
            "kp [s]", "ki [-]", "kbeta [rad*s/rad]", "ktaug [N*m*s/rad]",
            "stable", "diverged"]
    for name in STAT_CHANNELS:
        head += [f"{name}_{s} [{CHANNELS[name]}]" for s in ("min", "mean", "max", "std")]
    head += ["del_tower [N*m]", "damage_tower [-]"]
    fmt = ("%s,%g,%s" + ",%.12g" * 4 + ",%s,%s"
           + ",%.12g" * (4 * len(STAT_CHANNELS) + 2))
    path = out / "campaign.csv"
    write_csv(path, _header(cfg), head, fmt, rows)
    col = head.index("diverged")
    n_div = sum(row[col] == "true" for row in rows)
    print(f"wrote {path} ({len(rows)} cases, {n_div} diverged)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fowtctl",
        description="Coupled rotor/platform control analysis for floating "
                    "wind turbines")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--params-dir", default=None,
                       help="extra directory searched for parameter sets")

    for name, doc in [("tune", "synthesize and export controller gains"),
                      ("analyze", "NMPZ conditions, eigenvalues, stability verdict"),
                      ("simulate", "time-domain simulation to CSV"),
                      ("bode", "frequency sweeps of the reduced filters"),
                      ("fatigue", "rainflow / DEL / damage of a series file"),
                      ("campaign", "grid of simulations with joined summary")]:
        p = sub.add_parser(name, help=doc)
        common(p)
        if name == "fatigue":
            p.add_argument("series", help="time-series CSV to analyze")
            p.add_argument("--channel", default="tower_moment")
        if name == "campaign":
            p.add_argument("--jobs", type=int, default=1,
                           help="accepted for compatibility; the cases run "
                                "one after another in one process")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        shown = warnings.showwarning

        def show(message, category, *rest):
            # a note to the user is one line; any other category goes on
            # to the handler this replaced, which may be recording it
            if issubclass(category, UserWarning):
                print(f"warning: {message}", file=sys.stderr)
            else:
                shown(message, category, *rest)

        warnings.showwarning = show
        try:
            cfg = load_run_config(args.config, search_dir=args.params_dir,
                                  seed=args.seed)
            out = _out_dir(cfg, args.out)
            if args.command == "fatigue":
                return cmd_fatigue(cfg, out, args.series, channel=args.channel)
            # argparse admits only the commands the parser lists
            return {"tune": cmd_tune, "analyze": cmd_analyze, "simulate": cmd_simulate,
                    "bode": cmd_bode, "campaign": cmd_campaign}[args.command](cfg, out)
        except FowtctlError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except MemoryError as exc:
            # e.g. a step count no machine can hold, which numpy refuses at once
            print(f"error: out of memory: {str(exc) or 'allocation failed'}",
                  file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
