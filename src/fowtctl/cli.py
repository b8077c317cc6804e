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
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import (FatigueSettings, RunConfig, export_gains, load_run_config,
                     load_sensitivities, strategy_label)
from .errors import FowtctlError
from .fatigue import (WohlerCurve, damage_equivalent_load, miner_damage,
                      rainflow)
from .freq import bode_gplt, bode_grot, damped_band, default_grid
from .gains import RotorTarget, synthesize
from .model import (CHANNELS, AeroSensitivities, ControlGains, build_open_loop,
                    close_loop)
from .sim import TimeSeries, csv_cell, simulate, write_csv, write_header
from .stability import (modal_report, nmpz_omega_condition, nmpz_phi_condition,
                        numerator_omega, numerator_phi, platform_summary,
                        rotor_summary)

STAT_CHANNELS = ("phi", "omega", "beta", "tower_moment")


def _header(cfg: RunConfig) -> list[str]:
    seed = cfg.seed if cfg.seed is not None else "none"
    return [
        f"fowtctl {__version__}",
        f"config_hash={cfg.config_hash}",
        f"structure={cfg.params_name} sensitivities={cfg.sens_name}",
        f"seed={seed}",
    ]


def _resolve_gains(cfg: RunConfig) -> ControlGains:
    if cfg.gains_override is not None:
        return cfg.gains_override
    return synthesize(cfg.params, cfg.sens,
                      RotorTarget(zeta_rot=cfg.zeta_rot, nu_rot=cfg.nu_rot),
                      strategy=cfg.strategy, zeta_plt=cfg.zeta_plt,
                      m_taug=cfg.m_taug)


def _out_dir(cfg: RunConfig, override: str | None) -> Path:
    out = Path(override if override is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_tune(cfg: RunConfig, out: Path) -> int:
    gains = _resolve_gains(cfg)
    rot = rotor_summary(cfg.params, cfg.sens, gains.kp, gains.ki)
    plt = platform_summary(cfg.params, cfg.sens, gains.kbeta)
    lines = _header(cfg) + [
        f"strategy={cfg.strategy}"
        + (f" zeta_plt={cfg.zeta_plt}" if cfg.strategy == "zeta-fixed" else ""),
        f"rotor: nu={rot.nu!r} rad/s zeta={rot.zeta!r} degenerate={rot.degenerate}",
        f"platform: nu={plt.nu!r} rad/s zeta={plt.zeta!r}",
    ]
    export_gains(gains, out / "gains.ini", header_lines=lines)
    for f in fields(ControlGains):
        print(f"{f.name} = {getattr(gains, f.name)!r}")
    print(f"rotor nu={rot.nu:.6g} rad/s zeta={rot.zeta:.6g}"
          + (" (degenerate)" if rot.degenerate else ""))
    print(f"platform nu={plt.nu:.6g} rad/s zeta={plt.zeta:.6g}")
    print(f"wrote {out / 'gains.ini'}")
    return 0


def cmd_analyze(cfg: RunConfig, out: Path) -> int:
    gains = _resolve_gains(cfg)
    ss = close_loop(build_open_loop(cfg.params, cfg.sens), gains)
    phi_cond = nmpz_phi_condition(cfg.sens)
    omega_cond = nmpz_omega_condition(cfg.params, cfg.sens, gains.ktaug)
    n_phi = numerator_phi(cfg.params, cfg.sens)
    n_omega = numerator_omega(cfg.params, cfg.sens, gains.ktaug)
    report = modal_report(ss.closed)
    verdict = "stable" if report.stable else "unstable"
    lo, hi = damped_band(cfg.params)

    txt = out / "analysis.txt"
    with open(txt, "w") as fh:
        write_header(fh, _header(cfg))
        fh.write(f"nmpz_phi_condition = {str(phi_cond).lower()}\n")
        fh.write(f"nmpz_omega_condition = {str(omega_cond).lower()}\n")
        fh.write(f"damped_band = [{lo!r}, {hi!r}] rad/s\n")
        fh.write(f"verdict = {verdict}\n")
    rows = [("nmpz_phi_condition", str(phi_cond).lower()),
            ("nmpz_omega_condition", str(omega_cond).lower())]
    for i, r in enumerate(np.sort_complex(np.roots(n_phi))):
        rows.append((f"numerator_phi_root_{i}", f"{r:.12g}"))
    for i, r in enumerate(np.sort_complex(np.roots(n_omega))):
        rows.append((f"numerator_omega_root_{i}", f"{r:.12g}"))
    for i, lam in enumerate(report.eigenvalues):
        rows.append((f"eigenvalue_{i}", f"{lam:.12g}"))
    for i, mode in enumerate(report.modes):
        rows.append((f"mode_{i}_nu [rad/s]", f"{mode.nu:.12g}"))
        rows.append((f"mode_{i}_zeta [-]", f"{mode.zeta:.12g}"))
    rows.append(("stable", str(report.stable).lower()))
    write_csv(out / "analysis.csv", _header(cfg), ["quantity", "value"],
              "%s,%s", rows)
    print(f"phi-NMPZ: {phi_cond}  omega-NMPZ: {omega_cond}  verdict: {verdict}")
    print(f"wrote {txt} and {out / 'analysis.csv'}")
    return 0


def cmd_simulate(cfg: RunConfig, out: Path) -> int:
    ts = simulate(cfg.params, cfg.sens, _resolve_gains(cfg), cfg.disturbances,
                  dt=cfg.dt, t_end=cfg.duration, method=cfg.method)
    path = out / "timeseries.csv"
    header = _header(cfg)
    if "diverged_at" in ts.meta:
        header.append(f"diverged_at={ts.meta['diverged_at']!r}")
        print(f"warning: simulation diverged at t={ts.meta['diverged_at']} s",
              file=sys.stderr)
    ts.to_csv(path, header_lines=header)
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
        header = _header(cfg)
        if resp.degenerate:
            header.append("degenerate: band-pass form refused, raw rational response")
        write_csv(path, header, ["nu [rad/s]", "magnitude [dB]", "phase [deg]"],
                  "%.12g,%.12g,%.12g",
                  ((nu, 20.0 * math.log10(mag), math.degrees(ph))
                   for nu, mag, ph in zip(resp.nu_grid.tolist(),
                                          resp.magnitude.tolist(),
                                          resp.phase.tolist())))
        print(f"wrote {path}")
    return 0


def _evaluate_fatigue(signal, fs: FatigueSettings):
    """Rainflow cycles, damage-equivalent load and Miner damage of one
    load history under the [fatigue] settings."""
    cycles = rainflow(signal, hysteresis_frac=fs.hysteresis_frac)
    curve = WohlerCurve(kind=fs.curve_kind, m1=fs.m1, m2=fs.m2,
                        knee=fs.knee, stress_knee=fs.stress_knee)
    del_value = damage_equivalent_load(cycles, fs.m1, fs.n_ref)
    damage = miner_damage(cycles, curve, fs.section_modulus, fs.lifetime_scale)
    return cycles, del_value, damage


def cmd_fatigue(cfg: RunConfig, out: Path, series_file: str,
                channel: str = "tower_moment") -> int:
    # only the analysed channel is kept, so a wide series file is not
    # held twice while its channels are copied out of the parsed table
    ts = TimeSeries.from_csv(series_file, channel=channel)
    cycles, del_value, damage = _evaluate_fatigue(ts.channels[channel], cfg.fatigue)
    n_cycles = float(np.sum(cycles.count))
    write_csv(out / "cycles.csv", _header(cfg),
              ["range [N*m]", "mean [N*m]", "count [-]"], "%.12g,%.12g,%g",
              [cycles.range, cycles.mean, cycles.count])
    write_csv(out / "fatigue_summary.csv", _header(cfg), ["quantity", "value"],
              "%s,%s",
              [("channel", csv_cell(channel)),
               ("n_cycles", f"{n_cycles:g}"),
               (f"del_m{cfg.fatigue.m1:g} [N*m]", f"{del_value:.12g}"),
               ("damage [-]", f"{damage:.12g}")])
    print(f"{channel}: {n_cycles:g} cycles, "
          f"DEL={del_value:.6g}, damage={damage:.6g}")
    return 0


def _campaign_case(cfg: RunConfig, index: int, speed: float,
                   sens: AeroSensitivities, strategy: tuple[str, float | None]):
    """One campaign.csv row: synthesized gains, stability, statistics and
    tower fatigue of one (speed, strategy) simulation under sens.  index
    numbers the case in the grid and keys its JONSWAP phases."""
    kind, zeta = strategy
    disturbances = [replace(spec, case=index) for spec in cfg.disturbances]
    case = replace(cfg, sens=sens, strategy=kind, zeta_plt=zeta,
                   gains_override=None, disturbances=disturbances)
    gains = _resolve_gains(case)
    ts = simulate(cfg.params, sens, gains, disturbances, dt=cfg.dt,
                  t_end=cfg.duration, method=cfg.method)
    stable = modal_report(close_loop(build_open_loop(cfg.params, sens),
                                     gains).closed).stable
    diverged = "diverged_at" in ts.meta
    t_skip = cfg.transient if cfg.transient < cfg.duration else 0.0
    post = ts.window(t_skip) if not diverged else ts
    # one row per channel: each reduction runs along a contiguous row, in
    # the order a call on that channel alone would sum it
    chans = np.stack([post.channels[name] for name in STAT_CHANNELS])
    stats = np.column_stack([chans.min(axis=1), chans.mean(axis=1),
                             chans.max(axis=1), chans.std(axis=1)]).ravel().tolist()
    _, del_tower, damage = _evaluate_fatigue(post.channels["tower_moment"],
                                             cfg.fatigue)
    label = strategy_label(strategy)
    return (f"ws{speed:g}_{label}", speed, label,
            gains.kp, gains.ki, gains.kbeta, gains.ktaug,
            str(stable).lower(), str(diverged).lower(),
            *stats, del_tower, damage)


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
