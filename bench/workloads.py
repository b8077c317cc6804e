"""The benchmark's workloads: seeded inputs, CLI arguments and output checks.

Each workload writes its inputs from the benchmark seed before any timing
(`prepare`), names the CLI call one repetition makes (`argv`), the work
units a repetition does (`units`), and checks a repetition's outputs
(`check`, which returns a list of problems; empty means correct).  The
checks recompute what they can from the benchmark's own references and
compare with tolerances, never with a stored copy of the program's digits,
so a change that legitimately moves last digits or seed streams still
passes.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.signal import lfilter

import reference

STATES = ("theta", "omega", "phi", "phidot")
CHANNELS = STATES + ("beta", "v", "w", "v_rel", "tower_moment")
CAMPAIGN_SPEEDS = (12.0, 16.0, 20.0, 22.0)
CAMPAIGN_SENS = ("table1-false", "table1-true", "table2-false", "table2-true")
CAMPAIGN_STRATEGIES = (("none", None), ("reference", None),
                       ("zeta-fixed", 0.05), ("zeta-fixed", 0.10))
FATIGUE = {"m1": 3.0, "stress_knee": 5.0e7, "knee": 1.0e6,
           "section_modulus": 6.5, "n_ref": 600.0, "lifetime_scale": 1.0,
           "hysteresis_frac": 1.0e-3}

# Relative tolerances.  Outputs carry 12 significant digits; the state
# reference differs from the program by summation order only (measured
# deviation ~1e-12 of the channel's peak).
STATE_RTOL = 1e-7
CSV_RTOL = 1e-9
SUM_RTOL = 1e-7
COUNT_RTOL = 1e-5  # fatigue_summary.csv prints n_cycles with %g (6 digits)


def config_text(seed: int, dt: float, duration: float, transient: float) -> str:
    """UMaine IEA-15, table1-false, zeta-fixed 0.10, rk4; JONSWAP Hs 1.5 m,
    Tp 11 s, gamma 3.3 plus a 1 m/s wind step at 100 s; the campaign grid
    maps its four speeds to the four table sets."""
    sens_map = "\n".join(f"sens.{s:g} = {n}"
                         for s, n in zip(CAMPAIGN_SPEEDS, CAMPAIGN_SENS))
    strategies = ", ".join(k if z is None else f"{k}:{z:.2f}"
                           for k, z in CAMPAIGN_STRATEGIES)
    fat = FATIGUE
    return f"""[structure]
use = umaine-iea15

[sensitivities]
use = table1-false

[run]
seed = {seed}

[rotor]
zeta = 0.6
nu = 0.01

[strategy]
kind = zeta-fixed
zeta = 0.10

[simulation]
dt = {dt!r}
duration = {duration!r}
method = rk4
transient = {transient!r}

[disturbance.wave]
kind = jonswap-wave
hs = 1.5
period = 11
gamma = 3.3

[disturbance.wind]
kind = step-wind
amplitude = 1.0
onset = 100

[fatigue]
curve = single
m1 = {fat['m1']!r}
stress_knee = {fat['stress_knee']!r}
knee = {fat['knee']!r}
section_modulus = {fat['section_modulus']!r}
n_ref = {fat['n_ref']!r}
lifetime_scale = {fat['lifetime_scale']!r}
hysteresis_frac = {fat['hysteresis_frac']!r}

[campaign]
wind_speeds = {", ".join(f"{s:g}" for s in CAMPAIGN_SPEEDS)}
strategies = {strategies}
{sens_map}
"""


def _closed_loop(sens_name: str, kind: str, zeta: float | None):
    from fowtctl.config import load_sensitivities, load_structure
    from fowtctl.gains import RotorTarget, synthesize
    from fowtctl.model import build_open_loop, close_loop

    params, _ = load_structure("umaine-iea15")
    sens, _ = load_sensitivities(sens_name)
    gains = synthesize(params, sens, RotorTarget(zeta_rot=0.6, nu_rot=0.01),
                       strategy=kind, zeta_plt=zeta)
    return gains, close_loop(build_open_loop(params, sens), gains)


def read_table(path: Path):
    """(comment lines, column names, rows of strings) of a CSV output."""
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = list(csv.reader(ln for ln in lines if ln and not ln.startswith("#")))
    if not body:
        raise ValueError(f"{path.name}: no header row")
    names = [col.partition(" [")[0] for col in body[0]]
    return comments, names, body[1:]


def _numeric(rows, width: int, what: str) -> np.ndarray:
    if any(len(r) != width for r in rows):
        raise ValueError(f"{what}: ragged rows")
    arr = np.array(rows, dtype=float).reshape(len(rows), width)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what}: non-finite value")
    return arr


def _close(a, b, rtol: float, scale: float) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b))
                       <= rtol * max(scale, 1e-300)))


@dataclass
class Simulate:
    """CLI `simulate`: one closed-loop run to timeseries.csv."""

    name: str = "simulate-600s"
    dt: float = 0.05
    duration: float = 600.0

    def prepare(self, seed: int, inputs: Path) -> None:
        inputs.mkdir(parents=True, exist_ok=True)
        self.config = inputs / "run.ini"
        self.config.write_text(config_text(seed, self.dt, self.duration, 200.0))
        self.n = int(round(self.duration / self.dt)) + 1
        _, ss = _closed_loop("table1-false", "zeta-fixed", 0.10)
        self.a, self.b = ss.closed, ss.b_full()

    @property
    def units(self) -> int:
        return self.n - 1  # integration steps

    def argv(self, out: Path, trace_run: bool = False) -> list[str]:
        return ["simulate", "--config", str(self.config), "--out", str(out)]

    def check(self, out: Path) -> list[str]:
        try:
            comments, names, rows = read_table(out / "timeseries.csv")
            missing = [c for c in ("t",) + CHANNELS if c not in names]
            if missing:
                return [f"timeseries.csv lacks channels {missing}"]
            data = _numeric(rows, len(names), "timeseries.csv")
        except (OSError, ValueError) as exc:
            return [str(exc)]
        problems = []
        if any("diverged_at" in c for c in comments):
            problems.append("timeseries.csv flags divergence")
        if data.shape[0] != self.n:
            return problems + [f"{data.shape[0]} rows, expected {self.n}"]
        col = {n: data[:, i] for i, n in enumerate(names)}
        if not _close(col["t"], self.dt * np.arange(self.n), 1.0, 1e-6):
            problems.append("time column off the dt grid")
        v, w = col["v"], col["w"]
        u = np.zeros((self.n, 4))
        u[:, 2], u[:, 3] = v, w
        # the wind step sits on a grid point, so a midpoint takes the value
        # on its left; the wave is linear between grid samples
        u_mid = np.zeros((self.n - 1, 4))
        u_mid[:, 2], u_mid[:, 3] = v[:-1], 0.5 * (w[:-1] + w[1:])
        ref = reference.rk4_states(self.a, self.b, self.dt, u, u_mid)
        for i, name in enumerate(STATES):
            scale = float(np.max(np.abs(ref[:, i])))
            if not _close(col[name], ref[:, i], STATE_RTOL, scale):
                err = float(np.max(np.abs(col[name] - ref[:, i]))) / scale
                problems.append(f"{name} deviates from the RK4 reference "
                                f"by {err:.3g} of its peak")
        return problems


@dataclass
class Campaign:
    """CLI `campaign`: 4 speeds x 4 strategies with a joined summary."""

    name: str = "campaign-16"
    dt: float = 0.05
    duration: float = 100.0
    transient: float = 50.0
    jobs: int = 2

    def prepare(self, seed: int, inputs: Path) -> None:
        inputs.mkdir(parents=True, exist_ok=True)
        self.config = inputs / "run.ini"
        self.config.write_text(config_text(seed, self.dt, self.duration,
                                           self.transient))
        self.expected = []
        for speed, sens_name in zip(CAMPAIGN_SPEEDS, CAMPAIGN_SENS):
            for kind, zeta in CAMPAIGN_STRATEGIES:
                gains, ss = _closed_loop(sens_name, kind, zeta)
                stable = bool(np.all(np.linalg.eigvals(ss.closed).real < 0.0))
                label = kind if zeta is None else f"{kind}:{zeta:g}"
                self.expected.append((f"ws{speed:g}_{label}", speed, label,
                                      gains, stable))
        self.expected.sort(key=lambda e: (e[1], e[2]))
        self.other_jobs_csv: bytes | None = None

    @property
    def units(self) -> int:
        return len(self.expected) * int(round(self.duration / self.dt))

    def argv(self, out: Path, trace_run: bool = False,
             jobs: int | None = None) -> list[str]:
        # a traced run stays in one process, since spans in pool workers
        # would be lost; its untraced repetitions match it for the overhead
        if jobs is None:
            jobs = 1 if trace_run else self.jobs
        return ["campaign", "--config", str(self.config), "--out", str(out),
                "--jobs", str(jobs)]

    def check(self, out: Path) -> list[str]:
        path = out / "campaign.csv"
        try:
            _, names, rows = read_table(path)
            for col in ("case_id", "wind_speed", "strategy", "kp", "ki",
                        "kbeta", "ktaug", "stable", "diverged"):
                if col not in names:
                    return [f"campaign.csv lacks column {col}"]
            recs = [dict(zip(names, r)) for r in rows]
            text = {"case_id", "strategy", "stable", "diverged"}
            _numeric([[r[n] for n in names if n not in text] for r in recs],
                     len(names) - len(text), "campaign.csv")
        except (OSError, ValueError, KeyError) as exc:
            return [str(exc)]
        problems = []
        if len(recs) != len(self.expected):
            return [f"{len(recs)} campaign rows, expected {len(self.expected)}"]
        keys = [(float(r["wind_speed"]), r["strategy"]) for r in recs]
        if keys != sorted(keys):
            problems.append("campaign rows not sorted by (wind speed, strategy)")
        for r, (case_id, speed, label, gains, stable) in zip(recs, self.expected):
            if (r["case_id"], float(r["wind_speed"]), r["strategy"]) != (
                    case_id, speed, label):
                problems.append(f"row {r['case_id']}: expected {case_id}")
                continue
            for g in ("kp", "ki", "kbeta", "ktaug"):
                want = getattr(gains, g)
                if not _close(float(r[g]), want, CSV_RTOL, abs(want)):
                    problems.append(f"{case_id}: {g}={r[g]} but synthesize "
                                    f"gives {want!r}")
            if r["stable"] != str(stable).lower():
                problems.append(f"{case_id}: stable={r['stable']}, eigenvalues "
                                f"say {str(stable).lower()}")
            if r["diverged"] != "false":
                problems.append(f"{case_id}: diverged={r['diverged']}")
        if self.other_jobs_csv is not None and path.read_bytes() != self.other_jobs_csv:
            problems.append("campaign.csv differs between --jobs 1 and --jobs 2")
        return problems


@dataclass
class Fatigue:
    """CLI `fatigue` on a seeded mean-reverting random-walk tower-moment
    series."""

    name: str = "fatigue-long"
    dt: float = 0.05
    samples: int = 200_000

    def prepare(self, seed: int, inputs: Path) -> None:
        inputs.mkdir(parents=True, exist_ok=True)
        self.config = inputs / "run.ini"
        self.config.write_text(config_text(seed, self.dt, 600.0, 200.0))
        self.series = inputs / "timeseries.csv"
        values = write_random_walk(self.series, seed, self.samples, self.dt)
        self.ref = reference.rainflow_cycles(values, FATIGUE["hysteresis_frac"])
        self.range_scale = float(np.ptp(values))
        self.mean_scale = float(np.max(np.abs(values)))

    @property
    def units(self) -> int:
        return self.samples

    def argv(self, out: Path, trace_run: bool = False) -> list[str]:
        return ["fatigue", "--config", str(self.config), "--out", str(out),
                str(self.series)]

    def check(self, out: Path) -> list[str]:
        try:
            _, names, rows = read_table(out / "cycles.csv")
            if names[:3] != ["range", "mean", "count"]:
                return [f"cycles.csv columns {names}"]
            cyc = _numeric(rows, len(names), "cycles.csv")
            _, _, summary_rows = read_table(out / "fatigue_summary.csv")
            summary = {r[0].partition(" [")[0]: r[1] for r in summary_rows}
            n_cycles = float(summary["n_cycles"])
            del_out = float(summary[f"del_m{FATIGUE['m1']:g}"])
            damage_out = float(summary["damage"])
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [str(exc)]
        ranges, means, counts = cyc[:, 0], cyc[:, 1], cyc[:, 2]
        problems = []
        if not np.all(np.isin(counts, (0.5, 1.0))) or np.any(ranges < 0.0):
            problems.append("cycles.csv holds an invalid range or count")
        r_ref, m_ref, c_ref = self.ref
        if len(ranges) != len(r_ref):
            problems.append(f"{len(ranges)} cycles, reference has {len(r_ref)}")
        else:
            # compare as multisets per count class, so the order cycles are
            # extracted in is free
            for c in (0.5, 1.0):
                got, want = counts == c, c_ref == c
                if got.sum() != want.sum():
                    problems.append(f"{int(got.sum())} cycles of count {c}, "
                                    f"reference has {int(want.sum())}")
                    continue
                if not _close(np.sort(ranges[got]), np.sort(r_ref[want]),
                              CSV_RTOL, self.range_scale):
                    problems.append(f"ranges of count-{c} cycles differ "
                                    "from the reference")
                if not _close(np.sort(means[got]), np.sort(m_ref[want]),
                              CSV_RTOL, self.mean_scale):
                    problems.append(f"means of count-{c} cycles differ "
                                    "from the reference")
        fat = FATIGUE
        if not math.isclose(n_cycles, float(counts.sum()), rel_tol=COUNT_RTOL):
            problems.append(f"n_cycles {n_cycles:g} != sum of counts")
        del_ref = reference.damage_equivalent_load(ranges, counts, fat["m1"],
                                                   fat["n_ref"])
        if not math.isclose(del_out, del_ref, rel_tol=SUM_RTOL):
            problems.append(f"DEL {del_out!r} but cycles.csv gives {del_ref!r}")
        damage_ref = reference.miner_damage_single(
            ranges, counts, fat["m1"], fat["stress_knee"], fat["knee"],
            fat["section_modulus"], fat["lifetime_scale"])
        if not math.isclose(damage_out, damage_ref, rel_tol=SUM_RTOL):
            problems.append(f"damage {damage_out!r} but cycles.csv gives "
                            f"{damage_ref!r}")
        return problems


# Pole of the mean-reverting walk.  A plain random walk's range, and with
# it the hysteresis (a fraction of the range) and the number of kept
# turning points, changed by 40 % from seed to seed, and the fatigue time
# with it; reverting over ~500 samples keeps the kept count within 1 %.
WALK_POLE = 0.998


def write_random_walk(path: Path, seed: int, samples: int, dt: float) -> np.ndarray:
    """Mean-reverting random-walk tower moment (N*m), x[k] = WALK_POLE *
    x[k-1] + noise, in the timeseries.csv format; returns the values
    exactly as the file holds them."""
    rng = np.random.default_rng(seed)
    walk = lfilter([1.0], [1.0, -WALK_POLE], rng.standard_normal(samples)) * 1.0e5
    texts = [f"{v:.12g}" for v in walk.tolist()]
    with open(path, "w") as fh:
        fh.write(f"# mean-reverting random-walk tower moment, seed={seed}, "
                 f"samples={samples}\n")
        fh.write("t [s],tower_moment [N*m]\n")
        fh.writelines(f"{dt * k:.6f},{s}\n" for k, s in enumerate(texts))
    return np.array(texts, dtype=float)


WORKLOADS = {w.name: w for w in (Simulate, Campaign, Fatigue)}
