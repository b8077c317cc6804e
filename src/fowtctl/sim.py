"""Time-domain integration of the closed loop and disturbance synthesis.

Disturbances (blade-pitch steps, wind steps, monochromatic and JONSWAP
waves, wind files) are combined into one input sampler u(tt); the linear
closed loop is integrated with classical RK4 or with the exact
zero-order-hold discretization, both run as one affine recurrence
x[k+1] = P x[k] + f[k], evaluated as a blocked scan, on inputs sampled
once per stage time.
"""

from __future__ import annotations

import csv
import functools
import math
import random
import warnings
from dataclasses import dataclass, field
from itertools import islice

import numpy as np
from numpy.fft import irfft, rfftfreq

from .errors import ParameterError
from .model import CHANNELS, StateSpace

# disturbance kind -> the DisturbanceSpec fields build_inputs reads for it
DISTURBANCE_FIELDS = {
    "step-beta": ("amplitude", "onset"),
    "step-wind": ("amplitude", "onset"),
    "mono-wave": ("amplitude", "period"),
    "jonswap-wave": ("hs", "period", "gamma", "seed"),
    "wind-file": ("path",),
}


@dataclass
class TimeSeries:
    """Uniformly sampled multi-channel signal."""

    dt: float
    channels: dict[str, np.ndarray]
    units: dict[str, str] = field(default_factory=dict)
    t0: float = 0.0
    diverged_at: float | None = None  # time of the last sample of a diverged run

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ParameterError(f"dt must be > 0 (got {self.dt})")
        lengths = {len(v) for v in self.channels.values()}
        if len(lengths) > 1:
            raise ParameterError(f"channel lengths differ: {lengths}")

    def __len__(self) -> int:
        return len(next(iter(self.channels.values()))) if self.channels else 0

    @property
    def time(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(len(self))

    def window(self, t_start: float) -> "TimeSeries":
        """Sub-series from t_start on: copies of the channels from the
        first sample at or after t_start."""
        t = self.time
        i = int(np.searchsorted(t, t_start))
        return TimeSeries(
            dt=self.dt,
            channels={k: v[i:].copy() for k, v in self.channels.items()},
            units=dict(self.units),
            t0=float(t[i]) if i < len(t) else self.t0,
            diverged_at=self.diverged_at,
        )

    def to_csv(self, path, header_lines: list[str] | None = None):
        """The series as CSV under the provenance lines, the last of them
        `diverged_at=<t>` when the run diverged."""
        if self.diverged_at is not None:
            header_lines = [*(header_lines or []), f"diverged_at={self.diverged_at!r}"]
        names = list(self.channels)
        columns = [self.time] + [self.channels[n] for n in names]
        write_csv(path, header_lines or [],
                  ["t [s]"] + [f"{n} [{self.units.get(n, '-')}]" for n in names],
                  "%.6f" + ",%.12g" * len(names), columns)

    @classmethod
    def from_csv(cls, path, channel: str) -> "TimeSeries":
        """The one channel `channel` of the series a CSV file holds, every
        column parsed and checked.  The channel is copied out of the
        parsed table, which is then freed: the time column is read only
        for t0 and dt."""
        try:
            # the provenance and header lines by csv (a header cell may be
            # quoted), then the body by numpy from the path, which reads
            # in blocks rather than line by line from a handle
            with open(path) as fh:
                reader = csv.reader(fh)
                head = next((r for r in reader
                             if r and not r[0].startswith("#")), None)
                skip = reader.line_num
        except (OSError, ValueError, csv.Error) as exc:
            raise ParameterError(f"cannot read series file {path}: {exc}") from exc
        if head is not None:
            arr = _load_table(path, "series file", skip, len(head))
        if head is None or len(arr) == 0 or arr.shape[1] != len(head):
            raise ParameterError(f"series file {path} needs a header row and "
                                 "data rows with one value per column")
        # name -> (column, unit); of two columns of one name the last counts
        columns = {}
        for i, col in enumerate(head[1:], 1):
            name, _, unit = col.partition(" [")
            columns[name.strip()] = i, unit.strip(" ]")
        if channel not in columns:
            raise ParameterError(f"channel {channel!r} not in {path} "
                                 f"(has {sorted(columns)})")
        i, unit = columns[channel]
        t = arr[:, 0]
        dt = float(t[1] - t[0]) if len(t) > 1 else 1.0
        return cls(dt=dt, channels={channel: arr[:, i].copy()},
                   units={channel: unit}, t0=float(t[0]))


def _first_bad_row(path, skip: int, width: int | None) -> str | None:
    """What is wrong with the first data row of a CSV file that is not
    `width` numbers (None: as many as the first row has), or None.  Rows
    count from 1 as np.loadtxt reads them: past `skip` lines, cut at `#`,
    and skipped only when nothing is left."""
    with open(path) as fh:
        lines = (line.rstrip("\n").partition("#")[0]
                 for line in islice(fh, skip, None))
        for row, line in enumerate(filter(None, lines), 1):
            cells = line.split(",")
            width = width or len(cells)
            if len(cells) != width:
                return (f"wrong number of values ({len(cells)} for {width} columns) "
                        f"in data row {row}")
            for cell in cells:
                try:
                    # float() also takes underscores and non-ASCII digits,
                    # which np.loadtxt refuses
                    float(cell if cell.isascii() and "_" not in cell else "x")
                except ValueError:
                    return f"non-numeric value {cell!r} in data row {row}"
    return None


def _load_table(path, what: str, skip: int = 0,
                width: int | None = None) -> np.ndarray:
    """The finite numbers of a CSV file past `skip` lines, as a 2-D array.
    A bad row ends as a ParameterError that names it: numpy numbers the
    failing row differently by fault, so on that path the file is read
    again by _first_bad_row."""
    bad = None
    try:
        with warnings.catch_warnings():
            # an empty body is reported by the caller, not warned about
            warnings.simplefilter("ignore", UserWarning)
            try:
                arr = np.loadtxt(path, delimiter=",", comments="#",
                                 skiprows=skip, ndmin=2)
            except ValueError:
                bad = _first_bad_row(path, skip, width)
                if bad is None:
                    raise
    except (OSError, ValueError) as exc:
        raise ParameterError(f"cannot read {what} {path}: {exc}") from exc
    # the whole table is tested first, so a clean one costs a single pass
    if bad is None and not np.isfinite(arr).all():
        row = int(np.argmax(~np.isfinite(arr).all(axis=1))) + 1
        bad = f"non-finite value in data row {row}"
    if bad is not None:
        raise ParameterError(f"{what} {path}: {bad}")
    return arr


_ROW_BLOCK = 1024


def write_header(fh, header_lines):
    """One `# ` comment line per provenance line."""
    for line in header_lines:
        fh.write(f"# {line}\n")


def csv_cell(text: str) -> str:
    """text as one CSV cell: quoted, with inner quotes doubled, when it
    holds a comma, a quote or a line break (the csv module's minimal
    quoting)."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv(path, header_lines, names, fmt, rows):
    """CSV file: the `# ` provenance lines, the column names, then one
    `fmt` line per row, each ending in CRLF as the csv module's default
    dialect does.  `rows` is either an iterable of row tuples, one `%`
    operation per row, or, for a numeric table, a list of its equal-length
    1-D array columns, formatted _ROW_BLOCK rows per `%` operation from
    column slices, so the whole table never exists as one array or as
    Python floats.  Column names and `%s` cells are written as given, so
    a cell that may hold a comma or quote goes through csv_cell first."""
    line = fmt + "\r\n"
    with open(path, "w", newline="") as fh:
        write_header(fh, header_lines)
        fh.write(",".join(names) + "\r\n")
        if isinstance(rows, list) and rows and isinstance(rows[0], np.ndarray):
            for i in range(0, len(rows[0]), _ROW_BLOCK):
                block = np.column_stack([c[i:i + _ROW_BLOCK] for c in rows])
                fh.write((line * len(block)) % tuple(block.ravel().tolist()))
        else:
            for row in rows:
                fh.write(line % row)


@dataclass(frozen=True)
class DisturbanceSpec:
    """One external input contribution.

    kind selects the target channel: step-beta feeds the open-loop blade
    pitch, step-wind and wind-file feed the wind speed, the wave kinds
    feed the wave forcing signal.
    """

    kind: str
    amplitude: float = 0.0  # step height or wave height, channel units
    period: float = 0.0     # wave period Tp, s
    onset: float = 0.0      # step onset time, s
    hs: float = 0.0         # significant wave height, m (jonswap)
    gamma: float = 1.0      # peak-enhancement factor (jonswap)
    seed: int | None = None
    path: str | None = None  # two-column CSV (t, v) for wind-file

    def __post_init__(self):
        if self.kind not in DISTURBANCE_FIELDS:
            raise ParameterError(f"unknown disturbance kind {self.kind!r}")
        if self.kind in ("mono-wave", "jonswap-wave") and self.period <= 0.0:
            raise ParameterError(f"{self.kind} requires period > 0")
        if self.hs < 0.0:
            raise ParameterError(f"hs must be >= 0 (got {self.hs})")
        if not self.gamma > 0.0:
            raise ParameterError(f"gamma must be > 0 (got {self.gamma})")
        if self.onset < 0.0:
            raise ParameterError(f"onset must be >= 0 (got {self.onset})")
        if self.kind == "jonswap-wave" and self.seed is None:
            raise ParameterError("jonswap-wave requires a seed")
        if self.seed is not None and self.seed < 0:
            raise ParameterError(f"seed must be >= 0 (got {self.seed})")
        if self.kind == "wind-file" and self.path is None:
            raise ParameterError("wind-file requires a path")


def jonswap_spectrum(f: np.ndarray, hs: float, tp: float, gamma: float) -> np.ndarray:
    """JONSWAP spectral density on frequency grid f (Hz), normalized so
    the zeroth moment equals (hs/4)^2."""
    f = np.asarray(f, dtype=float)
    fp = 1.0 / tp
    s = np.zeros_like(f)
    pos = f > 0.0
    fpos = f[pos]
    sigma = np.where(fpos <= fp, 0.07, 0.09)
    peak = np.exp(-((fpos - fp) ** 2) / (2.0 * sigma ** 2 * fp ** 2))
    shape = fpos ** -5 * np.exp(-1.25 * (fp / fpos) ** 4) * gamma ** peak
    m0 = np.trapezoid(shape, fpos)
    if m0 > 0.0:
        s[pos] = shape * (hs / 4.0) ** 2 / m0
    return s


def _smooth_length(n: int) -> int:
    """The least m >= n with no prime factor above 5, a length pocketfft
    transforms without its Bluestein fallback."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            m = p35
            while m < n:
                m *= 2
            best = min(best, m)
            p35 *= 3
        p5 *= 5
    return best


@functools.lru_cache(maxsize=8)
def _jonswap_amplitudes(n: int, dt: float, hs: float, tp: float,
                        gamma: float) -> np.ndarray:
    """sqrt(2 S(f) df) on the rfft grid of n samples at dt.  Formed once
    per sea state and grid, so the cases of a campaign, which differ only
    in their phases, share one read-only array."""
    f = rfftfreq(n, dt)
    df = f[1] if len(f) > 1 else 1.0
    amp = np.sqrt(2.0 * jonswap_spectrum(f, hs, tp, gamma) * df)
    amp.flags.writeable = False
    return amp


def _phases(key: str, count: int) -> np.ndarray:
    """count phases uniform on [0, 2 pi), drawn from the standard
    library's Mersenne Twister seeded with key: 53 random bits each, as
    random.random() takes them.  numpy.random is not used: importing it
    alone adds about 2.5 MB of resident memory to every command."""
    bits = np.frombuffer(random.Random(key).randbytes(8 * count), "<u8") >> 11
    return bits * (2.0 * math.pi / 2.0 ** 53)


def jonswap_wave(hs: float, tp: float, gamma: float, seed: int,
                 dt: float, t_end: float, section: int = 0,
                 case: int = 0) -> np.ndarray:
    """Irregular wave elevation (m) at dt * arange(n), n = round(t_end / dt)
    + 1: inverse-FFT of the JONSWAP spectrum with random phases, on the
    least 5-smooth length m >= n, of which the first n samples are kept.
    The phases come from one stream per (seed, section, case): section
    numbers a run's JONSWAP disturbances from 0, and case a campaign's
    cases from 0 (0 for a single run).  Deterministic for a given key."""
    if tp <= 0.0:
        raise ParameterError(f"tp must be > 0 (got {tp})")
    if t_end < 10.0 * tp:
        warnings.warn(f"duration {t_end} s short for spectral resolution "
                      f"(< 10*Tp = {10 * tp} s)", UserWarning, stacklevel=2)
    n = int(round(t_end / dt)) + 1
    m = _smooth_length(n)
    amp = _jonswap_amplitudes(m, dt, hs, tp, gamma)
    phases = _phases(f"jonswap-wave seed={seed} section={section} case={case}",
                     len(amp))
    spec = 0.5 * m * amp * np.exp(1j * phases)
    spec[0] = 0.0
    if m % 2 == 0:
        spec[-1] = 0.0
    return irfft(spec, n=m)[:n]


def load_wind_file(path):
    """Two-column CSV (t, v); returns the (t, v) sample arrays.  Every
    value must be finite and t strictly increasing, which np.interp
    needs to sample it; a single row is a constant wind."""
    data = _load_table(path, "wind file")
    if len(data) == 0:
        raise ParameterError(f"wind file {path} has no data rows")
    if data.shape[1] != 2:
        cols = "one column" if data.shape[1] == 1 else f"{data.shape[1]} columns"
        raise ParameterError(f"wind file {path} has {cols}; it needs two (t, v)")
    t = data[:, 0]
    steps = t[1:] > t[:-1]
    if not steps.all():
        raise ParameterError(f"wind file {path}: t must be strictly increasing "
                             f"(data row {int(np.argmin(steps)) + 2})")
    return t, data[:, 1]


def build_inputs(disturbances, dt: float, t_end: float, case: int = 0):
    """Combine disturbance specs into one sampler u(tt) of a time array.

    u(tt) returns the rows (beta_ol, tau_g_ol, v, w), one per time in tt;
    contributions to the same channel add: steps before wind files, mono
    waves before the summed irregular waves.  Wave series are synthesized
    here once and interpolated by the sampler; the JONSWAP disturbances
    are numbered from 0 in list order, and each number, with the campaign
    case index, keys its own phases."""
    steps, winds, monos, irregular = [], [], [], []
    for spec in disturbances:
        if spec.kind == "step-beta":
            steps.append((0, spec.onset, spec.amplitude))
        elif spec.kind == "step-wind":
            steps.append((2, spec.onset, spec.amplitude))
        elif spec.kind == "wind-file":
            winds.append(load_wind_file(spec.path))
        elif spec.kind == "mono-wave":
            monos.append((spec.period, spec.amplitude))
        elif spec.kind == "jonswap-wave":
            w = jonswap_wave(spec.hs, spec.period, spec.gamma, spec.seed, dt,
                             t_end, section=len(irregular), case=case)
            irregular.append((dt * np.arange(len(w)), w))

    def u(tt: np.ndarray) -> np.ndarray:
        rows = np.zeros((len(tt), 4))
        for col, onset, amp in steps:
            rows[:, col] += amp * (tt >= onset)
        for grid, values in winds:
            rows[:, 2] += np.interp(tt, grid, values)
        for tp, hw in monos:
            rows[:, 3] += 0.5 * hw * np.sin(2.0 * math.pi * tt / tp)
        if irregular:
            rows[:, 3] += sum(np.interp(tt, g, s) for g, s in irregular)
        return rows

    return u


_DIVERGENCE_NORM = 1e12


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling and squaring: the degree-18 Taylor polynomial of
    x = a / 2^s, squared s times, with s >= 0 the least for which
    2^s > 2 * ||a||_1.  So ||x||_1 < 0.5 and the truncated terms sum to
    less than 1e-22.  A matrix with a NaN or inf entry, or whose
    exponential overflows, gives NaN entries, never an exception."""
    eye = np.eye(len(a))
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.abs(a).sum(axis=0).max(initial=0.0)
        if not math.isfinite(norm):
            return np.full_like(a, math.nan)
        s = max(0, math.frexp(norm)[1] + 1)
        x = np.ldexp(a, -s)
        r = eye
        for k in range(18, 0, -1):
            r = eye + x @ r / k
        for _ in range(s):
            r = r @ r
    return r if np.isfinite(r).all() else np.full_like(r, math.nan)


def _one_step_map(a: np.ndarray, b: np.ndarray, dt: float, method: str):
    """One step of the linear loop as x[k+1] = P x[k] + sum_j G_j u(t_k + c_j dt).

    Returns (P, [(c_j, G_j), ...]).  For rk4 this is classical RK4's
    exact one-step map on x' = A x + B u, with u sampled at the step
    start, midpoint and end; for exact it is the zero-order-hold pair.
    """
    if method == "exact":
        # augmented exponential handles singular A exactly
        aug = np.zeros((8, 8))
        aug[:4, :4] = a
        aug[:4, 4:] = b
        phi_mat = _expm(aug * dt)
        return phi_mat[:4, :4], [(0.0, phi_mat[:4, 4:])]
    eye = np.eye(4)
    # an overflowing loop gives inf and nan here, and _recur flags the
    # run diverged at its first step
    with np.errstate(over="ignore", invalid="ignore"):
        ha = dt * a
        ha2 = ha @ ha
        ha3 = ha2 @ ha
        p = eye + ha + ha2 / 2.0 + ha3 / 6.0 + ha3 @ ha / 24.0
        g0 = dt / 6.0 * (eye + ha + ha2 / 2.0 + ha3 / 4.0) @ b
        g_half = dt / 6.0 * (4.0 * eye + 2.0 * ha + ha2 / 2.0) @ b
        g1 = dt / 6.0 * b
    return p, [(0.0, g0), (0.5, g_half), (1.0, g1)]


_BLOCK = 64
_POWER_LIMIT = 1e100


def _powers(p: np.ndarray) -> np.ndarray:
    """P^1 .. P^b stacked: the longest run of powers, at most _BLOCK,
    whose entries all stay below _POWER_LIMIT (P itself is always kept).
    All _BLOCK powers are formed first, and the run is cut after them
    with one reduction; the powers past an overflow are never kept."""
    pw = np.empty((_BLOCK, *p.shape))
    pw[0] = p
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, _BLOCK):
            np.dot(pw[k - 1], p, out=pw[k])
        big = ~(np.abs(pw[1:]).max(axis=(1, 2)) < _POWER_LIMIT)
    return pw[:1 + int(np.argmax(big))] if big.any() else pw


def _recur(p: np.ndarray, f: np.ndarray, x0: np.ndarray):
    """States of x[k+1] = P x[k] + f[k] from x[0] = x0, cut after the
    first state that overflows or leaves the divergence ball.

    Runs as a blocked scan over blocks of b steps (b from _powers).  In
    block j, y[i] = sum_{m<=i} P^(i-m) f[jb+m] is the state after step i
    from rest, found by a doubling scan; only the block starts are then
    stepped, and x[jb+i+1] = P^(i+1) x[jb] + y[i].  A kept state is at
    most 1e12 and every power below 1e100, so no term of a kept sample
    overflows where the per-step loop would not.

    Returns (states, diverged).  The recurrence is causal, so running on
    past a blow-up (under errstate) and cutting afterwards keeps every
    earlier sample.

    f is dropped once copied into the scan's work array, so a caller
    that passes it without keeping a reference of its own never holds
    the forcing, the work array and the states at once."""
    pw = _powers(p)
    b, m = pw.shape[:2]
    n = len(f)
    nb = -(-n // b)
    full, tail = divmod(n, b)
    # y[i, j] is step i of block j; the zero padding past step n is dropped.
    # Every product below is one (nb, m) @ (m, m) or (m, m) @ (m, nb)
    # per row of a stack, small enough for BLAS to keep on one thread;
    # one product over all blocks is split over threads on long runs,
    # which costs CPU and saves no wall time.
    y = np.empty((b, nb, m))
    y[:, :full] = f[:full * b].reshape(full, b, m).transpose(1, 0, 2)
    if tail:
        y[:tail, full] = f[full * b:]
        y[tail:, full] = 0.0
    del f
    starts = np.empty((nb, m))
    x = x0
    with np.errstate(over="ignore", invalid="ignore"):
        d = 1
        while d < b:
            y[d:] += y[:-d] @ pw[d - 1].T
            d *= 2
        # by index: a loop variable left on a row of y would keep y alive
        for j in range(nb):
            starts[j] = x
            x = pw[-1] @ x + y[-1, j]
        y += (pw @ starts.T).transpose(0, 2, 1)
        # the padded steps are written too and cut off by the view
        buf = np.empty((nb * b + 1, m))
        buf[0] = x0
        buf[1:].reshape(nb, b, m)[...] = y.transpose(1, 0, 2)
        del y
        states = buf[:n + 1]
        # one pass: nan and inf fail the comparison as well
        s = states[1:]
        bad = ~(np.sqrt(np.einsum("ij,ij->i", s, s)) <= _DIVERGENCE_NORM)
    if bad.any():
        return states[:int(np.argmax(bad)) + 2], True
    return states, False


def _forcing(u, t: np.ndarray, dt: float, stages) -> np.ndarray:
    """f[k] = sum_j G_j u(t[k] + c_j dt) for each step k, summed into one
    array from zeros, as sum() adds from 0 (so -0.0 reads 0.0)."""
    f = np.zeros((len(t) - 1, 4))
    with np.errstate(over="ignore", invalid="ignore"):
        for c, g in stages:
            # stage times as t[k] + c*dt, not t[k+1]: the two differ by an
            # ulp on some grid points, which would move a step onset by
            # one stage
            f += u(t[:-1] + c * dt) @ g.T
    return f


def simulate(loop: StateSpace, disturbances, dt: float, t_end: float,
             method: str = "rk4", case: int = 0) -> TimeSeries:
    """Integrate the closed loop from rest under the given disturbances,
    into the channels of model.CHANNELS: the states, then y = C x + D u
    of the loop's c and d.  case is the campaign case index that keys
    the JONSWAP phases (0 for a single run).  A run whose state
    overflows is truncated and flagged in diverged_at;
    divergence is a valid result for unstable parameter sets."""
    if dt <= 0.0 or t_end < dt:
        raise ParameterError("need dt > 0 and t_end >= dt")
    if method not in ("rk4", "exact"):
        raise ParameterError(f"unknown method {method!r}")

    n = int(round(t_end / dt)) + 1
    t = dt * np.arange(n)
    p, stages = _one_step_map(loop.closed, loop.b_full(), dt, method)
    u = build_inputs(disturbances, dt, t_end, case)
    # passed, not kept, so that _recur can free it
    states, diverged = _recur(p, _forcing(u, t, dt, stages), np.zeros(4))
    n = len(states)
    rows = u(t[:n])
    # the sampler holds the wave series: freed before the outputs are formed
    del u
    channels = dict(zip(CHANNELS, states.T))
    columns = [*states.T, *rows.T]
    with np.errstate(over="ignore", invalid="ignore"):
        for name, weights in zip(list(CHANNELS)[4:], np.hstack([loop.c, loop.d])):
            # a zero weight adds nothing, not the nan of 0 * inf that an
            # overflowed last state of a diverged run would give
            y = channels[name] = np.zeros(n)
            for weight, col in zip(weights, columns):
                if weight:
                    y += weight * col
    return TimeSeries(dt=dt, channels=channels, units=dict(CHANNELS),
                      diverged_at=float(t[n - 1]) if diverged else None)
