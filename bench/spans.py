"""In-memory spans around calls into fowtctl's layers.

The tracer lives in the benchmark, not in the program: `instrument`
replaces each listed function with a wrapper that records a span (name,
start, end, parent) and, where a hook is given, a few work counts taken
from the call's arguments and result.  Names that other fowtctl modules
re-bound with `from .x import f` are replaced too, so a call is traced
whichever module makes it.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into the tracer's span list


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children.get(i, []), key=lambda c: c.start):
            lo, hi = max(c.start, reach, s.start), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


class Tracer:
    """Records spans of one thread; counts accumulate by name."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx].end = time.perf_counter()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result
        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per name: summed self time, call count and share of the roots'
        total duration (the traced wall)."""
        selfs = self_times(self.spans)
        wall = self.wall()
        out: dict[str, dict[str, float]] = {}
        for s, st in zip(self.spans, selfs):
            row = out.setdefault(s.name, {"self_s": 0.0, "calls": 0})
            row["self_s"] += st
            row["calls"] += 1
        for row in out.values():
            row["share"] = row["self_s"] / wall if wall > 0 else 0.0
        return out

    def wall(self) -> float:
        return sum(s.end - s.start for s in self.spans if s.parent is None)


def _steps(tr, args, kwargs, ts):
    tr.count("sim.steps", max(len(ts) - 1, 0))


def _rainflow(tr, args, kwargs, cycles):
    signal = args[0] if args else kwargs["signal"]
    tr.count("fatigue.samples_in", len(signal))
    tr.count("fatigue.cycles", len(cycles))


def _turning_points(tr, args, kwargs, pts):
    signal = args[0] if args else kwargs["signal"]
    tr.count("fatigue.tp_in", len(signal))
    tr.count("fatigue.tp_kept", len(pts))


def _from_csv(tr, args, kwargs, ts):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tr.count("io.rows_read", len(ts))
    tr.count("io.bytes_read", os.path.getsize(path))


# (module, attribute path, hook); the cmd_* functions and main are the CLI
# layer, main being the root span of every traced command.
TARGETS = [
    ("fowtctl.cli", "main", None),
    ("fowtctl.cli", "cmd_simulate", None),
    ("fowtctl.cli", "cmd_campaign", None),
    ("fowtctl.cli", "cmd_fatigue", None),
    ("fowtctl.config", "load_run_config", None),
    ("fowtctl.gains", "synthesize", None),
    ("fowtctl.model", "close_loop", None),
    ("fowtctl.stability", "modal_report", None),
    ("fowtctl.sim", "jonswap_wave", None),
    ("fowtctl.sim", "build_inputs", None),
    ("fowtctl.sim", "simulate", _steps),
    ("fowtctl.sim", "TimeSeries.window", None),
    ("fowtctl.sim", "TimeSeries.to_csv", None),
    ("fowtctl.sim", "TimeSeries.from_csv", _from_csv),
    ("fowtctl.fatigue", "turning_points", _turning_points),
    ("fowtctl.fatigue", "rainflow", _rainflow),
    ("fowtctl.fatigue", "damage_equivalent_load", None),
    ("fowtctl.fatigue", "miner_damage", None),
]


def span_name(module: str, attr: str) -> str:
    return f"{module.removeprefix('fowtctl.')}.{attr}"


def instrument(tracer: Tracer, targets=TARGETS) -> list[tuple]:
    """Replace every target, and every fowtctl module-level alias of it,
    with a traced wrapper.  The fowtctl modules must already be imported.
    Returns the replacements as (owner, key, original) for `restore`."""
    patches = []
    for module, attr, hook in targets:
        name = span_name(module, attr)
        owner = sys.modules[module]
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        if isinstance(owner, type):
            raw = owner.__dict__[leaf]
            if isinstance(raw, classmethod):
                wrapper = classmethod(tracer.wrap(name, raw.__func__, hook))
            else:
                wrapper = tracer.wrap(name, raw, hook)
            patches.append((owner, leaf, raw))
            setattr(owner, leaf, wrapper)
            continue
        original = getattr(owner, leaf)
        wrapper = tracer.wrap(name, original, hook)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "fowtctl" or mod_name.startswith("fowtctl."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
    return patches


def restore(patches: list[tuple]) -> None:
    for owner, key, original in reversed(patches):
        setattr(owner, key, original)


def layer_metrics(tracer: Tracer, targets=TARGETS) -> dict[str, float]:
    """Flat metric dict: <span>.self_s/.calls/.share for every target
    (zero when not called) plus the derived counts."""
    summary = tracer.summary()
    out: dict[str, float] = {}
    for module, attr, _ in targets:
        name = span_name(module, attr)
        row = summary.get(name, {"self_s": 0.0, "calls": 0, "share": 0.0})
        out[f"{name}.self_s"] = row["self_s"]
        out[f"{name}.calls"] = row["calls"]
        out[f"{name}.share"] = row["share"]
    c = tracer.counts
    steps = c.get("sim.steps", 0)
    out["sim.steps"] = steps
    out["sim.ns_per_step"] = (out["sim.simulate.self_s"] * 1e9 / steps
                              if steps else 0.0)
    out["fatigue.samples_in"] = c.get("fatigue.samples_in", 0)
    tp_in = c.get("fatigue.tp_in", 0)
    out["fatigue.turning_points.kept_ratio"] = (
        c.get("fatigue.tp_kept", 0) / tp_in if tp_in else 0.0)
    out["fatigue.cycles"] = c.get("fatigue.cycles", 0)
    out["io.rows_read"] = c.get("io.rows_read", 0)
    out["io.bytes_read"] = c.get("io.bytes_read", 0)
    out["trace.wall_s"] = tracer.wall()
    return out
