"""fowtctl benchmark: CLI commands end to end, and a traced per-layer run.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source checkout; the program is imported from
`src/` there and nowhere else.  The seed generates every input before
timing starts.  Repetitions then run for --seconds, each in a fresh
process (bench/worker.py) that imports fowtctl.cli, loads the config
(set-up) and makes one `fowtctl.cli.main` call (the command); one client,
closed loop.  Every repetition's outputs are checked, and a failed
check, a non-zero exit or a missing output counts as a failed operation.

--trace 0 prints the end-to-end metrics (90th percentiles over
repetitions, see `centre`);
--trace 1 alternates traced and untraced repetitions and prints the
per-layer metrics of the traced ones plus the tracing overhead.  The last
line of stdout is the JSON result; the line before it is the run record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
# Children compile and reuse .pyc files the way an installed tool does,
# whatever the caller's environment says.
CHILD_ENV = {k: v for k, v in os.environ.items()
             if k != "PYTHONDONTWRITEBYTECODE"}
WORKER_TIMEOUT_S = 120.0
DEADLINE_S = 160.0  # no repetition starts after this, so the run ends < 180 s
MIN_REPS = 3


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout's own .git, read without leaving the checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in (src / "fowtctl").rglob("*")
                       if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_worker(argv: list[str], config: Path, out: Path, traced: bool,
               result: Path) -> tuple[dict | None, str]:
    """One fresh-process repetition; (measurements, error text)."""
    spec = {"src": str(SRC), "config": str(config), "argv": argv,
            "out": str(out), "trace": traced, "result": str(result)}
    log = result.with_suffix(".log")
    with open(log, "w") as fh:
        spec["t_spawn"] = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
            stdout=fh, stderr=subprocess.STDOUT, cwd=ROOT, env=CHILD_ENV,
            start_new_session=True)
        try:
            rc = proc.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return None, f"timed out after {WORKER_TIMEOUT_S:.0f} s"
    if rc != 0:
        return None, f"exit {rc}: {log.read_text()[-2000:]}"
    try:
        data = json.loads(result.read_text())
    except (OSError, ValueError) as exc:
        return None, f"no result: {exc}"
    if data["rc"] != 0:
        return None, f"fowtctl exited {data['rc']}: {log.read_text()[-2000:]}"
    return data, ""


def centre(values: list[float]) -> float:
    """90th percentile of the values: what 9 of 10 repetitions stay within.

    The shared host switches between a fast and a slow phase (the same
    command runs 1.5 to 1.8 times faster in the first), and a phase lasts
    from seconds to about a minute.  The share of fast time in one run
    varies from run to run, and a mean or median follows it; the 90th
    percentile reads the slow phase as long as it covers a tenth of the
    run.  Over two sets of ten 40 s runs per workload, its run-to-run
    IQR/median was at most 0.13, against 0.21 for the upper quartile and
    0.22 for the median."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def warm_up() -> None:
    """Compile the sources once, so no repetition pays the .pyc writes."""
    subprocess.run([sys.executable, "-c",
                    f"import sys; sys.path.insert(0, {str(SRC)!r}); "
                    "import fowtctl.cli"],
                   cwd=ROOT, env=CHILD_ENV, check=True,
                   timeout=WORKER_TIMEOUT_S)


def main() -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    t_begin = time.monotonic()

    import numpy
    import scipy
    load_start = os.getloadavg()
    wl = WORKLOADS[args.workload]()
    work = ROOT / ".bench_work" / f"{wl.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    attempted = failed = 0
    reps: list[tuple[bool, dict]] = []
    try:
        wl.prepare(args.seed, work / "inputs")
        warm_up()

        def attempt(i: int, argv_fn, traced: bool) -> dict | None:
            nonlocal attempted, failed
            out = work / f"rep{i}"
            attempted += 1
            data, err = run_worker(argv_fn(out), wl.config, out, traced,
                                   work / f"rep{i}.json")
            problems = [err] if err else wl.check(out)
            if problems:
                failed += 1
                print(f"rep {i} failed: " + "; ".join(problems), file=sys.stderr)
                return None
            return data

        if wl.name == "campaign-16":
            # once per invocation and untimed: the other --jobs setting must
            # write the same bytes as every timed repetition
            other = wl.jobs if args.trace else 1
            if attempt(0, lambda out: wl.argv(out, jobs=other), False):
                wl.other_jobs_csv = (work / "rep0" / "campaign.csv").read_bytes()

        # repetitions start while one more fits in --seconds, judged by the
        # median repetition so far, and never after the hard deadline
        t_measure = time.monotonic()
        durations: list[float] = []
        i = 0
        while (i < (2 if args.trace else MIN_REPS)
               or time.monotonic() - t_measure + statistics.median(durations)
               <= args.seconds):
            if time.monotonic() - t_begin > DEADLINE_S:
                break
            i += 1
            t_rep = time.monotonic()
            traced = bool(args.trace) and i % 2 == 0
            data = attempt(i, lambda out: wl.argv(out, bool(args.trace)), traced)
            if data is not None:
                reps.append((traced, data))
                print(f"rep {i}{' traced' if traced else ''}: "
                      f"setup {data['setup_s']:.4f} s, wall {data['wall_s']:.4f} s, "
                      f"cpu {data['cpu_s']:.4f} s", file=sys.stderr)
            shutil.rmtree(work / f"rep{i}", ignore_errors=True)
            durations.append(time.monotonic() - t_rep)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass

    plain = [d for t, d in reps if not t]
    traced_reps = [d for t, d in reps if t]
    if not plain or (args.trace and not traced_reps):
        print("error: no repetition succeeded", file=sys.stderr)
        return 1

    def stat(rows, key):
        return centre([r[key] for r in rows])

    if args.trace:
        # layer metrics carry no bound; medians keep the shares near 1
        def median(rows, key):
            return statistics.median(r[key] for r in rows)

        names = traced_reps[0]["layers"].keys()
        metrics = {n: statistics.median(d["layers"][n] for d in traced_reps)
                   for n in names}
        metrics["io.rows_written"] = median(traced_reps, "io.rows_written")
        metrics["io.bytes_written"] = median(traced_reps, "io.bytes_written")
        metrics["trace.overhead_s"] = (median(traced_reps, "wall_s")
                                       - median(plain, "wall_s"))
        units = {n: ("s" if n.endswith("_s") else "ns" if n.endswith("ns_per_step")
                     else "1" if n.endswith((".share", "kept_ratio"))
                     else "B" if "bytes" in n else "count") for n in metrics}
    else:
        wall = stat(plain, "wall_s")
        metrics = {"setup_s": stat(plain, "setup_s"), "wall_s": wall,
                   "cpu_s": stat(plain, "cpu_s"),
                   "throughput": wl.units / wall,
                   "peak_rss_mb": stat(plain, "peak_rss_mb")}
        units = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
                 "throughput": "1/s", "peak_rss_mb": "MB"}

    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "error_rate": failed / max(attempted, 1),
        "repetitions": len(reps),
        "traced_repetitions": len(traced_reps), "work_units": wl.units,
        "nproc": os.cpu_count(), "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_commit": git_commit(ROOT),
        "source_sha256": source_digest(SRC)}
    if args.trace and wl.name == "campaign-16":
        record["note"] = ("traced at --jobs 1: spans in pool workers would "
                          "be lost; trace.overhead_s compares --jobs 1 runs")
    if args.trace:
        wall = metrics["trace.wall_s"]
        print(f"traced wall {wall:.4f} s (root span cli.main), "
              f"overhead {metrics['trace.overhead_s']:+.4f} s")
        for n in sorted(n for n in metrics if n.endswith(".self_s")):
            base = n[:-len(".self_s")]
            if metrics[base + ".calls"]:
                print(f"  {base:32s} self {metrics[n]:9.4f} s  "
                      f"share {100 * metrics[base + '.share']:5.1f} %  "
                      f"calls {metrics[base + '.calls']:.0f}")
    print("run_record " + json.dumps(record))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    if not (SRC / "fowtctl" / "__init__.py").is_file():
        print(f"error: no fowtctl sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.exit(main())
