"""One benchmark repetition in a fresh process.

Usage: python3 bench/worker.py '<json spec>'

The spec names the source tree, the config, the CLI argument list, the
output directory, the result file, whether to trace, and the monotonic
time at which the parent started this process.  Set-up is the import of
fowtctl.cli plus load_run_config on the config, counted from that start
time; the command is then one call of fowtctl.cli.main.  CPU time covers
this process and every child it reaped (campaign pool workers), and peak
RSS is that of the largest of them.
"""

import json
import resource
import sys
import time
from pathlib import Path


def _cpu() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _peak_rss_kb() -> int:
    """Peak RSS of this process image.  ru_maxrss of RUSAGE_SELF would do,
    but Linux carries it over exec from the forking parent, so it would
    report the size of the parent run.py whenever that is larger; VmHWM
    starts afresh at exec."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _outputs(out: Path) -> tuple[int, int]:
    """Data rows (non-comment lines after each CSV's header) and bytes of
    every file the command wrote."""
    rows = size = 0
    for path in sorted(out.rglob("*")):
        if not path.is_file():
            continue
        size += path.stat().st_size
        if path.suffix == ".csv":
            with open(path) as fh:
                rows += max(sum(1 for line in fh if not line.startswith("#")) - 1, 0)
    return rows, size


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import fowtctl.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"fowtctl imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 3

    tracer = None
    if spec["trace"]:
        import spans
        tracer = spans.Tracer()
        spans.instrument(tracer)
    cli.load_run_config(spec["config"])
    setup_s = time.monotonic() - spec["t_spawn"]
    if tracer is not None:
        tracer.spans.clear()

    out = Path(spec["out"])
    cpu0 = _cpu()
    t0 = time.perf_counter()
    rc = cli.main(spec["argv"])
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu() - cpu0
    # pool workers fork from this process, so their peaks start from its size
    peak_kb = max(_peak_rss_kb(),
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    rows, size = _outputs(out)

    result = {"rc": rc, "setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
              "peak_rss_mb": peak_kb / 1024.0,
              "io.rows_written": rows, "io.bytes_written": size}
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer)
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
