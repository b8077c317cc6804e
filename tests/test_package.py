import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fowtctl

# the variables OpenBLAS reads its thread count from
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _skip_thread_count_unless_openblas_on_linux():
    # the count is read from /proc, and only OpenBLAS reads these variables
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    if sys.platform != "linux" or "openblas" not in blas.lower():
        pytest.skip(f"thread count not checked: {sys.platform}, BLAS {blas}")


def test_every_exported_name_resolves():
    missing = [name for name in fowtctl.__all__ if not hasattr(fowtctl, name)]
    assert missing == []
    assert len(set(fowtctl.__all__)) == len(fowtctl.__all__)


def test_readme_library_sketch_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library sketch\n\n```python\n", 1)[1].split("```", 1)[0]
    assert "loop_stable(loop.closed)" in block
    exec(compile(block, "README.md", "exec"), {})
    phi_nmpz, stable, del_tower = capsys.readouterr().out.split()
    assert (phi_nmpz, stable) == ("False", "True") and float(del_tower) > 0.0


def _import_fowtctl(preset: dict, numpy_first: bool = False) -> dict:
    """In a fresh interpreter whose environment holds no thread-count
    variable but `preset`: import fowtctl (after numpy, if `numpy_first`)
    and report the thread variables and the process's thread count before
    and after that import."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(preset)
    src = str(Path(fowtctl.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = f"""
import json, os, sys

def state():
    threads = None
    if sys.platform == "linux":
        with open("/proc/self/status") as fh:
            threads = next(int(line.split()[1]) for line in fh
                           if line.startswith("Threads:"))
    return {{"env": {{k: os.environ[k] for k in {THREAD_VARS!r}
                    if k in os.environ}}, "threads": threads}}

if {numpy_first!r}:
    import numpy
before = state()
import fowtctl
print(json.dumps({{"before": before, "after": state()}}))
"""
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_fowtctl_loads_numpy_with_one_blas_thread():
    # no idle OpenBLAS worker, and the variable that asked for one thread
    # is gone again, so child processes inherit the caller's environment
    seen = _import_fowtctl({})
    assert seen["after"]["env"] == {}
    _skip_thread_count_unless_openblas_on_linux()
    assert seen["after"]["threads"] == 1


@pytest.mark.parametrize("var", THREAD_VARS)
def test_a_thread_count_the_caller_chose_wins(var):
    if (os.cpu_count() or 1) < 2:
        pytest.skip("OpenBLAS starts no second thread on one CPU")
    seen = _import_fowtctl({var: "2"})
    assert seen["after"]["env"] == {var: "2"}
    _skip_thread_count_unless_openblas_on_linux()
    assert seen["after"]["threads"] == 2


def test_numpy_imported_first_is_left_as_it_is():
    seen = _import_fowtctl({}, numpy_first=True)
    assert seen["after"] == seen["before"]
    assert seen["after"]["env"] == {}
