"""Each script under scripts/ runs to completion on tiny arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *argv],
                          capture_output=True, text=True, env=env, timeout=120)


TINY_ARGS = {
    "compare_decomposition_error.py": ["--rows", "32", "--cols", "48", "--ranks", "2",
                                       "--configs", "2,2,fp16,16,16", "--seeds", "1"],
    "budget_allocation_demo.py": ["--budgets", "2.5,4.2", "--rank", "2"],
    "solver_scale.py": ["--matrices", "2", "--budgets", "3.0"],
    "decompose_profile.py": ["--shape", "64x96", "--iters", "1", "--rank", "4"],
}


@pytest.mark.parametrize("name", sorted(TINY_ARGS))
def test_script_runs(name):
    if name == "decompose_profile.py" and not sys.platform.startswith("linux"):
        pytest.skip("reads /proc/self/statm")
    proc = run_script(name, *TINY_ARGS[name])
    assert proc.returncode == 0, proc.stderr


def test_budget_demo_with_no_feasible_budget():
    proc = run_script("budget_allocation_demo.py", "--budgets", "1.0", "--rank", "2")
    assert proc.returncode == 0, proc.stderr
    assert "infeasible" in proc.stdout
    assert proc.stdout.rstrip().endswith("no budget is feasible")


def test_every_script_is_run():
    assert sorted(p.name for p in (ROOT / "scripts").glob("*.py")) == sorted(TINY_ARGS)
