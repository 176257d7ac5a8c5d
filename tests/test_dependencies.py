"""numpy stays the only runtime dependency of the package."""

import subprocess
import sys
from pathlib import Path

import lqdec

# Runs in a fresh interpreter, so modules the test suite has loaded do
# not hide what importing the package pulls in.
CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import lqdec, lqdec.cli
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
# __mp_main__ is the alias multiprocessing registers for the main module
allowed = set(sys.stdlib_module_names) | {"numpy", "lqdec", "__mp_main__"}
print(" ".join(sorted(loaded - allowed)))
"""


def test_import_pulls_in_only_stdlib_and_numpy():
    package_root = Path(lqdec.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", CHILD, str(package_root)],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == []
