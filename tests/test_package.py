import os
import subprocess
import sys
from pathlib import Path

import pytest

import udmlab
from udmlab import circuits, dynamics, gates, linalg, maps, states


@pytest.mark.parametrize("module", [linalg, states, gates, dynamics, maps, circuits])
def test_package_reexports_each_public_name(module):
    for name in module.__all__:
        assert getattr(udmlab, name) is getattr(module, name), name


NEW_TOP_LEVEL_MODULES = """
import sys
before = set(sys.modules)
import udmlab, udmlab.cli
print(*sorted({name.partition(".")[0] for name in set(sys.modules) - before}))
"""


def test_udmlab_imports_numpy_and_no_other_third_party_module():
    env = {**os.environ, "PYTHONPATH": str(Path(udmlab.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", NEW_TOP_LEVEL_MODULES],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert {"numpy", "udmlab"} <= loaded
    assert loaded - sys.stdlib_module_names == {"numpy", "udmlab"}
