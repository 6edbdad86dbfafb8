import os
import re
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


@pytest.mark.parametrize("module", [linalg, states, gates, dynamics, maps, circuits])
def test_readme_tour_names_each_public_name(module):
    # the library tour's row of the module: `name` followed by a non-identifier character
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    rows = [line for line in readme.splitlines() if line.startswith(f"| `{module.__name__}`")]
    assert len(rows) == 1, module.__name__
    missing = [name for name in module.__all__ if not re.search(rf"`{name}\W", rows[0])]
    assert not missing, f"{module.__name__} row does not name {missing}"


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


FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_runs_after_it():
    pass
"""


def test_a_failing_property_is_reported_and_the_session_goes_on(tmp_path):
    # under this repo's ini settings: on a failure Hypothesis imports libcst, whose
    # import warning, made an error, ended pytest with an INTERNALERROR (exit 3)
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    ini = Path(__file__).parents[1] / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(ini), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", str(tmp_path / "test_property.py")],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
