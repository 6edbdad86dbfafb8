"""Byte-for-byte regression oracle for the command-line interface.

Each directory under ``tests/golden/`` is one case. ``case.json`` holds the
command line (without ``--scenario`` and ``--out``) and the exit code,
``scenario.json`` the scenario when the case has one, ``stdout.json`` the
report printed to stdout, and ``report.csv`` the CSV written beside
``--out`` when the command writes one. The test reruns every case through
``cli.main`` in process and requires the same bytes.

Most digits in the corpus do not depend on summation order: its qft cases
run basis inputs and the default input, and it holds no malformed
scenarios. The exception is each qft case's ``dft_residual``, the distance
of ``circuit_unitary``'s product from the exact DFT, summed by numpy rather
than a BLAS dot so the thread count cannot move it, which pins that
product's rounding bit for bit: scaling a CPHASE slice with numpy's fused complex
multiply, instead of one rounded real product per component, moves it in
the qft cases from n = 4 on. The trajectory cases' ``tau`` column
depends only on elementwise products of the density stack, read off the
column of its largest diagonal entry, not on LAPACK's eigenvectors. After
a deliberate change of a report format, rewrite the expected outputs with
``PYTHONPATH=src python tests/test_golden.py``, or only the named cases
with ``PYTHONPATH=src python tests/test_golden.py NAME...``. Only the
files whose bytes change are written, and each case prints ``unchanged``
or the files it rewrote, so a regeneration shows which cases moved.
"""
from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from udmlab import cli

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(p.name for p in GOLDEN.iterdir() if p.is_dir())


def _read(path: Path) -> str | None:
    return path.read_text(encoding="utf-8") if path.exists() else None


def run_case(case_dir: Path, out_dir: Path) -> tuple[int, str, str | None, str | None]:
    """(exit code, stdout, --out file, CSV file) of one case."""
    argv = list(json.loads((case_dir / "case.json").read_text(encoding="utf-8"))["argv"])
    if (case_dir / "scenario.json").exists():
        argv += ["--scenario", str(case_dir / "scenario.json")]
    out = out_dir / "report.json"
    argv += ["--out", str(out)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    return code, stdout.getvalue(), _read(out), _read(out.with_suffix(".csv"))


@pytest.mark.parametrize("name", CASES)
def test_golden_report(name, tmp_path, monkeypatch):
    monkeypatch.delenv(cli.ENV_TOL_OVERRIDE, raising=False)
    case_dir = GOLDEN / name
    code, stdout, written, csv = run_case(case_dir, tmp_path)
    case = json.loads((case_dir / "case.json").read_text(encoding="utf-8"))
    assert code == case["exit_code"]
    assert stdout == _read(case_dir / "stdout.json")
    assert written == stdout
    assert csv == _read(case_dir / "report.csv")


if __name__ == "__main__":
    import os
    import sys
    import tempfile

    names = sys.argv[1:] or CASES
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        sys.exit(f"unknown golden case(s) {unknown}; nothing written")
    os.environ.pop(cli.ENV_TOL_OVERRIDE, None)
    for name in names:
        case_dir = GOLDEN / name
        with tempfile.TemporaryDirectory() as tmp:
            code, stdout, _, csv = run_case(case_dir, Path(tmp))
        case = json.loads((case_dir / "case.json").read_text(encoding="utf-8"))
        case["exit_code"] = code
        # the case's files as they should read; None for a CSV the command does not write
        files = {"case.json": json.dumps(case, indent=2) + "\n", "stdout.json": stdout, "report.csv": csv}
        rewritten = [f for f, text in files.items() if _read(case_dir / f) != text]
        for f in rewritten:
            if files[f] is None:
                (case_dir / f).unlink()
            else:
                (case_dir / f).write_text(files[f], encoding="utf-8")
        print(f"{name}: " + ("rewrote " + ", ".join(rewritten) if rewritten else "unchanged"))
