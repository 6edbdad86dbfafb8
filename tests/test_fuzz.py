"""Malformed scenarios exit 2, never 3, with bounded memory: a fuzz property.

Each example takes one case of the golden corpus (``tests/golden/``) and
mutates one field of its scenario, or the whole scenario where it has no
field: the field is replaced, deleted or wrapped in a list. A replacement
is a JSON value that probes a refusal: null, +-1e308, 10^400, nested
lists, strings, or an ``input`` list of up to 20 state names. The mutated case runs through
``cli.main`` in process with every warning an error. It must exit 0 with
nothing on stderr, or 2 with exactly one ``error:`` line, and the memory
tracemalloc sees at its peak must stay under ``PEAK_BOUND``.
"""
import contextlib
import copy
import io
import json
import warnings
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from udmlab import cli
from udmlab.states import NAMED_AMPLITUDES
from conftest import OVERFLOWING_GENERATOR, traced_peak

GOLDEN = Path(__file__).parent / "golden"


def _case(case_dir: Path) -> tuple[list, dict]:
    """(argv, scenario) of a golden case; a case without a scenario file has {}."""
    argv = json.loads((case_dir / "case.json").read_text(encoding="utf-8"))["argv"]
    path = case_dir / "scenario.json"
    return argv, json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}


CASES = [_case(d) for d in sorted(GOLDEN.iterdir()) if d.is_dir()]
# the largest golden case, qft_n8_basis, peaks at 3.5 MiB; a 20-qubit input
# state alone takes 16 MiB
PEAK_BOUND = 8 * 2**20
VALUES = st.one_of(
    st.sampled_from([None, 1e308, -1e308, 10**400, "", "x", [], [[]], [[0, [1]], [1e308]], {}]),
    st.lists(st.sampled_from(sorted(NAMED_AMPLITUDES)), max_size=20),
)


def _paths(value, path=()):
    """The path of value and of every entry nested in it, as tuples of keys and indices."""
    yield path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, entry in items:
        yield from _paths(entry, path + (key,))


@st.composite
def mutated_cases(draw):
    argv, scenario = draw(st.sampled_from(CASES))
    # the scenario itself only where it has no field
    path = draw(st.sampled_from(list(_paths(scenario))[1:] or [()]))
    op = draw(st.sampled_from(["replace", "delete", "wrap"] if path else ["replace", "wrap"]))
    root = [copy.deepcopy(scenario)]
    *keys, last = (0,) + path
    holder = root
    for key in keys:
        holder = holder[key]
    if op == "delete":
        del holder[last]
    else:
        holder[last] = draw(VALUES) if op == "replace" else [holder[last]]
    return argv, root[0]


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(case=mutated_cases())
# the Hermitian defect m - m^dag overflowed with a warning: exit 3
@example(case=(["trajectory"], OVERFLOWING_GENERATOR))
# the 2^20-amplitude input state was built before its qubit count was refused
@example(case=(["qft"], {"n_qubits": 2, "input": ["+"] * 20}))
def test_mutated_golden_scenarios_exit_0_or_2_in_bounded_memory(case, tmp_path_factory):
    argv, scenario = case
    scenario_file = tmp_path_factory.getbasetemp() / "fuzz-scenario.json"
    scenario_file.write_text(json.dumps(scenario), encoding="utf-8")
    argv = [*argv, "--scenario", str(scenario_file),
            "--out", str(tmp_path_factory.getbasetemp() / "fuzz-report.json")]
    out, err, code = io.StringIO(), io.StringIO(), []
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        peak = traced_peak(lambda: code.append(cli.main(argv)))
    err = err.getvalue()
    assert code in ([0], [2]), err
    if code == [2]:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
    else:
        assert err == ""
    assert peak < PEAK_BOUND
