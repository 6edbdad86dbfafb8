"""Malformed input is refused by name, never by a stray exception: two fuzz properties.

Malformed scenarios exit 2, never 3, with bounded memory. Each example
takes one case of the golden corpus (``tests/golden/``) and
mutates one field of its scenario, or the whole scenario where it has no
field: the field is replaced, deleted or wrapped in a list. A replacement
is a JSON value that probes a refusal: null, +-1e308, 10^400, nested
lists, strings, or an ``input`` list of up to 20 state names. The mutated case runs through
``cli.main`` in process with every warning an error. It must exit 0 with
nothing on stderr, or 2 with exactly one ``error:`` line, and the memory
tracemalloc sees at its peak must stay under ``PEAK_BOUND``.

A malformed argument of a value type's constructor is a ``ValueError``.
Each example takes a valid call of ``PureState``, ``DensityMatrix``,
``Gate``, ``DynamicalMap``, ``ChoiMatrix``, ``Trajectory`` or ``TimeGrid``
and replaces one argument: by a value of the scenario vocabulary, a ragged
list, a set or a mapping, or, for an array, one of its shape filled with
5e307, 1e308, nan, strings or objects. Under every warning an error, the
call must raise a ``ValueError`` or build a value whose arrays, its own and
those of the values it holds, are read-only and finite.
"""
import contextlib
import copy
import io
import json
import warnings
from dataclasses import is_dataclass
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings, strategies as st

from udmlab import (
    ChoiMatrix, DensityMatrix, DynamicalMap, Gate, PureState, TimeGrid, Trajectory, cli,
)
from udmlab.states import NAMED_STATES
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
    st.lists(st.sampled_from(sorted(NAMED_STATES)), max_size=20),
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


# one valid call per value type; each example replaces one of its arguments
CALLS = [
    (PureState, ([1, 0, 0, 1j],)),
    (DensityMatrix, (np.eye(2) / 2,)),
    (Gate, (np.diag([0, 0, 0, np.pi]), 1.0, np.diag([1, 1, 1, -1]))),
    (DynamicalMap, (np.eye(4), DensityMatrix(np.eye(2) / 2), (0.0, 1.0), 1)),
    (ChoiMatrix, (np.eye(4) / 2,)),
    (Trajectory, (TimeGrid(0, 1, 4), np.stack([np.eye(4) / 4] * 5))),
    (TimeGrid, (0.0, 1.0, 4)),
]
ARGUMENTS = VALUES | st.sampled_from([[[1, 0], [0]], {1, 2}, {"a": 1}, ["a", "b"], [object(), 1]])


def _filled(a: np.ndarray) -> list:
    """Arrays of a's shape that probe a refusal: huge, nan, string and object entries."""
    with np.errstate(over="ignore"):
        scaled = a * 5e307
    return [np.full(a.shape, v) for v in (5e307, 1e308, -1e308, np.nan, "a", None)] + [
        scaled, a.astype(object)]


@st.composite
def mutated_calls(draw):
    make, args = draw(st.sampled_from(CALLS))
    i = draw(st.integers(0, len(args) - 1))
    values = ARGUMENTS
    if isinstance(args[i], np.ndarray):
        values |= st.sampled_from(_filled(args[i]))
    return make, args[:i] + (draw(values),) + args[i + 1:]


def _held_arrays(value):
    """The ndarrays a value holds, and those of the values it holds in turn."""
    for attr in vars(value).values():
        if isinstance(attr, np.ndarray):
            yield attr
        elif is_dataclass(attr):
            yield from _held_arrays(attr)


@settings(max_examples=1000, derandomize=True, database=None, deadline=None)
@given(call=mutated_calls())
# finite entries whose Choi spectrum overflows: a map with an infinite eigenvalue
@example(call=(DynamicalMap, (np.full((4, 4), 5e307), None, (0, 1), 1)))
# a stack of strings or objects: numpy's TypeError from isfinite
@example(call=(Trajectory, (TimeGrid(0, 1, 4), np.full((5, 4, 4), "a"))))
@example(call=(Trajectory, (TimeGrid(0, 1, 4), np.full((5, 4, 4), None))))
# amplitudes numpy cannot convert: a TypeError, or a ValueError naming nothing
@example(call=(PureState, ([object(), 1],)))
@example(call=(PureState, ({1, 2},)))
@example(call=(PureState, ({"a": 1},)))
@example(call=(PureState, ([[1, 0], [0]],)))
@example(call=(PureState, (["a", "b"],)))
# u u^dag overflowed with a RuntimeWarning
@example(call=(Gate, (np.zeros((2, 2)), 1.0, np.full((2, 2), 1e308))))
# an int past the float range: numpy's OverflowError
@example(call=(DensityMatrix, ([[10**400, 0], [0, 0]],)))
def test_mutated_value_calls_raise_value_error_or_hold_read_only_finite_arrays(call):
    make, args = call
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            value = make(*args)
        except ValueError:
            return
    for a in _held_arrays(value):
        assert not a.flags.writeable and np.isfinite(a).all(), (make.__name__, a)
