"""Every value type is frozen and holds read-only arrays of its own.

A verdict is read off values that were checked once on construction, so no
write made afterwards may reach them: assigning any attribute raises
``FrozenInstanceError``, every ndarray a value holds is read-only, and no
such array shares memory with a writeable argument it came from. No value
type is an exception.
"""
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest

from udmlab import (
    ChoiMatrix,
    DensityMatrix,
    DynamicalMap,
    Gate,
    KrausSet,
    PureState,
    TimeGrid,
    Trajectory,
    induced_map,
    is_cptp,
)

K_CPI = np.diag([0.0, 0.0, 0.0, np.pi])
ENV = DensityMatrix(np.eye(2) / 2)


def _values():
    """(value, {field: the array it was given}) for each value type that holds arrays."""
    amplitudes = np.array([1.0, 0.0, 0.0, 1.0j])
    matrix = np.eye(2, dtype=complex) / 2
    generator, unitary = K_CPI.astype(complex), np.diag([1, 1, 1, -1]).astype(complex)
    superoperator = np.eye(4, dtype=complex)
    choi = np.eye(4, dtype=complex) / 2
    states = np.stack([np.eye(4, dtype=complex) / 4] * 5)  # writeable: it is copied
    operators, weights = np.stack([np.eye(2, dtype=complex)] * 2) / np.sqrt(2), np.ones(2) / 2
    return [
        (PureState(amplitudes), {"amplitudes": amplitudes}),
        (DensityMatrix(matrix), {"matrix": matrix}),
        (Gate(generator, 1.0, unitary), {"generator": generator, "unitary": unitary}),
        (DynamicalMap(superoperator, ENV, (0.0, 1.0), 1), {"superoperator": superoperator}),
        (ChoiMatrix(choi), {"matrix": choi}),
        (Trajectory(TimeGrid(0, 1, 4), states), {"joint_states": states}),
        (KrausSet(operators, weights), {"operators": operators, "weights": weights}),
    ]


def test_a_later_write_to_a_density_matrix_argument_cannot_break_a_verdict():
    m = np.eye(2, dtype=complex) / 2
    env = DensityMatrix(m)
    m[0, 0] = 5  # the caller's own array: the checked state held it before
    assert env.matrix[0, 0] == 0.5
    assert is_cptp(induced_map(K_CPI, env, 1.0))[:2] == (True, True)


def test_every_value_is_frozen_and_holds_read_only_arrays():
    for value, _ in _values():
        held = vars(value)
        assert any(isinstance(a, np.ndarray) for a in held.values()), type(value).__name__
        for name, attr in held.items():
            assert not (isinstance(attr, np.ndarray) and attr.flags.writeable), name
        # a field, a derived attribute, a property such as n_qubits or a new name
        for name in [*held, "n_qubits"]:
            with pytest.raises(FrozenInstanceError):
                setattr(value, name, 5)


def test_no_held_array_shares_memory_with_its_argument():
    for value, given in _values():
        for name, attr in vars(value).items():
            if isinstance(attr, np.ndarray):
                assert not any(np.shares_memory(attr, a) for a in given.values()), name


def test_a_state_has_exactly_one_field():
    assert [f.name for f in fields(PureState)] == ["amplitudes"]
    assert [f.name for f in fields(DensityMatrix)] == ["matrix"]
