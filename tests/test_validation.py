"""One table of malformed scalar arguments, one row per (entry point, value).

Every public entry point passes each scalar argument once through
``tolerances._real`` or ``tolerances._integer``, so each row must raise a
``ValueError`` whose message starts with the argument's name. A value that
is no finite real number (or no integer where a count or qubit is meant)
is refused everywhere, booleans included; 0 and -1 are refused where the
value must be positive or is a 1-based qubit. A second, shorter table
holds malformed arguments that are no scalar: a generator of the wrong
shape and an interval that is no pair of finite times.
"""
import re

import numpy as np
import pytest

from udmlab import (
    DynamicalMap,
    Gate,
    PlacedGate,
    PureState,
    TimeGrid,
    build_qft,
    c_phase,
    densify,
    dft_matrix,
    equal_up_to_phase,
    evolve_trajectory,
    find_entangled_instant,
    gate_from_generator,
    generator_from_unitary,
    induced_map,
    is_cptp,
    is_entangling,
    local_phase,
    matexp_hermitian,
    named_state,
    partial_trace,
    product_state,
    pseudo_inverse,
    run_circuit,
    udm_witness_subinterval,
)
from conftest import X

K = np.diag([0.0, 0.0, 0.0, np.pi]).astype(complex)
ENV = densify(named_state("+"))
RHO = densify(product_state(["+", "+"]))
GATE = c_phase(1.0)
TRAJ = evolve_trajectory(K, RHO, TimeGrid(0.0, 1.0, 4))
MAP = induced_map(K, ENV, 1.0)
QFT2 = build_qft(2)
PSI2 = product_state(["0", "1"])

# (entry point, argument name as the message gives it, kind, call with the value)
ENTRY_POINTS = [
    ("matexp_hermitian", "t", "real", lambda v: matexp_hermitian(K, v)),
    ("partial_trace", "keep", "qubit", lambda v: partial_trace(RHO.matrix, v)),
    ("pseudo_inverse", "cutoff", "positive", lambda v: pseudo_inverse(np.eye(4), v)),
    ("Gate", "gate duration", "positive", lambda v: Gate(X, v)),
    ("generator_from_unitary", "duration", "positive", lambda v: generator_from_unitary(X, v)),
    ("c_phase", "phi", "real", lambda v: c_phase(v)),
    ("local_phase", "phi", "real", lambda v: local_phase(v)),
    ("is_entangling", "tol", "positive", lambda v: is_entangling(GATE, tol=v)),
    ("equal_up_to_phase", "tol", "positive", lambda v: equal_up_to_phase(X, X, tol=v)),
    ("TimeGrid-t_start", "grid t_start", "real", lambda v: TimeGrid(v, 1.0, 4)),
    ("TimeGrid-t_end", "grid t_end", "real", lambda v: TimeGrid(0.0, v, 4)),
    ("find_entangled_instant", "tol", "positive", lambda v: find_entangled_instant(TRAJ, tol=v)),
    ("DynamicalMap", "which_qubit", "qubit", lambda v: DynamicalMap(np.eye(4), None, (0.0, 1.0), v)),
    ("DynamicalMap-t_a", "interval start", "real", lambda v: DynamicalMap(np.eye(4), None, (v, 1.0), 1)),
    ("DynamicalMap-t_b", "interval end", "real", lambda v: DynamicalMap(np.eye(4), None, (0.0, v), 1)),
    ("induced_map-t", "t", "positive", lambda v: induced_map(K, ENV, v)),
    ("induced_map-which", "which", "qubit", lambda v: induced_map(K, ENV, 1.0, which=v)),
    ("is_cptp", "tol", "positive", lambda v: is_cptp(MAP, tol=v)),
    ("witness-t1", "t1", "positive", lambda v: udm_witness_subinterval(K, RHO, v, 1.0)),
    ("witness-t_star", "t_star", "positive", lambda v: udm_witness_subinterval(K, RHO, 0.5, v)),
    ("witness-which", "which", "qubit", lambda v: udm_witness_subinterval(K, RHO, 0.5, 1.0, which=v)),
    ("PlacedGate", "CPHASE phi", "phase", lambda v: PlacedGate("CPHASE", (1, 2), phi=v)),
    ("run_circuit", "tol", "positive", lambda v: run_circuit(QFT2, PSI2, tol=v)),
    # dft_matrix allocates 4^n entries: no row may reach it with n >= 12
    ("dft_matrix", "n", "size", lambda v: dft_matrix(v)),
]

NOT_A_NUMBER = [True, np.True_, float("nan"), float("inf"), float("-inf"), "1", None]
BAD_VALUES = {
    "real": NOT_A_NUMBER,
    "positive": NOT_A_NUMBER + [0, -1],
    "qubit": NOT_A_NUMBER + [0, -1],
    "phase": [v for v in NOT_A_NUMBER if v is not None],  # phi=None means a gate with no phase
    "size": [True, 2.0, 0, 9],
}

ROWS = [
    pytest.param(call, name, value, id=f"{entry}-{value!r}")
    for entry, name, kind, call in ENTRY_POINTS
    for value in BAD_VALUES[kind]
]


@pytest.mark.parametrize("call, name, value", ROWS)
def test_malformed_scalar_argument_raises_naming_it(call, name, value):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be"):
        call(value)


@pytest.mark.parametrize(
    "call, message",
    [
        # numpy's matmul raised on the core dimension of the 2x2 generator
        (lambda: udm_witness_subinterval(np.eye(2), RHO, 0.5, 1.0), r"^generator must be 4x4, got \(2, 2\)$"),
        # accepted, and intermediate_map then raised a TypeError subtracting the ends
        (lambda: DynamicalMap(np.eye(4), None, ("a", None), 1), "^interval start must be a finite number, got 'a'$"),
        (lambda: DynamicalMap(np.eye(4), None, 1.0, 1), "^interval must be a pair"),
        (lambda: DynamicalMap(np.eye(4), None, (0.0, 0.5, 1.0), 1), "^interval must be a pair"),
    ],
    ids=["witness-2x2-generator", "map-interval-a-none", "map-interval-float", "map-interval-triple"],
)
def test_malformed_structured_argument_raises_naming_it(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        # the phase w t overflowed, and a read-only all-NaN gate was built
        (lambda: gate_from_generator(np.diag([0.0, 0.0, 0.0, 3.0]), 1e308), "^t must keep the phase"),
        (lambda: matexp_hermitian(K, -1e308), "^t must keep the phase"),
        # the principal log divided the eigenphases by a t* of 5e-324
        (lambda: c_phase(1.0, 5e-324), "^duration must keep the phases"),
        # the norm overflowed, and the state became the zero vector
        (lambda: PureState([1e308, 0, 0, 0]), "norm inf"),
        (lambda: PureState([1e200, 1e200]), "norm inf"),
    ],
    ids=["gate-1e308", "matexp-minus-1e308", "c_phase-5e-324", "state-1e308", "state-1e200"],
)
def test_overflowing_values_are_refused_without_a_warning(call, message):
    # filterwarnings = error: a RuntimeWarning on the way would fail the test
    with pytest.raises(ValueError, match=message):
        call()
