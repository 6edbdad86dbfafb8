"""One table of malformed scalar arguments, one row per (entry point, value).

Every public entry point passes each scalar argument once through
``tolerances._real`` or ``tolerances._integer``, so each row must raise a
``ValueError`` whose message starts with the argument's name. A value that
is no finite real number (or no integer where a count or qubit is meant)
is refused everywhere, booleans included; 0 and -1 are refused where the
value must be positive or is a 1-based qubit. A second table holds
malformed arguments that are no scalar: a state of the wrong type or
qubit count, a generator that is not a Hermitian 4x4 matrix, a qubit that
is not 1 or 2, a time beyond the phase bound and an interval that is no
pair of finite times. Each passes through one of ``states._state``,
``linalg._hermitian``, ``tolerances._which`` and ``linalg._check_phase``,
so each message starts with the argument's name as well.
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
    apply,
    apply_map,
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
    local_pair_maps,
    local_phase,
    matexp_hermitian,
    named_state,
    negativity,
    partial_trace,
    product_state,
    pseudo_inverse,
    pure_entanglement,
    run_circuit,
    trace_distance,
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
PSI1 = named_state("+")
PSI2 = product_state(["0", "1"])
GRID = TimeGrid(0.0, 1.0, 4)
# a 4x4 generator that is not Hermitian: i (X (x) 1)
SKEW = 1j * np.kron(X, np.eye(2))

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
    ("DynamicalMap", "which_qubit",
     "qubit", lambda v: DynamicalMap(np.eye(4), None, (0.0, 1.0), v)),
    ("DynamicalMap-t_a", "interval start",
     "real", lambda v: DynamicalMap(np.eye(4), None, (v, 1.0), 1)),
    ("DynamicalMap-t_b", "interval end",
     "real", lambda v: DynamicalMap(np.eye(4), None, (0.0, v), 1)),
    ("induced_map-t", "t", "positive", lambda v: induced_map(K, ENV, v)),
    ("induced_map-which", "which", "qubit", lambda v: induced_map(K, ENV, 1.0, which=v)),
    ("is_cptp", "tol", "positive", lambda v: is_cptp(MAP, tol=v)),
    ("witness-t1", "t1", "positive", lambda v: udm_witness_subinterval(K, RHO, v, 1.0)),
    ("witness-t_star", "t_star", "positive", lambda v: udm_witness_subinterval(K, RHO, 0.5, v)),
    ("witness-which", "which",
     "qubit", lambda v: udm_witness_subinterval(K, RHO, 0.5, 1.0, which=v)),
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


# (id, call, the message it must match); every message starts with the argument's name
STRUCTURED = [
    # a PureState where a DensityMatrix is meant: AttributeError on .dim or .matrix before
    ("induced_map-pure-env", lambda: induced_map(K, PSI1, 1.0),
     "^env must be a DensityMatrix, got PureState$"),
    ("local_pair_maps-pure-rho1", lambda: local_pair_maps(K, PSI1, ENV, 1.0),
     "^rho1 must be a DensityMatrix"),
    ("local_pair_maps-pure-rho2", lambda: local_pair_maps(K, ENV, PSI1, 1.0),
     "^rho2 must be a DensityMatrix"),
    ("apply_map-pure", lambda: apply_map(MAP, PSI1), "^rho must be a DensityMatrix"),
    ("witness-pure", lambda: udm_witness_subinterval(K, PSI2, 0.5, 1.0),
     "^rho_in must be a DensityMatrix"),
    ("evolve_trajectory-pure", lambda: evolve_trajectory(K, PSI2, GRID),
     "^rho_in must be a DensityMatrix"),
    ("negativity-pure", lambda: negativity(PSI2), "^rho must be a DensityMatrix"),
    ("trace_distance-pure-a", lambda: trace_distance(PSI1, ENV), "^a must be a DensityMatrix"),
    ("trace_distance-pure-b", lambda: trace_distance(ENV, PSI1), "^b must be a DensityMatrix"),
    # the reverse: a DensityMatrix where a PureState is meant
    ("run_circuit-density", lambda: run_circuit(QFT2, RHO),
     "^input_state must be a PureState, got DensityMatrix$"),
    ("densify-density", lambda: densify(ENV), "^psi must be a PureState"),
    ("pure_entanglement-density", lambda: pure_entanglement(RHO), "^psi must be a PureState"),
    ("product_state-density-factor", lambda: product_state(["0", ENV]),
     r"^factors\[1\] must be a PureState"),
    # accepted silently before: no check of the environment state at all
    ("DynamicalMap-pure-env", lambda: DynamicalMap(np.eye(4), PSI1, (0.0, 1.0), 1),
     "^environment_state must be a DensityMatrix"),
    # a wrong qubit count
    ("induced_map-2-qubit-env", lambda: induced_map(K, RHO, 1.0),
     "^env must be a 1-qubit state, got 2 qubits$"),
    ("DynamicalMap-2-qubit-env", lambda: DynamicalMap(np.eye(4), RHO, (0.0, 1.0), 1),
     "^environment_state must be a 1-qubit state"),
    ("apply_map-2-qubit", lambda: apply_map(MAP, RHO), "^rho must be a 1-qubit state"),
    ("witness-1-qubit", lambda: udm_witness_subinterval(K, ENV, 0.5, 1.0),
     "^rho_in must be a 2-qubit state"),
    ("evolve_trajectory-1-qubit", lambda: evolve_trajectory(K, ENV, GRID),
     "^rho_in must be a 2-qubit state"),
    ("negativity-1-qubit", lambda: negativity(ENV), "^rho must be a 2-qubit state"),
    ("trace_distance-mixed-sizes", lambda: trace_distance(ENV, RHO),
     "^b must be a 1-qubit state, got 2 qubits$"),
    ("run_circuit-3-qubit", lambda: run_circuit(QFT2, product_state("000")),
     "^input_state must be a 2-qubit state, got 3 qubits$"),
    ("pure_entanglement-1-qubit", lambda: pure_entanglement(PSI1), "^psi must be a 2-qubit state"),
    ("apply-1-qubit", lambda: apply(GATE, PSI1), "^state must be a 2-qubit state"),
    # a generator that is 2x2, or 4x4 and not Hermitian
    # numpy's matmul raised on the core dimension of the 2x2 generator
    ("witness-2x2-generator", lambda: udm_witness_subinterval(np.eye(2), RHO, 0.5, 1.0),
     r"^generator must be 4x4, got \(2, 2\)$"),
    ("induced_map-2x2-generator", lambda: induced_map(np.eye(2), ENV, 1.0),
     r"^generator must be 4x4, got \(2, 2\)$"),
    ("evolve_trajectory-2x2-generator", lambda: evolve_trajectory(np.eye(2), RHO, GRID),
     r"^generator must be 4x4, got \(2, 2\)$"),
    ("induced_map-skew-generator", lambda: induced_map(SKEW, ENV, 1.0),
     "^generator must be Hermitian"),
    ("witness-skew-generator", lambda: udm_witness_subinterval(SKEW, RHO, 0.5, 1.0),
     "^generator must be Hermitian"),
    ("evolve_trajectory-skew-generator", lambda: evolve_trajectory(SKEW, RHO, GRID),
     "^generator must be Hermitian"),
    ("matexp_hermitian-skew-generator", lambda: matexp_hermitian(SKEW, 1.0),
     "^generator must be Hermitian"),
    ("matexp_hermitian-vector", lambda: matexp_hermitian(np.ones(4), 1.0),
     "^generator: expected a matrix"),
    ("partial_trace-2x2", lambda: partial_trace(np.eye(2) / 2, 1),
     r"^rho must be 4x4, got \(2, 2\)$"),
    ("partial_trace-skew", lambda: partial_trace(SKEW, 1), "^rho must be Hermitian"),
    # a qubit that is no 1 or 2
    ("induced_map-which-3", lambda: induced_map(K, ENV, 1.0, which=3),
     "^which must be 1 or 2, got 3$"),
    ("witness-which-3", lambda: udm_witness_subinterval(K, RHO, 0.5, 1.0, which=3),
     "^which must be 1 or 2, got 3$"),
    ("DynamicalMap-which-3", lambda: DynamicalMap(np.eye(4), None, (0.0, 1.0), 3),
     "^which_qubit must be 1 or 2, got 3$"),
    ("partial_trace-keep-3", lambda: partial_trace(RHO.matrix, 3), "^keep must be 1 or 2, got 3$"),
    # a phase beyond max|eig K| |t| <= reconstruction / eps: an imprecise map or trajectory before
    ("induced_map-t-1e15", lambda: induced_map(c_phase(np.pi).generator, ENV, 1e15 + 1),
     "^t must keep the phase"),
    ("evolve_trajectory-1e15", lambda: evolve_trajectory(K, RHO, TimeGrid(0, 1e15 + 1, 1)),
     "^grid must keep the phase"),
    # accepted, and intermediate_map then raised a TypeError subtracting the ends
    ("map-interval-a-none", lambda: DynamicalMap(np.eye(4), None, ("a", None), 1),
     "^interval start must be a finite number, got 'a'$"),
    ("map-interval-float", lambda: DynamicalMap(np.eye(4), None, 1.0, 1),
     "^interval must be a pair"),
    ("map-interval-triple", lambda: DynamicalMap(np.eye(4), None, (0.0, 0.5, 1.0), 1),
     "^interval must be a pair"),
]


@pytest.mark.parametrize(
    "call, message", [pytest.param(call, message, id=i) for i, call, message in STRUCTURED]
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
