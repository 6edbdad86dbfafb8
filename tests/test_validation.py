"""One table of malformed scalar arguments, one row per (entry point, value).

Every public entry point passes each scalar argument once through
``tolerances._real`` or ``tolerances._integer``, so each row must raise a
``ValueError`` whose message starts with the argument's name. A value that
is no finite real number (or no integer where a count or qubit is meant)
is refused everywhere, booleans included; 0 and -1 are refused where the
value must be positive or is a 1-based qubit, and a count outside its
bounds is refused under the same name as a count of the wrong type. A
second table holds malformed arguments that are no scalar: a state of the
wrong type or qubit count, a generator that is not a Hermitian 4x4 matrix,
a qubit that is not 1 or 2, a time beyond the phase bound and an interval
that is no pair of finite times, and a grid, trajectory, map, Choi matrix,
gate or state that is a plain array or tuple. Each passes through one of
``states._instance``, ``linalg._hermitian``, ``tolerances._integer`` with
the bounds (1, 2) and ``linalg._check_phase``. Every matrix argument
passes through ``linalg._matrix``, which quotes a refused shape (the
defect measures through its shape half, ``linalg._shaped``); a unitary
one through ``linalg._unitary``, which quotes the unitarity defect; a
state's dimension through ``states._qubit_count``; a bounded count or
index through ``tolerances._integer``; a name from a table through
``tolerances._choice``; a sequence, and no set or mapping, through
``tolerances._sequence``; and a time that must follow another through
``tolerances._real`` with open bounds. A grid whose span overflows, a
Hermitian or unitarity defect that overflows, a Choi spectrum that
overflows, a hand-built ``Trajectory`` whose arrays do not fit its grid or
are no numbers, amplitudes numpy cannot convert, two maps that do not
compose and a gate that is no 2-qubit gate are refused as well. Every
message starts with the argument's name, and each row pins it from its
start, most to its end. A property drives the name, sequence, bounded
real and bounded integer rules with arbitrary JSON-like values.
"""
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from udmlab import (
    ChoiMatrix,
    Circuit,
    DensityMatrix,
    DynamicalMap,
    Gate,
    PlacedGate,
    PureState,
    TimeGrid,
    Trajectory,
    apply,
    apply_map,
    build_qft,
    c_phase,
    choi,
    densify,
    dft_matrix,
    entanglement_profile,
    equal_up_to_phase,
    evolve_trajectory,
    find_entangled_instant,
    gate_from_generator,
    generator_from_unitary,
    hermiticity_defect,
    induced_map,
    intermediate_map,
    is_cptp,
    is_entangling,
    kraus_decompose,
    local_pair_maps,
    local_phase,
    matexp_hermitian,
    named_state,
    negativity,
    operator_schmidt_values,
    partial_trace,
    product_state,
    pseudo_inverse,
    pure_entanglement,
    run_circuit,
    trace_distance,
    udm_witness_subinterval,
    unitarity_defect,
    unitary_superoperator,
)
from udmlab.states import NAMED_STATES
from udmlab.tolerances import _choice, _integer, _real, _sequence
from conftest import X

K = np.diag([0.0, 0.0, 0.0, np.pi]).astype(complex)
ENV = densify(named_state("+"))
RHO = densify(product_state(["+", "+"]))
GATE = c_phase(1.0)
TRAJ = evolve_trajectory(K, RHO, TimeGrid(0.0, 1.0, 4))
MAP = induced_map(K, ENV, 1.0)
MAP_2 = induced_map(K, ENV, 2.0)
MAP_2_WHICH_2 = induced_map(K, ENV, 2.0, which=2)
MAP_2_ENV_0 = induced_map(K, densify(named_state("0")), 2.0)
QFT2 = build_qft(2)
PSI1 = named_state("+")
PSI2 = product_state(["0", "1"])
GRID = TimeGrid(0.0, 1.0, 4)
# a 4x4 generator that is not Hermitian: i (X (x) 1)
SKEW = 1j * np.kron(X, np.eye(2))
NOT_UNITARY = np.diag([1.0, 2.0]).astype(complex)
# the phase refusal at |t| = 1e15 under a generator of largest |eigenvalue| pi
PHASE_1E15 = (r" must keep the phase max\|eig K\| \* \|t\| within reconstruction / eps = "
              r"4\.5e\+06 rad, got 3\.14e\+15 rad at \|t\| = 1e\+15$")

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
    ("witness-tol", "tol", "positive", lambda v: udm_witness_subinterval(K, RHO, 0.5, 1.0, tol=v)),
    ("PlacedGate", "CPHASE phi", "phase", lambda v: PlacedGate("CPHASE", (1, 2), phi=v)),
    ("run_circuit", "tol", "positive", lambda v: run_circuit(QFT2, PSI2, tol=v)),
    # dft_matrix allocates 4^n entries: no row may reach it with n >= 12
    ("dft_matrix", "n", "size", lambda v: dft_matrix(v)),
    ("build_qft", "n", "size", lambda v: build_qft(v)),
    ("Circuit", "n_qubits", "size", lambda v: Circuit(v, ())),
    ("TimeGrid-steps", "grid steps", "steps", lambda v: TimeGrid(0.0, 1.0, v)),
]

NOT_A_NUMBER = [True, np.True_, float("nan"), float("inf"), float("-inf"), "1", None]
BAD_VALUES = {
    "real": NOT_A_NUMBER,
    "positive": NOT_A_NUMBER + [0, -1],
    "qubit": NOT_A_NUMBER + [0, -1],
    "phase": [v for v in NOT_A_NUMBER if v is not None],  # phi=None means a gate with no phase
    "size": [True, 2.0, 0, 9],
    "steps": [True, 4.0, 0, 100_001],
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
     "^rho1 must be a DensityMatrix, got PureState$"),
    ("local_pair_maps-pure-rho2", lambda: local_pair_maps(K, ENV, PSI1, 1.0),
     "^rho2 must be a DensityMatrix, got PureState$"),
    ("apply_map-pure", lambda: apply_map(MAP, PSI1),
     "^rho must be a DensityMatrix, got PureState$"),
    ("witness-pure", lambda: udm_witness_subinterval(K, PSI2, 0.5, 1.0),
     "^rho_in must be a DensityMatrix, got PureState$"),
    ("evolve_trajectory-pure", lambda: evolve_trajectory(K, PSI2, GRID),
     "^rho_in must be a DensityMatrix, got PureState$"),
    ("negativity-pure", lambda: negativity(PSI2), "^rho must be a DensityMatrix, got PureState$"),
    ("trace_distance-pure-a", lambda: trace_distance(PSI1, ENV),
     "^a must be a DensityMatrix, got PureState$"),
    ("trace_distance-pure-b", lambda: trace_distance(ENV, PSI1),
     "^b must be a DensityMatrix, got PureState$"),
    # the reverse: a DensityMatrix where a PureState is meant
    ("run_circuit-density", lambda: run_circuit(QFT2, RHO),
     "^input_state must be a PureState, got DensityMatrix$"),
    ("densify-density", lambda: densify(ENV), "^psi must be a PureState, got DensityMatrix$"),
    ("pure_entanglement-density", lambda: pure_entanglement(RHO),
     "^psi must be a PureState, got DensityMatrix$"),
    ("product_state-density-factor", lambda: product_state(["0", ENV]),
     r"^factors\[1\] must be a PureState, got DensityMatrix$"),
    # accepted silently before: no check of the environment state at all
    ("DynamicalMap-pure-env", lambda: DynamicalMap(np.eye(4), PSI1, (0.0, 1.0), 1),
     "^environment_state must be a DensityMatrix, got PureState$"),
    # a wrong qubit count
    ("induced_map-2-qubit-env", lambda: induced_map(K, RHO, 1.0),
     "^env must be a 1-qubit state, got 2 qubits$"),
    ("DynamicalMap-2-qubit-env", lambda: DynamicalMap(np.eye(4), RHO, (0.0, 1.0), 1),
     "^environment_state must be a 1-qubit state, got 2 qubits$"),
    ("apply_map-2-qubit", lambda: apply_map(MAP, RHO),
     "^rho must be a 1-qubit state, got 2 qubits$"),
    ("witness-1-qubit", lambda: udm_witness_subinterval(K, ENV, 0.5, 1.0),
     "^rho_in must be a 2-qubit state, got 1 qubits$"),
    ("evolve_trajectory-1-qubit", lambda: evolve_trajectory(K, ENV, GRID),
     "^rho_in must be a 2-qubit state, got 1 qubits$"),
    ("negativity-1-qubit", lambda: negativity(ENV), "^rho must be a 2-qubit state, got 1 qubits$"),
    ("trace_distance-mixed-sizes", lambda: trace_distance(ENV, RHO),
     "^b must be a 1-qubit state, got 2 qubits$"),
    ("run_circuit-3-qubit", lambda: run_circuit(QFT2, product_state("000")),
     "^input_state must be a 2-qubit state, got 3 qubits$"),
    ("pure_entanglement-1-qubit", lambda: pure_entanglement(PSI1),
     "^psi must be a 2-qubit state, got 1 qubits$"),
    ("apply-1-qubit", lambda: apply(GATE, PSI1), "^state must be a 2-qubit state, got 1 qubits$"),
    # a generator that is 2x2, or 4x4 and not Hermitian
    # numpy's matmul raised on the core dimension of the 2x2 generator
    ("witness-2x2-generator", lambda: udm_witness_subinterval(np.eye(2), RHO, 0.5, 1.0),
     r"^generator must be 4x4, got \(2, 2\)$"),
    ("induced_map-2x2-generator", lambda: induced_map(np.eye(2), ENV, 1.0),
     r"^generator must be 4x4, got \(2, 2\)$"),
    ("evolve_trajectory-2x2-generator", lambda: evolve_trajectory(np.eye(2), RHO, GRID),
     r"^generator must be 4x4, got \(2, 2\)$"),
    ("induced_map-skew-generator", lambda: induced_map(SKEW, ENV, 1.0),
     r"^generator must be Hermitian, got max\|m - m\^dag\| = 2$"),
    ("witness-skew-generator", lambda: udm_witness_subinterval(SKEW, RHO, 0.5, 1.0),
     r"^generator must be Hermitian, got max\|m - m\^dag\| = 2$"),
    ("evolve_trajectory-skew-generator", lambda: evolve_trajectory(SKEW, RHO, GRID),
     r"^generator must be Hermitian, got max\|m - m\^dag\| = 2$"),
    ("matexp_hermitian-skew-generator", lambda: matexp_hermitian(SKEW, 1.0),
     r"^generator must be Hermitian, got max\|m - m\^dag\| = 2$"),
    ("matexp_hermitian-vector", lambda: matexp_hermitian(np.ones(4), 1.0),
     r"^generator must be a square matrix, got \(4,\)$"),
    ("partial_trace-2x2", lambda: partial_trace(np.eye(2) / 2, 1),
     r"^rho must be 4x4, got \(2, 2\)$"),
    ("partial_trace-skew", lambda: partial_trace(SKEW, 1),
     r"^rho must be Hermitian, got max\|m - m\^dag\| = 2$"),
    # a qubit that is no 1 or 2: the count rule with the bounds (1, 2)
    ("induced_map-which-3", lambda: induced_map(K, ENV, 1.0, which=3),
     r"^which must be in \[1, 2\], got 3$"),
    ("witness-which-3", lambda: udm_witness_subinterval(K, RHO, 0.5, 1.0, which=3),
     r"^which must be in \[1, 2\], got 3$"),
    ("DynamicalMap-which-3", lambda: DynamicalMap(np.eye(4), None, (0.0, 1.0), 3),
     r"^which_qubit must be in \[1, 2\], got 3$"),
    ("partial_trace-keep-3", lambda: partial_trace(RHO.matrix, 3),
     r"^keep must be in \[1, 2\], got 3$"),
    # a phase beyond max|eig K| |t| <= reconstruction / eps: an imprecise map or trajectory before
    ("induced_map-t-1e15", lambda: induced_map(c_phase(np.pi).generator, ENV, 1e15 + 1),
     "^t" + PHASE_1E15),
    ("evolve_trajectory-1e15", lambda: evolve_trajectory(K, RHO, TimeGrid(0, 1e15 + 1, 1)),
     "^grid" + PHASE_1E15),
    # accepted, and intermediate_map then raised a TypeError subtracting the ends
    ("map-interval-a-none", lambda: DynamicalMap(np.eye(4), None, ("a", None), 1),
     "^interval start must be a finite number, got 'a'$"),
    ("map-interval-float", lambda: DynamicalMap(np.eye(4), None, 1.0, 1),
     "^interval must be a sequence of length 2, got 1.0$"),
    ("map-interval-triple", lambda: DynamicalMap(np.eye(4), None, (0.0, 0.5, 1.0), 1),
     r"^interval must be a sequence of length 2, got \(0.0, 0.5, 1.0\)$"),
    # a plain array or tuple where a grid, trajectory, map, Choi matrix or gate
    # is meant: AttributeError on .t_start, .joint_states, .superoperator,
    # .which_qubit, .eigenvalues or .n_qubits before
    ("evolve_trajectory-tuple-grid", lambda: evolve_trajectory(K, RHO, (0.0, 1.0, 4)),
     "^grid must be a TimeGrid, got tuple$"),
    ("entanglement_profile-array", lambda: entanglement_profile(TRAJ.joint_states),
     "^traj must be a Trajectory, got ndarray$"),
    ("find_entangled_instant-array", lambda: find_entangled_instant(TRAJ.joint_states),
     "^traj must be a Trajectory, got ndarray$"),
    ("apply_map-array", lambda: apply_map(MAP.superoperator, ENV),
     "^m must be a DynamicalMap, got ndarray$"),
    ("choi-array", lambda: choi(np.eye(4)), "^m must be a DynamicalMap, got ndarray$"),
    ("is_cptp-array", lambda: is_cptp(np.eye(4)), "^m must be a DynamicalMap, got ndarray$"),
    ("intermediate_map-array-short", lambda: intermediate_map(np.eye(4), MAP),
     "^e_short must be a DynamicalMap, got ndarray$"),
    ("intermediate_map-array-long", lambda: intermediate_map(MAP, np.eye(4)),
     "^e_long must be a DynamicalMap, got ndarray$"),
    ("kraus_decompose-array", lambda: kraus_decompose(np.eye(4)),
     "^c must be a ChoiMatrix, got ndarray$"),
    ("is_entangling-array", lambda: is_entangling(GATE.unitary), "^g must be a Gate, got ndarray$"),
    ("apply-array", lambda: apply(GATE.unitary, PSI2), "^g must be a Gate, got ndarray$"),
    # a Trajectory that does not fit its grid: a silently truncated profile, or
    # AttributeError on .times before
    ("Trajectory-none-grid", lambda: Trajectory(None, TRAJ.joint_states),
     "^grid must be a TimeGrid, got NoneType$"),
    ("Trajectory-short-states", lambda: Trajectory(GRID, TRAJ.joint_states[:3]),
     r"^joint_states must be an array of shape \(5, 4, 4\), got \(3, 4, 4\)$"),
    ("Trajectory-longer-grid", lambda: Trajectory(TimeGrid(0, 1, 10), TRAJ.joint_states),
     r"^joint_states must be an array of shape \(11, 4, 4\), got \(5, 4, 4\)$"),
    ("Trajectory-list-states", lambda: Trajectory(GRID, TRAJ.joint_states.tolist()),
     r"^joint_states must be an array of shape \(5, 4, 4\), got list$"),
    # states that are no density matrices: accepted, and the profile read tau 0
    ("Trajectory-not-densities", lambda: Trajectory(GRID, np.ones((5, 4, 4))),
     r"^joint_states must have trace 1, got \(4\+0j\)$"),
    # a malformed object, refused by a message that names the argument that
    # holds the defect and quotes its shape or value
    ("Circuit-9-qubits", lambda: Circuit(9, ()), r"^n_qubits must be in \[2, 8\], got 9$"),
    ("Gate-not-unitary", lambda: Gate(np.zeros((2, 2)), 1.0, NOT_UNITARY),
     r"^unitary must be a unitary matrix, got unitarity defect 3$"),
    ("generator_from_unitary-not-unitary",
     lambda: generator_from_unitary(np.kron(NOT_UNITARY, np.eye(2)), 1.0),
     "^u must be a unitary matrix, got unitarity defect 3$"),
    ("apply-array-state", lambda: apply(GATE, RHO.matrix),
     "^state must be a PureState or DensityMatrix, got ndarray$"),
    ("operator_schmidt_values-2x2", lambda: operator_schmidt_values(np.eye(2)),
     r"^u must be 4x4, got \(2, 2\)$"),
    ("is_entangling-1-qubit", lambda: is_entangling(Gate(X, 1.0)),
     "^g must be a 2-qubit gate, got 1 qubit$"),
    ("equal_up_to_phase-shapes", lambda: equal_up_to_phase(X, np.eye(4)),
     r"^a and b must have the same shape, got \(2, 2\) and \(4, 4\)$"),
    ("DynamicalMap-2x2", lambda: DynamicalMap(np.eye(2), None, (0.0, 1.0), 1),
     r"^superoperator must be 4x4, got \(2, 2\)$"),
    ("intermediate_map-qubits", lambda: intermediate_map(MAP, MAP_2_WHICH_2),
     "^e_long must act on qubit 1, got 2$"),
    ("intermediate_map-starts",
     lambda: intermediate_map(DynamicalMap(MAP.superoperator, ENV, (0.5, 1.0), 1), MAP_2),
     "^e_long must start at t0 = 0.5, got 0.0$"),
    ("intermediate_map-t1-outside", lambda: intermediate_map(MAP_2, MAP),
     r"^e_short interval end must be finite and in \(0.0, 1.0\), got 2.0$"),
    ("witness-t1-after-t_star", lambda: udm_witness_subinterval(K, RHO, 1.0, 0.5),
     "^t_star must be finite and > 1.0, got 0.5$"),
    ("intermediate_map-environments", lambda: intermediate_map(MAP, MAP_2_ENV_0),
     "^e_long must share e_short's environment state, got max deviation 0.5$"),
    ("DensityMatrix-1-d", lambda: DensityMatrix(np.ones(4)),
     r"^matrix must be a square matrix, got \(4,\)$"),
    ("DensityMatrix-not-square", lambda: DensityMatrix(np.ones((2, 4))),
     r"^matrix must be a square matrix, got \(2, 4\)$"),
    ("named_state-z", lambda: named_state("z"),
     r"^name must be one of \['\+', '\+i', '-', '-i', '0', '1'\], got 'z'$"),
    # the matrix rule, linalg._matrix: a matrix of the wrong size or no square
    # matrix where one is meant, refused before it reaches numpy. A Gate's
    # unitary is held to its generator's size: numpy's broadcast error before
    ("Gate-unitary-4x4", lambda: Gate(np.zeros((2, 2)), 1.0, np.eye(4)),
     r"^unitary must be 2x2, got \(4, 4\)$"),
    ("Gate-unitary-2x3", lambda: Gate(np.zeros((2, 2)), 1.0, np.ones((2, 3))),
     r"^unitary must be 2x2, got \(2, 3\)$"),
    ("Gate-unitary-mismatch", lambda: Gate(np.zeros((2, 2)), 1.0, X),
     r"^unitary must match exp\(-i K t\*\), got max deviation 1$"),
    # LinAlgError from eig after the unitarity check passed, and a 4x9 superoperator
    ("generator_from_unitary-2x3", lambda: generator_from_unitary([[1, 0, 0], [0, 1, 0]], 1.0),
     r"^u must be a square matrix, got \(2, 3\)$"),
    ("unitary_superoperator-2x3", lambda: unitary_superoperator([[1, 0, 0], [0, 1, 0]]),
     r"^u must be a square matrix, got \(2, 3\)$"),
    ("gate_from_generator-vector", lambda: gate_from_generator(np.ones(4), 1.0),
     r"^generator must be a square matrix, got \(4,\)$"),
    ("pseudo_inverse-vector", lambda: pseudo_inverse(np.ones(4)),
     r"^m must be a matrix, got \(4,\)$"),
    ("equal_up_to_phase-vector", lambda: equal_up_to_phase(np.ones(4), X),
     r"^a must be a matrix, got \(4,\)$"),
    # the defect measures take the shape rule alone, as they report a non-finite
    # entry: a 2x3 or a vector read 3.0 as a unitarity defect, and numpy's
    # broadcast or AxisError as a Hermitian one
    ("hermiticity_defect-2x3", lambda: hermiticity_defect(np.ones((2, 3))),
     r"^m must be a square matrix, got \(2, 3\)$"),
    ("hermiticity_defect-vector", lambda: hermiticity_defect(np.ones(3)),
     r"^m must be a square matrix, got \(3,\)$"),
    ("unitarity_defect-2x3", lambda: unitarity_defect(np.ones((2, 3))),
     r"^u must be a square matrix, got \(2, 3\)$"),
    ("unitarity_defect-vector", lambda: unitarity_defect(np.ones(3)),
     r"^u must be a square matrix, got \(3,\)$"),
    ("DynamicalMap-nan", lambda: DynamicalMap(np.full((4, 4), np.nan), None, (0.0, 1.0), 1),
     "^superoperator has non-finite entries$"),
    ("DynamicalMap-ragged", lambda: DynamicalMap([[1, 0], [0]], None, (0.0, 1.0), 1),
     "^superoperator: setting an array element with a sequence"),
    # one 2^n rule for a state's dimension
    ("PureState-3", lambda: PureState([1, 0, 0]),
     r"^amplitudes must be 2\^n-dimensional for n >= 1, got dimension 3$"),
    ("DensityMatrix-6x6", lambda: DensityMatrix(np.eye(6) / 6),
     r"^matrix must be 2\^n-dimensional for n >= 1, got dimension 6$"),
    # the count rule, tolerances._integer with bounds: one name for type and range
    ("Circuit-qubit-index-3", lambda: Circuit(2, (PlacedGate("H", (3,)),)),
     r"^H qubit index must be in \[1, 2\], got 3$"),
    ("build_qft-9", lambda: build_qft(9), r"^n must be in \[2, 8\], got 9$"),
    ("TimeGrid-steps-0", lambda: TimeGrid(0.0, 1.0, 0),
     r"^grid steps must be in \[1, 100000\], got 0$"),
    # the name rule, tolerances._choice: an unhashable name is refused like any
    # other (a TypeError from the table lookup before)
    ("named_state-list", lambda: named_state(["0"]),
     r"^name must be one of \['\+', '\+i', '-', '-i', '0', '1'\], got \['0'\]$"),
    ("product_state-z", lambda: product_state(["0", "z"]),
     r"^factors\[1\] must be one of \['\+', '\+i', '-', '-i', '0', '1'\], got 'z'$"),
    ("PlacedGate-list-name", lambda: PlacedGate(["H"], (1,)),
     r"^name must be one of \['CPHASE', 'H', 'SWAP', 'X'\], got \['H'\]$"),
    ("PlacedGate-T", lambda: PlacedGate("T", (1,)),
     r"^name must be one of \['CPHASE', 'H', 'SWAP', 'X'\], got 'T'$"),
    ("PlacedGate-phi-missing", lambda: PlacedGate("CPHASE", (1, 2)), "^CPHASE phi must be given$"),
    ("PlacedGate-phi-on-H", lambda: PlacedGate("H", (1,), phi=0.5),
     "^H phi must be None, got 0.5$"),
    # the sequence rule, tolerances._sequence; an int of factors was a TypeError before
    ("product_state-int", lambda: product_state(5), "^factors must be a sequence, got 5$"),
    ("PlacedGate-arity", lambda: PlacedGate("H", (1, 2)),
     r"^H qubits must be a sequence of length 1, got \(1, 2\)$"),
    ("Circuit-gates-int", lambda: Circuit(2, 5), "^gates must be a sequence, got 5$"),
    ("Circuit-gates-entry", lambda: Circuit(2, [PlacedGate("H", (1,)), "H"]),
     r"^gates\[1\] must be a PlacedGate, got 'H'$"),
    # a set or a mapping has no order the caller wrote: the gates were built in
    # hash order, and a dict's keys were taken as the interval
    ("Circuit-gates-set", lambda: Circuit(2, {PlacedGate("H", (1,)), PlacedGate("X", (2,))}),
     r"^gates must be a sequence, got \{PlacedGate\("),
    ("map-interval-dict", lambda: DynamicalMap(np.eye(4), None, {0.0: "a", 1.0: "b"}, 1),
     r"^interval must be a sequence of length 2, got \{0\.0: 'a', 1\.0: 'b'\}$"),
    # the order of two times, tolerances._real with open bounds
    ("TimeGrid-t_end-before", lambda: TimeGrid(1.0, 0.5, 4),
     "^grid t_end must be finite and > 1.0, got 0.5$"),
    ("TimeGrid-t_end-equal", lambda: TimeGrid(1.0, 1.0, 4),
     "^grid t_end must be finite and > 1.0, got 1.0$"),
    # a Hermitian defect of finite entries that overflows: m - m^dag warned of
    # the overflow, an error under -W error
    ("DensityMatrix-defect-overflow", lambda: DensityMatrix([[0.5, 1e308], [-1e308, 0.5]]),
     r"^matrix must be Hermitian, got max\|m - m\^dag\| = inf$"),
    ("gate_from_generator-defect-overflow",
     lambda: gate_from_generator(np.diag([0.5 + 1e308j, 0, 0, 0]), 1.0),
     r"^generator must be Hermitian, got max\|m - m\^dag\| = inf$"),
    # a trace or a symmetrised Choi matrix that overflows: a RuntimeWarning,
    # an error under -W error, or LinAlgError from eigvalsh without it
    ("DensityMatrix-trace-overflow", lambda: DensityMatrix([[1e308, 0], [0, 1e308]]),
     r"^matrix must have trace 1, got \(inf\+0j\)$"),
    ("DensityMatrix-trace-overflow-nan",
     lambda: DensityMatrix(np.diag([1e308] * 64 + [-1e308] * 64)),
     r"^matrix must have trace 1, got \(nan\+0j\)$"),
    ("DynamicalMap-choi-overflow", lambda: DynamicalMap(np.full((4, 4), 1e308), None, (0, 1), 1),
     "^matrix has non-finite entries$"),
    ("DynamicalMap-complex-choi-overflow",
     lambda: DynamicalMap(np.full((4, 4), 1e308 + 1e308j), None, (0, 1), 1),
     "^matrix has non-finite entries$"),
    ("DynamicalMap-negative-choi-overflow",
     lambda: DynamicalMap(np.full((4, 4), -1.7e308), None, (0, 1), 1),
     "^matrix has non-finite entries$"),
    # a span that overflows: the grid was built with an epsilon of inf
    ("TimeGrid-span-overflow", lambda: TimeGrid(-1e308, 1e308, 2),
     "^grid t_end - t_start must be a finite number, got inf$"),
    ("witness-t1-equal", lambda: udm_witness_subinterval(K, RHO, 0.5, 0.5),
     "^t_star must be finite and > 0.5, got 0.5$"),
    # a hand-built ChoiMatrix: numpy's reshape error, or a silent Kraus set, before
    ("kraus_decompose-2x2", lambda: kraus_decompose(ChoiMatrix(np.eye(2))),
     r"^matrix must be 4x4, got \(2, 2\)$"),
    # an upper triangle that eigh never read: the Kraus set of another matrix
    ("ChoiMatrix-not-hermitian", lambda: ChoiMatrix(np.eye(4) / 2 + 5 * np.eye(4, k=1)),
     r"^matrix must be Hermitian, got max\|m - m\^dag\| = 5$"),
    # finite entries whose Choi spectrum overflows: the map was built, and is_cptp
    # read (False, False, -2.83e292)
    ("ChoiMatrix-infinite-spectrum",
     lambda: DynamicalMap(np.full((4, 4), 5e307), None, (0, 1), 1),
     r"^matrix must have a finite spectrum, got max\|eigenvalue\| inf$"),
    # a stack of strings or objects: numpy's TypeError from isfinite
    ("Trajectory-string-states", lambda: Trajectory(GRID, np.full((5, 4, 4), "a")),
     "^joint_states must be numeric, got dtype <U1$"),
    ("Trajectory-object-states", lambda: Trajectory(GRID, TRAJ.joint_states.astype(object)),
     "^joint_states must be numeric, got dtype object$"),
    # amplitudes numpy cannot convert: a TypeError, or a ValueError naming nothing;
    # numpy's or Python's words follow the name
    ("PureState-object", lambda: PureState([object(), 1]), "^amplitudes: "),
    ("PureState-set", lambda: PureState({1, 2}), "^amplitudes: "),
    ("PureState-dict", lambda: PureState({"a": 1}), "^amplitudes: "),
    ("PureState-ragged", lambda: PureState([[1, 0], [0]]), "^amplitudes: "),
    ("PureState-strings", lambda: PureState(["a", "b"]), "^amplitudes: "),
    # an int past the float range: numpy's OverflowError
    ("DensityMatrix-int-overflow", lambda: DensityMatrix([[10**400, 0], [0, 0]]), "^matrix: "),
    # u u^dag overflowed with a RuntimeWarning, an error under -W error
    ("Gate-unitary-defect-overflow", lambda: Gate(np.zeros((2, 2)), 1.0, np.full((2, 2), 1e308)),
     "^unitary must be a unitary matrix, got unitarity defect inf$"),
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


# JSON-like values: scalars of every kind, with nan, +-inf and integers past
# the float range, alone or nested in lists and string-keyed dicts (nested
# values alone would draw a bare scalar in about 5% of the examples)
SCALARS = (
    st.none() | st.booleans() | st.integers() | st.sampled_from([10**400, -(10**400)])
    | st.floats() | st.text(max_size=3) | st.sampled_from(sorted(NAMED_STATES))
)
JSON_LIKE = SCALARS | st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=8,
)

RULES = {
    "choice": lambda v: _choice(v, NAMED_STATES, "x"),
    "sequence": lambda v: _sequence(v, "x"),
    "pair": lambda v: _sequence(v, "x", 2),
    "real": lambda v: _real(v, "x"),
    "real-above": lambda v: _real(v, "x", lo=0),
    "real-between": lambda v: _real(v, "x", lo=-1.5, hi=1e300),
    "integer": lambda v: _integer(v, "x"),
    "integer-above": lambda v: _integer(v, "x", 0),
    "integer-between": lambda v: _integer(v, "x", 1, 2),
}


@pytest.mark.parametrize("rule", sorted(RULES))
@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(value=JSON_LIKE)
def test_each_rule_returns_or_refuses_naming_the_argument(rule, value):
    try:
        RULES[rule](value)
    except ValueError as exc:
        assert str(exc).startswith("x must be "), str(exc)
