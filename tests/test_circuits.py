import dataclasses
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from udmlab import (
    Circuit,
    DensityMatrix,
    PlacedGate,
    PureState,
    build_qft,
    c_phase,
    circuit_to_dict,
    circuit_unitary,
    dft_matrix,
    hadamard,
    matexp_hermitian,
    negativity,
    product_state,
    run_circuit,
    swap_gate,
    x_gate,
)
from udmlab import circuits as circuits_mod
from udmlab.circuits import AuditRecord
from udmlab.tolerances import DEFAULT, Tolerances
from conftest import H, SINGLET_PROJECTOR, SWAP, X, random_pure, run_circuit_by_factor_list

try:
    import resource
except ImportError:  # POSIX only
    resource = None


def basis_state(n, bits):
    amps = np.zeros(2**n)
    amps[int(bits, 2)] = 1.0
    return PureState(amps)


def test_build_qft2_layout():
    c = build_qft(2)
    assert [g.name for g in c.gates] == ["H", "CPHASE", "H", "SWAP"]
    assert c.gates[0].qubits == (1,)
    assert c.gates[1].qubits == (1, 2) and abs(c.gates[1].phi - np.pi / 2) < 1e-15
    assert c.gates[3].qubits == (1, 2)


def test_build_qft3_structure():
    c = build_qft(3)
    names = [g.name for g in c.gates]
    assert names.count("H") == 3
    assert names.count("SWAP") == 1
    phis = [g.phi for g in c.gates if g.name == "CPHASE"]
    np.testing.assert_allclose(phis, [np.pi / 2, np.pi / 4, np.pi / 2])


def test_build_qft_bounds():
    with pytest.raises(ValueError):
        build_qft(1)
    with pytest.raises(ValueError):
        build_qft(9)


def test_gate_counts():
    for n in range(2, 9):
        c = build_qft(n)
        names = [g.name for g in c.gates]
        assert names.count("H") == n
        assert names.count("CPHASE") == n * (n - 1) // 2
        assert names.count("SWAP") == n // 2


def test_empty_circuit_unitary_is_identity():
    np.testing.assert_array_equal(circuit_unitary(Circuit(2, ())), np.eye(4))


def test_qft_unitary_matches_dft():
    # n = 2 has the closed form omega = i, entries i^{jk} / 2
    w2 = np.array([[1j ** (j * k) for k in range(4)] for j in range(4)]) / 2
    np.testing.assert_allclose(circuit_unitary(build_qft(2)), w2, atol=1e-12)
    for n in (2, 3, 4):
        residual = np.linalg.norm(circuit_unitary(build_qft(n)) - dft_matrix(n))
        assert residual < 1e-9


def test_run_qft2_on_00():
    out, audit = run_circuit(build_qft(2), product_state(["0", "0"]))
    np.testing.assert_allclose(out.amplitudes, np.full(4, 0.5), atol=1e-12)
    assert audit.all_separable()
    assert len(audit.records) == 2  # one CPHASE, one SWAP


def test_audit_flags_entangled_bell_input():
    bell = PureState([1, 0, 0, 1])
    _, audit = run_circuit(build_qft(2), bell)
    first = audit.records[0]
    assert first.name == "CPHASE"
    assert not first.separable_in
    assert abs(first.negativity_in - 0.5) < 1e-9


def test_basis_inputs_stay_separable_at_every_block():
    for n in (2, 3, 4):
        c = build_qft(n)
        for value in range(2**n):
            bits = format(value, f"0{n}b")
            out, audit = run_circuit(c, basis_state(n, bits))
            assert audit.all_separable(), f"n={n}, input={bits}"
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-10


def test_audit_positions_are_circuit_slots():
    c = build_qft(3)
    _, audit = run_circuit(c, product_state(["0", "0", "0"]))
    positions = [r.position for r in audit.records]
    expected = [i + 1 for i, g in enumerate(c.gates) if len(g.qubits) == 2]
    assert positions == expected


def test_run_circuit_checks_dimensions():
    with pytest.raises(ValueError):
        run_circuit(build_qft(3), product_state(["0", "0"]))


def test_placed_gate_validation():
    with pytest.raises(ValueError):
        PlacedGate("CNOT", (1, 2))
    with pytest.raises(ValueError):
        PlacedGate("H", (1, 2))
    with pytest.raises(ValueError):
        PlacedGate("SWAP", (1, 1))
    with pytest.raises(ValueError):
        PlacedGate("CPHASE", (1, 2))  # phi missing
    with pytest.raises(ValueError):
        PlacedGate("H", (1,), phi=0.5)  # phi not allowed
    with pytest.raises(ValueError):
        Circuit(2, (PlacedGate("H", (3,)),))  # index out of range
    # the circuit keeps its own tuple, which a later edit of the caller's list cannot reach
    assert Circuit(2, [PlacedGate("H", (1,))]).gates == (PlacedGate("H", (1,)),)


def test_x_gate_in_circuit():
    c = Circuit(2, (PlacedGate("X", (2,)),))
    out, _ = run_circuit(c, product_state(["0", "0"]))
    np.testing.assert_allclose(out.amplitudes, [0, 1, 0, 0], atol=1e-15)


def test_nonadjacent_embedding():
    # CPHASE(1,3) with a spectator in the middle: phase only on |1?1>
    c = Circuit(3, (PlacedGate("CPHASE", (1, 3), phi=np.pi),))
    u = circuit_unitary(c)
    expected = np.diag([1, 1, 1, 1, 1, -1, 1, -1]).astype(complex)
    np.testing.assert_allclose(u, expected, atol=1e-12)


def test_circuit_json_roundtrip():
    c = build_qft(3)
    d = circuit_to_dict(c)
    assert d["n_qubits"] == 3
    assert all(set(g) <= {"name", "qubits", "phi"} for g in d["gates"])
    c2 = Circuit(
        d["n_qubits"],
        tuple(PlacedGate(g["name"], tuple(g["qubits"]), g.get("phi")) for g in d["gates"]),
    )
    np.testing.assert_allclose(circuit_unitary(c2), circuit_unitary(c), atol=1e-12)


def reference_matrix(g):
    """The placed gate's matrix written out, not read from g.gate, so the
    bitwise comparisons below pin every matrix a circuit places."""
    if g.name == "CPHASE":
        return np.diag([1.0, 1.0, 1.0, np.exp(1j * g.phi)]).astype(complex)
    return {"H": H, "X": X, "SWAP": SWAP}[g.name]


def tensordot_apply(u, qubits, t):
    """Reference contraction of a gate matrix into the qubits' axes of a
    (2,)*n register tensor; axes past the first n are carried along."""
    k = len(qubits)
    axes = [q - 1 for q in qubits]
    out = np.tensordot(u.reshape((2,) * (2 * k)), t, axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(out, list(range(k)), axes)


def pair_negativity(t, qubits):
    m = np.moveaxis(t, (qubits[0] - 1, qubits[1] - 1), (0, 1)).reshape(4, -1)
    return negativity(DensityMatrix(m @ m.conj().T))


def run_block_by_block(circuit, psi, tol=1e-9):
    """The audit one block at a time: a validated DensityMatrix and one
    negativity call per pair density, before and after each two-qubit gate."""
    t = psi.amplitudes.reshape((2,) * circuit.n_qubits)
    records = []
    for pos, g in enumerate(circuit.gates, start=1):
        if len(g.qubits) == 2:
            neg_in = pair_negativity(t, g.qubits)
        t = tensordot_apply(reference_matrix(g), g.qubits, t)
        if len(g.qubits) == 2:
            neg_out = pair_negativity(t, g.qubits)
            records.append(
                AuditRecord(pos, g.name, g.qubits, neg_in, neg_out, neg_in <= tol, neg_out <= tol)
            )
    return PureState(t.reshape(-1)), tuple(records)


def assert_same_as_block_by_block(circuit, psi):
    out, audit = run_circuit(circuit, psi)
    want_out, want_records = run_block_by_block(circuit, psi)
    assert np.array_equal(out.amplitudes, want_out.amplitudes)
    assert audit.records == want_records


def test_stacked_audit_equals_block_by_block_on_qft(rng):
    for n in range(2, 9):
        c = build_qft(n)
        for value in rng.choice(2**n, size=3, replace=False):
            assert_same_as_block_by_block(c, basis_state(n, format(int(value), f"0{n}b")))
        for _ in range(3):
            factors = [PureState(random_pure(rng, 2)) for _ in range(n)]
            assert_same_as_block_by_block(c, product_state(factors))
            assert_same_as_block_by_block(c, PureState(random_pure(rng, 2**n)))


def nonadjacent_pair_circuit(rng):
    """Five qubits, two-qubit gates on pairs in both orders with spectators
    between and around them, a Hadamard on a random qubit before each."""
    gates = []
    for q1, q2 in [(1, 3), (4, 1), (2, 5), (5, 3), (1, 5), (3, 2)]:
        gates.append(PlacedGate("H", (int(rng.integers(1, 6)),)))
        if rng.random() < 0.5:
            gates.append(PlacedGate("CPHASE", (q1, q2), phi=float(rng.uniform(-4, 4))))
        else:
            gates.append(PlacedGate("SWAP", (q1, q2)))
    return Circuit(5, tuple(gates))


def test_stacked_audit_equals_block_by_block_on_nonadjacent_pairs(rng):
    for _ in range(10):
        circuit = nonadjacent_pair_circuit(rng)
        assert_same_as_block_by_block(circuit, PureState(random_pure(rng, 32)))
        factors = [PureState(random_pure(rng, 2)) for _ in range(5)]
        assert_same_as_block_by_block(circuit, product_state(factors))


def tensordot_unitary(circuit):
    """The reference contraction run on all basis columns, as a trailing axis."""
    dim = 2**circuit.n_qubits
    t = np.eye(dim, dtype=complex).reshape((2,) * circuit.n_qubits + (dim,))
    for g in circuit.gates:
        t = tensordot_apply(reference_matrix(g), g.qubits, t)
    return t.reshape(dim, dim)


def mixed_vocabulary_circuit(rng, n):
    """Every placed gate on n qubits: blocks of a SWAP, then H and X on the
    qubits it moved and CPHASE on them in both orders, on random pairs."""
    gates = []
    for _ in range(n):
        q1, q2 = (int(q) for q in rng.choice(np.arange(1, n + 1), size=2, replace=False))
        gates += [
            PlacedGate("SWAP", (q1, q2)),
            PlacedGate("H", (q1,)),
            PlacedGate("X", (q2,)),
            PlacedGate("CPHASE", (q1, q2), phi=float(rng.uniform(-4, 4))),
            PlacedGate("CPHASE", (q2, q1), phi=float(rng.uniform(-4, 4))),
        ]
    return Circuit(n, tuple(gates))


def lazy_start_circuits():
    """Circuits whose axes are first touched in every way circuit_unitary's
    diagonal start distinguishes: never, by a CPHASE, by an X, after a SWAP."""
    def cphase(q1, q2, phi):
        return PlacedGate("CPHASE", (q1, q2), phi=phi)

    circuits = [Circuit(2, ())]
    for phi in (0.3, np.pi / 2, -np.pi / 2, np.pi, -2.5):
        circuits += [
            Circuit(4, (cphase(1, 3, phi), cphase(4, 2, phi), cphase(3, 4, phi))),
            Circuit(3, (cphase(1, 2, phi), PlacedGate("H", (1,)), cphase(2, 3, phi), PlacedGate("H", (3,)))),
            Circuit(3, (PlacedGate("X", (2,)), cphase(1, 2, phi), PlacedGate("H", (2,)),
                        PlacedGate("X", (1,)), cphase(3, 1, phi))),
            Circuit(4, (PlacedGate("H", (1,)), PlacedGate("SWAP", (2, 4)), cphase(1, 4, phi),
                        PlacedGate("H", (4,)), PlacedGate("SWAP", (1, 3)), PlacedGate("H", (3,)))),
        ]
    return circuits


def full_register_circuits():
    """Circuits at n = 7 and 8 that apply H, X and CPHASE after every axis has its
    column. The column that fills the result is qubit 1's or qubit n's, at row 0
    or the last row (the other way round after the SWAP), so the last in-place
    growth, top blocks first, puts the new axis's bit at either end of the row
    index; the extra X on a stored axis runs in place on the half-full register
    just before it."""
    circuits = []
    for n in (7, 8):
        for last in (1, n):
            others = [q for q in range(1, n + 1) if q != last]
            for flip in (False, True):
                for swap in ((), (PlacedGate("SWAP", (1, n)),)):
                    gates = [PlacedGate("H", (q,)) for q in others]
                    gates += [PlacedGate("X", (others[0],))] * flip
                    gates += [PlacedGate("H", (last,)), PlacedGate("CPHASE", (last, others[1]), phi=2.5),
                              PlacedGate("X", (others[2],)), PlacedGate("H", (last,)),
                              PlacedGate("CPHASE", (others[3], others[0]), phi=-1.0)]
                    circuits.append(Circuit(n, tuple(gates) + swap))
    return circuits


def repeated_touch_circuits():
    """A second H or X on an axis while the register is small, which runs in place
    through a copy: at n = 3 in one block, at n = 8 in blocks of 4^n / 16 entries,
    before and after a CPHASE and between first touches that grow the register."""
    circuits = []
    for n, first in ((3, 2), (8, 5)):
        for gate in ("H", "X"):
            gates = [PlacedGate("H", (q,)) for q in range(1, first + 1)]
            gates += [PlacedGate(gate, (1,)), PlacedGate("CPHASE", (1, first), phi=2.5),
                      PlacedGate(gate, (first,)), PlacedGate("H", (n,)), PlacedGate(gate, (1,))]
            circuits.append(Circuit(n, tuple(gates)))
    return circuits


def last_row_first_touch_circuits():
    """A first H or X on the last row, after a CPHASE: a matmul over the register's
    two trailing entries would round the signs of some zeros unlike the reference."""
    circuits = []
    for phi in (2.5, -2.5, -3.8731375461440507, np.pi):
        for gate in ("H", "X"):
            circuits += [
                Circuit(2, (PlacedGate("CPHASE", (1, 2), phi=phi), PlacedGate(gate, (2,)))),
                Circuit(3, (PlacedGate("CPHASE", (1, 3), phi=phi), PlacedGate(gate, (3,)),
                            PlacedGate("H", (1,)))),
                Circuit(3, (PlacedGate("CPHASE", (2, 1), phi=phi), PlacedGate("SWAP", (1, 3)),
                            PlacedGate(gate, (1,)))),
            ]
    return circuits


def test_circuit_unitary_equals_tensordot_reference_bitwise(rng):
    # byte for byte: the diagonal start does no arithmetic on the identity's
    # zeros, so the signs of the zeros it writes are pinned too
    circuits = [build_qft(n) for n in range(2, 9)]
    circuits += [nonadjacent_pair_circuit(rng) for _ in range(5)]
    circuits += [mixed_vocabulary_circuit(rng, n) for n in range(2, 9)]
    circuits += lazy_start_circuits() + full_register_circuits() + last_row_first_touch_circuits()
    circuits += repeated_touch_circuits()
    for circuit in circuits:
        assert circuit_unitary(circuit).tobytes() == tensordot_unitary(circuit).tobytes()


@st.composite
def random_circuits(draw):
    """Up to 12 gates of H, X, SWAP and CPHASE on n = 2..6 qubits, the CPHASE
    phases drawn from [-4, 4] or the phases whose e^{i phi} has a zero component."""
    n = draw(st.integers(2, 6))
    qubit = st.integers(1, n)
    pair = st.lists(qubit, min_size=2, max_size=2, unique=True).map(tuple)
    phi = st.floats(-4.0, 4.0) | st.sampled_from([0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi])
    gate = (
        st.builds(PlacedGate, st.sampled_from(["H", "X"]), qubit.map(lambda q: (q,)))
        | st.builds(PlacedGate, st.just("SWAP"), pair)
        | st.builds(PlacedGate, st.just("CPHASE"), pair, phi)
    )
    return Circuit(n, tuple(draw(st.lists(gate, max_size=12))))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(circuit=random_circuits())
def test_circuit_unitary_equals_tensordot_reference_on_random_circuits(circuit):
    # the hand-built families above reach the paths they were written for;
    # random gate orders reach first touches, in-place gates and growth in any mix
    assert circuit_unitary(circuit).tobytes() == tensordot_unitary(circuit).tobytes()


@pytest.mark.parametrize("phi", [0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi, 2 * np.pi])
def test_circuit_unitary_places_cphase_by_name_bytewise(phi):
    # phi = 0 leaves the register as it is; e^{i phi} at the other phases has a
    # zero or a tiny component, where a rounding that differs from the matmul's shows
    for n in range(2, 6):
        pairs = [(q1, q2) for q1 in range(1, n + 1) for q2 in range(1, n + 1) if q1 != q2]
        circuit = Circuit(
            n,
            tuple(PlacedGate("H", (q,)) for q in range(1, n + 1))
            + tuple(PlacedGate("CPHASE", pair, phi=phi) for pair in pairs),
        )
        assert circuit_unitary(circuit).tobytes() == tensordot_unitary(circuit).tobytes()


@pytest.mark.parametrize(
    "circuit",
    [build_qft(3), Circuit(2, ()), Circuit(3, (PlacedGate("CPHASE", (3, 1), phi=0.3), PlacedGate("X", (2,))))],
    ids=["qft3", "empty", "no-swap"],
)
def test_circuit_unitary_returns_a_fresh_array_each_call(circuit):
    first, second = circuit_unitary(circuit), circuit_unitary(circuit)
    assert first.flags.writeable and second.flags.writeable
    assert not np.shares_memory(first, second)
    assert not any(np.shares_memory(u, g.gate.unitary) for u in (first, second) for g in circuit.gates)
    want = second.tobytes()
    first[...] = 7
    assert second.tobytes() == want
    assert circuit_unitary(circuit).tobytes() == want


def x_swap_circuits():
    x, swap = lambda q: PlacedGate("X", (q,)), lambda a, b: PlacedGate("SWAP", (a, b))
    return [
        Circuit(2, (swap(1, 2),)),
        Circuit(3, (x(2), swap(1, 3), swap(3, 2), x(1))),
        Circuit(5, (x(1), swap(1, 5), x(3), swap(2, 4), swap(5, 3), x(5), swap(1, 2))),
        Circuit(8, tuple(swap(q, 9 - q) for q in range(1, 5)) + (x(8), swap(8, 1))),
    ]


def test_run_circuit_equals_the_factor_list_reference_bytewise(rng):
    # the pair factors written straight into one stack, against the loop that
    # collected them in a list and stacked them with np.array afterwards
    no_pair = Circuit(3, (PlacedGate("H", (1,)), PlacedGate("X", (3,)), PlacedGate("H", (2,))))
    circuits = [build_qft(n) for n in range(2, 9)] + [no_pair] + x_swap_circuits()
    for circuit in circuits:
        n = circuit.n_qubits
        inputs = [basis_state(n, format(v, f"0{n}b")) for v in rng.choice(2**n, size=2, replace=False)]
        inputs += [PureState(random_pure(rng, 2**n)) for _ in range(2)]
        for psi in inputs:
            out, audit = run_circuit(circuit, psi)
            want_out, want_records = run_circuit_by_factor_list(circuit, psi)
            assert out.amplitudes.tobytes() == want_out.amplitudes.tobytes()
            assert audit.records == want_records
            assert all(type(r) is AuditRecord for r in audit.records)
            negs = [(r.negativity_in, r.negativity_out) for r in audit.records]
            want_negs = [(r.negativity_in, r.negativity_out) for r in want_records]
            assert np.array(negs).tobytes() == np.array(want_negs).tobytes()


def traced_peak(call):
    """Bytes tracemalloc sees allocated at the peak of call(), beyond those held before."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = call()  # held until the peak is read
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    return peak


@pytest.mark.parametrize("n", [7, 8])
def test_circuit_unitary_allocates_one_register_and_an_eighth(n):
    # the result holds the register; an in-place gate's blocks of 4^n / 16
    # entries and the growth's last block take the rest. A second 4^n buffer
    # (2 MiB at n = 8 with the result) exceeds it
    circuit = build_qft(n)
    circuit_unitary(circuit)
    assert traced_peak(lambda: circuit_unitary(circuit)) <= 4**n * 16 * 9 // 8


@pytest.mark.skipif(resource is None, reason="needs the POSIX resource module")
@pytest.mark.parametrize("n", [7, 8])
def test_warm_circuit_unitary_takes_no_page_faults(n):
    # the result is the one large allocation and every gate runs in place, so a
    # warm call reuses the pages the last one freed; a second 4^n buffer touched
    # per call took about 480 minor faults at n = 8
    circuit = build_qft(n)
    circuit_unitary(circuit)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(50):
        circuit_unitary(circuit)
    assert (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 50 < 1


def test_run_circuit_allocates_at_most_600_kib_at_n8(rng):
    # the (2B, 4, 2^(n-2)) factor stack and its conjugate, 256 KiB each at n = 8,
    # and the pair densities; a list of factors copied by np.array adds 256 KiB
    circuit = build_qft(8)
    for psi in (basis_state(8, "00000011"), PureState(random_pure(rng, 256))):
        run_circuit(circuit, psi)
        assert traced_peak(lambda: run_circuit(circuit, psi)) <= 600 * 1024


@pytest.mark.parametrize(
    "gate, named",
    [(PlacedGate("H", (1,)), hadamard()), (PlacedGate("X", (2,)), x_gate()),
     (PlacedGate("SWAP", (1, 2)), swap_gate()), (PlacedGate("CPHASE", (2, 1), phi=0.3), c_phase(0.3))],
    ids=["H", "X", "SWAP", "CPHASE"],
)
def test_gate_matrices_are_read_only(gate, named):
    # one gate per (name, phi), shared by every circuit placing it
    first, second = build_qft(3), build_qft(3)
    assert all(a.gate is b.gate for a, b in zip(first.gates, second.gates))
    assert PlacedGate(gate.name, gate.qubits, gate.phi).gate is gate.gate
    before = circuit_unitary(first)
    for matrix in (gate.gate.unitary, gate.gate.generator):
        with pytest.raises(ValueError, match="read-only"):
            matrix[0, 0] = 2
    assert np.array_equal(gate.gate.unitary, named.unitary)
    assert np.array_equal(gate.gate.generator, named.generator)
    assert np.array_equal(circuit_unitary(build_qft(3)), before)


def test_qft_places_one_shared_gate_per_name_and_phase():
    # H, SWAP and the n - 1 phases pi / 2^k: n + 1 gates built, however many placed
    for n in range(2, 9):
        assert len({id(g.gate) for g in build_qft(n).gates}) == n + 1


def test_placed_gates_are_generated_by_their_generators():
    placed = [g for n in range(2, 9) for g in build_qft(n).gates] + [PlacedGate("X", (1,))]
    for g in placed:
        rebuilt = matexp_hermitian(g.gate.generator, g.gate.duration)
        assert np.max(np.abs(rebuilt - g.gate.unitary)) <= DEFAULT.reconstruction
    # the SWAP block is the evolution under pi P_singlet over t* = 1
    swap = PlacedGate("SWAP", (1, 2)).gate
    assert swap.duration == 1.0
    np.testing.assert_allclose(swap.generator, np.pi * SINGLET_PROJECTOR, rtol=0, atol=1e-15)


def test_circuit_without_two_qubit_gates_builds_no_stack(monkeypatch):
    def unexpected(*args):
        raise AssertionError("no pair density should be checked")

    monkeypatch.setattr(circuits_mod, "_check_density", unexpected)
    monkeypatch.setattr(circuits_mod, "_negativities", unexpected)
    c = Circuit(3, (PlacedGate("H", (1,)), PlacedGate("X", (3,)), PlacedGate("H", (2,))))
    out, audit = run_circuit(c, product_state(["0", "0", "0"]))
    assert audit.records == ()
    assert audit.all_separable()
    np.testing.assert_allclose(out.amplitudes, np.kron([1, 1], np.kron([1, 1], [0, 1])) / 2, atol=1e-15)


@pytest.mark.parametrize(
    "build, value",
    [
        (lambda: PlacedGate("H", (1.5,)), "1.5"),
        (lambda: PlacedGate("H", (True,)), "True"),
        (lambda: PlacedGate("SWAP", (1, False)), "False"),
        (lambda: PlacedGate("H", 1), "1"),
        (lambda: PlacedGate("CPHASE", (1, 2), phi=float("nan")), "nan"),
        (lambda: PlacedGate("CPHASE", (1, 2), phi=float("inf")), "inf"),
        (lambda: PlacedGate("CPHASE", (1, 2), phi=-np.inf), "-inf"),
        (lambda: PlacedGate("CPHASE", (1, 2), phi="0.5"), "'0.5'"),
        (lambda: PlacedGate("CPHASE", (1, 2), phi=True), "True"),
        (lambda: build_qft(2.5), "2.5"),
        (lambda: build_qft(True), "True"),
        (lambda: Circuit(2.5, ()), "2.5"),
        (lambda: Circuit(2, 5), "5"),
        (lambda: Circuit(2, [("H", (1,))]), "('H', (1,))"),
    ],
    ids=["qubit-float", "qubit-true", "qubit-false", "qubits-int", "phi-nan", "phi-inf",
         "phi-minus-inf", "phi-string", "phi-true", "qft-float", "qft-true", "circuit-float",
         "gates-int", "gates-entry-tuple"],
)
def test_non_integer_and_non_finite_circuit_inputs_name_the_value(build, value):
    with pytest.raises(ValueError, match=f"got {re.escape(value)}$"):
        build()


@pytest.mark.parametrize(
    "tol",
    [float("nan"), -1.0, 0.0, float("inf"), True, pytest.param(np.True_, id="np.True_"), "1e-9", None],
)
def test_run_circuit_rejects_a_tolerance_not_finite_and_positive(tol):
    # a nan or negative tol would mark the separable blocks of this basis input
    # entangled, and True (read as 1) would call a Bell pair separable
    with pytest.raises(ValueError, match=f"^tol must be finite and > 0, got {re.escape(repr(tol))}$"):
        run_circuit(build_qft(3), product_state(["0", "1", "0"]), tol=tol)


def test_tolerances_reject_a_boolean():
    with pytest.raises(ValueError, match="^tolerance cp must be finite and > 0, got True$"):
        Tolerances(cp=True)


def test_the_gate_plan_is_not_part_of_the_circuit_value(rng):
    assert [f.name for f in dataclasses.fields(Circuit)] == ["n_qubits", "gates"]
    for n in range(2, 9):
        first, second = build_qft(n), build_qft(n)
        assert first == second and hash(first) == hash(second)
        assert repr(first) == repr(second) and "_plan" not in repr(first)
        assert circuit_to_dict(first) == circuit_to_dict(second)
        d = circuit_to_dict(first)
        rebuilt = Circuit(
            d["n_qubits"],
            tuple(PlacedGate(g["name"], tuple(g["qubits"]), g.get("phi")) for g in d["gates"]),
        )
        assert rebuilt == first
        psi = PureState(random_pure(rng, 2**n))
        (out, audit), (out_rebuilt, audit_rebuilt) = run_circuit(first, psi), run_circuit(rebuilt, psi)
        assert out.amplitudes.tobytes() == out_rebuilt.amplitudes.tobytes()
        assert audit.records == audit_rebuilt.records


def test_numpy_integers_place_gates():
    g = PlacedGate("CPHASE", (np.int64(1), np.int32(3)), phi=np.float64(0.5))
    assert g.qubits == (1, 3) and all(type(q) is int for q in g.qubits)
    c = Circuit(np.int8(3), (g,))
    assert type(c.n_qubits) is int
    assert json.loads(json.dumps(circuit_to_dict(c)))["gates"][0]["qubits"] == [1, 3]
    assert build_qft(np.int64(4)) == build_qft(4)
