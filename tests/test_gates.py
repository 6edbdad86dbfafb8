import numpy as np
import pytest

from udmlab import (
    PureState,
    apply,
    c_phase,
    densify,
    equal_up_to_phase,
    gate_from_generator,
    generator_from_unitary,
    hadamard,
    identity_gate,
    is_entangling,
    local_phase,
    matexp_hermitian,
    named_state,
    operator_schmidt_values,
    product_state,
    pure_entanglement,
    swap_gate,
    x_gate,
)
from udmlab import linalg
from udmlab.gates import Gate
from conftest import SINGLET_PROJECTOR, SWAP, X, random_hermitian, random_pure, random_unitary

Z = np.diag([1.0, -1.0]).astype(complex)


def test_gate_from_zero_generator_is_identity():
    g = gate_from_generator(np.zeros((2, 2)), 1.7)
    np.testing.assert_allclose(g.unitary, np.eye(2), atol=1e-15)


def test_gate_from_x_at_halfpi_is_spinflip_up_to_phase():
    g = gate_from_generator(X, np.pi / 2)
    assert equal_up_to_phase(g.unitary, X, tol=1e-10)


def test_gate_from_projector_generator_is_cz():
    k = np.diag([0, 0, 0, np.pi]).astype(complex)
    g = gate_from_generator(k, 1.0)
    np.testing.assert_allclose(g.unitary, np.diag([1, 1, 1, -1]), atol=1e-14)


def test_gate_invariant_checked():
    with pytest.raises(ValueError):
        Gate(np.zeros((2, 2), dtype=complex), 1.0, X)  # exp(0) != X


def test_gate_qubit_count_follows_its_generator():
    assert Gate(np.zeros((2, 2)), 1.0).n_qubits == 1
    assert Gate(np.zeros((4, 4)), 1.0).n_qubits == 2
    with pytest.raises(AttributeError):
        Gate(np.zeros((4, 4)), 1.0).n_qubits = 1
    for d in (1, 3, 8):
        with pytest.raises(ValueError, match=rf"^generator must be 2x2 or 4x4, got \({d}, {d}\)$"):
            Gate(np.zeros((d, d)), 1.0)
    # squareness is the matrix rule's, before any size
    with pytest.raises(ValueError, match=r"^generator must be a square matrix, got \(2, 4\)$"):
        Gate(np.zeros((2, 4)), 1.0)


@pytest.mark.parametrize(
    "build", [lambda k: c_phase(1.0), lambda k: gate_from_generator(k, 1.0)],
    ids=["c_phase", "gate_from_generator"],
)
def test_gate_matrices_are_read_only_copies(build, rng):
    # a written unitary would pass through apply, renormalised by PureState
    k = random_hermitian(rng, 4)
    given = k.copy()
    g = build(k)
    generator = g.generator.copy()
    for matrix in (g.unitary, g.generator):
        with pytest.raises(ValueError, match="read-only"):
            matrix[0, 0] = 2
    assert k.flags.writeable and np.array_equal(k, given)
    k[0, 0] += 1.0
    assert np.array_equal(g.generator, generator)


@pytest.mark.parametrize("t", [0.0, -1.0, np.nan, np.inf, -np.inf])
def test_durations_outside_zero_to_inf_are_rejected(t):
    with pytest.raises(ValueError, match="duration must be"):
        gate_from_generator(X, t)
    with pytest.raises(ValueError, match="duration must be"):
        generator_from_unitary(X, t)


def test_gate_from_generator_exponentiates_once(monkeypatch):
    k = c_phase(np.pi).generator
    calls = []

    def counting(*args):
        calls.append(args)
        return matexp_hermitian(*args)

    monkeypatch.setattr(linalg, "matexp_hermitian", counting)
    g = gate_from_generator(k, 1.0)
    assert len(calls) == 1
    np.testing.assert_array_equal(g.unitary, matexp_hermitian(k, 1.0))


def test_generator_from_identity_is_zero():
    np.testing.assert_allclose(generator_from_unitary(np.eye(4), 1.0), np.zeros((4, 4)), atol=1e-12)


def test_generator_from_cphase_is_diagonal_projector():
    # principal branch with the exp(-iKt) convention: phases in (-pi, pi],
    # so C_phi yields -phi on |11><11| for phi in (0, pi) and +pi at phi = pi
    for phi, expected in [(0.3, -0.3), (np.pi / 2, -np.pi / 2), (np.pi, np.pi)]:
        u = np.diag([1, 1, 1, np.exp(1j * phi)])
        k = generator_from_unitary(u, 1.0)
        np.testing.assert_allclose(k, np.diag([0, 0, 0, expected]), atol=1e-12)
        np.testing.assert_allclose(matexp_hermitian(k, 1.0), u, atol=1e-12)


def test_generator_from_x_has_principal_eigenvalues():
    k = generator_from_unitary(X, np.pi / 2)
    np.testing.assert_allclose(np.linalg.eigvalsh(k), [0.0, 2.0], atol=1e-12)
    # eigenvalue 2 sits on the |-> eigenvector of X
    minus = np.array([1, -1]) / np.sqrt(2)
    np.testing.assert_allclose(k @ minus, 2.0 * minus, atol=1e-12)


def test_generator_unitary_roundtrip(rng):
    for _ in range(10):
        for dim, n in [(2, 1), (4, 2)]:
            u = random_unitary(rng, dim)
            t = rng.uniform(0.2, 3.0)
            k = generator_from_unitary(u, t)
            g = gate_from_generator(k, t)
            np.testing.assert_allclose(g.unitary, u, atol=1e-9)


def _near_degenerate_unitary(rng, gap):
    """Random 4x4 unitary whose first two eigenphases differ by gap."""
    a, b, c = rng.uniform(-3.0, 3.0, size=3)
    w = random_unitary(rng, 4)
    return (w * np.exp(1j * np.array([a, a + gap, b, c]))) @ w.conj().T


DEGENERATE = {"swap": SWAP, "cz": np.diag([1, 1, 1, -1]).astype(complex), "identity": np.eye(4)}


@pytest.mark.parametrize("case", ["swap", "cz", "identity", 0.0, 1e-12, 1e-8])
def test_generator_from_degenerate_spectra(rng, case):
    for t in (1.0, 0.3, 2.5):
        for _ in range(1 if isinstance(case, str) else 20):
            u = DEGENERATE[case] if isinstance(case, str) else _near_degenerate_unitary(rng, case)
            k = generator_from_unitary(u, t)
            assert linalg.hermiticity_defect(k) == 0.0
            np.testing.assert_allclose(matexp_hermitian(k, t), u, rtol=0, atol=1e-13)
            phases = np.linalg.eigvalsh(k) * t
            # principal branch (-pi, pi], with round-off allowed at the folded +pi
            assert phases[0] > -np.pi and phases[-1] <= np.pi + 1e-12


def test_cphase_matrix_and_generator():
    assert equal_up_to_phase(c_phase(0.0).unitary, np.eye(4), tol=1e-12)
    np.testing.assert_allclose(c_phase(np.pi).unitary, np.diag([1, 1, 1, -1]), atol=1e-15)
    np.testing.assert_allclose(c_phase(np.pi).generator, np.diag([0, 0, 0, np.pi]), atol=1e-15)
    phi = 1.234
    out = apply(c_phase(phi), PureState([1, 1, 1, 1]))
    np.testing.assert_allclose(out.amplitudes, np.array([1, 1, 1, np.exp(1j * phi)]) / 2, atol=1e-15)


def test_apply_spinflip():
    out = apply(x_gate(), named_state("0"))
    np.testing.assert_allclose(out.amplitudes, [0, 1], atol=1e-15)


def test_cphase_on_superposed_control():
    # target in a superposition, companion in a basis state: the phase lands
    # on the superposed qubit and the output stays separable
    phi = 0.9
    psi = product_state(["+", "1"])
    out = apply(c_phase(phi), psi)
    expected = np.kron(np.array([1, np.exp(1j * phi)]) / np.sqrt(2), [0, 1])
    np.testing.assert_allclose(out.amplitudes, expected, atol=1e-14)
    assert pure_entanglement(out) <= 1e-12


def test_cphase_leaves_companion_zero_branch_unchanged():
    # the phase applies to |11> only, so the q2 = 0 branch passes through
    psi = product_state(["+", "0"])
    out = apply(c_phase(0.9), psi)
    np.testing.assert_allclose(out.amplitudes, psi.amplitudes, atol=1e-15)


def test_apply_density_matrix_preserves_trace():
    rho = densify(product_state(["+", "+"]))
    out = apply(c_phase(np.pi / 2), rho)
    assert abs(np.trace(out.matrix) - 1.0) < 1e-10


def test_apply_dimension_mismatch():
    with pytest.raises(ValueError):
        apply(x_gate(), product_state(["0", "0"]))


def test_is_entangling_examples():
    assert is_entangling(local_phase(0.7)) == (False, 1)
    assert is_entangling(c_phase(np.pi / 2)) == (True, 2)
    assert is_entangling(swap_gate()) == (True, 4)
    assert is_entangling(identity_gate(2)) == (False, 1)


@pytest.mark.parametrize("n_qubits", [-1, 0, 3, 1.5, True])
def test_identity_gate_rejects_bad_qubit_counts_naming_them(n_qubits):
    with pytest.raises(ValueError, match=f"got {n_qubits}$"):
        identity_gate(n_qubits)


def test_identity_gate_takes_numpy_integers():
    assert identity_gate(np.int64(1)).n_qubits == 1
    np.testing.assert_array_equal(identity_gate(np.uint8(2)).unitary, np.eye(4))


def test_is_entangling_cphase_phases():
    for phi in [np.pi / 4, np.pi / 2, np.pi, 1.0, 5.0]:
        assert is_entangling(c_phase(phi))[0]
    for phi in [0.0, 2 * np.pi, -2 * np.pi]:
        assert not is_entangling(c_phase(phi))[0]


def test_operator_schmidt_values_of_product(rng):
    u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
    s = operator_schmidt_values(u)
    assert s[0] > 1e-6
    assert np.all(s[1:] < 1e-10 * s[0])


def test_equal_up_to_phase():
    assert equal_up_to_phase(np.eye(2), np.eye(2), tol=1e-12)
    assert equal_up_to_phase(-1j * X, X, tol=1e-12)
    assert not equal_up_to_phase(X, Z, tol=1e-9)


def test_equal_up_to_phase_against_a_zero_b():
    # no entry of b fixes the phase: a matches iff a is itself zero within tol
    zero = np.zeros((2, 2))
    assert equal_up_to_phase(zero, zero)
    assert equal_up_to_phase(1e-10 * X, zero, tol=1e-9)
    assert not equal_up_to_phase(1e-8 * X, zero, tol=1e-9)
    assert not equal_up_to_phase(X, zero)


def test_random_gates_preserve_norm_and_reverse(rng):
    for _ in range(10):
        k = random_hermitian(rng, 4)
        t = rng.uniform(0.1, 2.0)
        g = gate_from_generator(k, t)
        ginv = gate_from_generator(-k, t)
        psi = PureState(random_pure(rng, 4))
        out = apply(g, psi)
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-10
        back = apply(ginv, out)
        np.testing.assert_allclose(back.amplitudes, psi.amplitudes, atol=1e-9)


def test_entangling_cphases_entangle_some_stabilizer_product():
    names = ["0", "1", "+", "-", "+i", "-i"]
    for phi in [np.pi / 4, np.pi / 2, np.pi]:
        g = c_phase(phi)
        assert is_entangling(g)[0]
        found = False
        for a in names:
            for b in names:
                out = apply(g, product_state([a, b]))
                if pure_entanglement(out) > 1e-9:
                    found = True
                    break
            if found:
                break
        assert found, f"no stabilizer product entangled by C_phi at phi={phi}"


def test_hadamard_matrix():
    np.testing.assert_allclose(
        hadamard().unitary, np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-15
    )
    np.testing.assert_allclose(swap_gate().unitary, SWAP, atol=1e-15)
