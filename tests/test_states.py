import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from udmlab import (
    DensityMatrix,
    PureState,
    densify,
    named_state,
    negativity,
    product_state,
    pure_entanglement,
    trace_distance,
)
from udmlab.linalg import _hermitian
from udmlab.states import _check_density, _product
from udmlab.tolerances import DEFAULT
from conftest import (
    eigvalsh_verdict,
    partial_trace_by_sums,
    product_correlation,
    random_density,
    random_pure,
    random_unitary,
)

BELL = PureState([1, 0, 0, 1])


def stabilizer_pairs():
    names = ["0", "1", "+", "-", "+i", "-i"]
    return [(a, b) for a in names for b in names]


def test_purestate_normalizes_and_validates():
    psi = PureState([2, 0])
    np.testing.assert_allclose(psi.amplitudes, [1, 0])
    assert psi.n_qubits == 1
    with pytest.raises(ValueError):
        PureState([0, 0])
    with pytest.raises(ValueError):
        PureState([1, 0, 0])  # not 2^n
    with pytest.raises(ValueError):
        PureState([np.nan, 1])
    with pytest.raises(ValueError, match="amplitudes contain non-finite entries"):
        PureState([complex(1.0, np.inf), 1])  # only the imaginary part is not finite


def test_densitymatrix_invariants():
    DensityMatrix(np.eye(2) / 2)
    with pytest.raises(ValueError, match=r"^matrix must have trace 1, got \(2\+0j\)$"):
        DensityMatrix(np.eye(2))
    with pytest.raises(ValueError, match=r"^matrix must be Hermitian, got max\|m - m\^dag\| = 1$"):
        DensityMatrix(np.array([[1, 1], [0, 0]]))
    negative = "^matrix must be positive semidefinite, got eigenvalue -0.5$"
    with pytest.raises(ValueError, match=negative):
        DensityMatrix(np.diag([1.5, -0.5]))
    with pytest.raises(ValueError, match="dimension 0"):
        DensityMatrix(np.zeros((0, 0)))


def test_densify_known_matrices():
    np.testing.assert_allclose(densify(named_state("0")).matrix, np.diag([1, 0]), atol=1e-15)
    np.testing.assert_allclose(densify(named_state("+")).matrix, np.full((2, 2), 0.5), atol=1e-15)
    # (|00> + |11>)/sqrt(2): corners 1/2, outer product written out by hand
    expected = np.zeros((4, 4))
    expected[np.ix_([0, 3], [0, 3])] = 0.5
    np.testing.assert_allclose(densify(BELL).matrix, expected, atol=1e-15)
    assert abs(densify(BELL).purity() - 1.0) < 1e-9


def test_pure_entanglement_examples():
    assert pure_entanglement(product_state(["+", "+"])) < 1e-15
    # uniform input through a pi phase on |11>: coefficients (1,1,1,-1)/2
    phased = PureState([1, 1, 1, -1])
    assert abs(pure_entanglement(phased) - 0.5) < 1e-15
    assert abs(pure_entanglement(BELL) - 0.5) < 1e-15


def test_pure_entanglement_requires_two_qubits():
    with pytest.raises(ValueError):
        pure_entanglement(named_state("0"))


def test_negativity_examples(rng):
    rho_a = DensityMatrix(random_density(rng, 2))
    rho_b = DensityMatrix(random_density(rng, 2))
    product = DensityMatrix(np.kron(rho_a.matrix, rho_b.matrix))
    assert negativity(product) < 1e-9
    # partial transpose of the Bell state has eigenvalues (1/2,1/2,1/2,-1/2)
    assert abs(negativity(densify(BELL)) - 0.5) < 1e-12
    assert negativity(DensityMatrix(np.eye(4) / 4)) == 0.0


def test_is_separable_pure_examples(rng):
    for _ in range(10):
        alpha = random_pure(rng, 2)
        beta = random_pure(rng, 2)
        assert pure_entanglement(PureState(np.kron(alpha, beta))) <= 1e-9
    # uniform input with a phase pi/2 on the last amplitude: 1 != 1/e^{i phi}
    assert pure_entanglement(PureState([1, 1, 1, 1j])) > 1e-9
    assert pure_entanglement(product_state(["0", "1"])) <= 1e-9


def test_product_states_have_no_entanglement(rng):
    for a, b in stabilizer_pairs():
        psi = product_state([a, b])
        assert pure_entanglement(psi) < 1e-12
        assert negativity(densify(psi)) < 1e-9


def test_tau_invariant_under_local_unitaries(rng):
    for _ in range(10):
        psi = PureState(random_pure(rng, 4))
        tau = pure_entanglement(psi)
        u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
        assert abs(pure_entanglement(PureState(u @ psi.amplitudes)) - tau) < 1e-9


def test_negativity_and_tau_agree_on_pure_states(rng):
    for _ in range(30):
        psi = PureState(random_pure(rng, 4))
        tau = pure_entanglement(psi)
        neg = negativity(densify(psi))
        assert (neg > 1e-9) == (tau > 1e-9)
        # two independent formulas for one quantity
        s = np.linalg.svd(psi.amplitudes.reshape(2, 2), compute_uv=False)
        assert abs(2 * tau - 2 * s[0] * s[1]) < 1e-9


def test_trace_distance():
    rho0 = densify(named_state("0"))
    rho1 = densify(named_state("1"))
    assert abs(trace_distance(rho0, rho1) - 1.0) < 1e-12
    assert trace_distance(rho0, rho0) == 0.0


def bad_densities(rng):
    """One invalid 4x4 matrix per check, each passing every earlier check."""
    nan = random_density(rng, 4)
    nan[1, 2] = np.nan
    skew = random_density(rng, 4)
    skew[0, 1] += 0.1
    return {
        "nan entry": nan,
        "not Hermitian": skew,
        "trace 1.1": 1.1 * random_density(rng, 4),
        "negative eigenvalue": np.diag([0.6, 0.3, 0.2, -0.1]).astype(complex),
    }


def test_densitymatrix_messages_name_the_matrix(rng):
    bad = bad_densities(rng)
    skew = bad["not Hermitian"]
    messages = {
        "nan entry": "matrix has non-finite entries",
        "not Hermitian": "matrix must be Hermitian, got max|m - m^dag| = "
        f"{np.abs(skew - skew.conj().T).max():.3g}",
        "trace 1.1": f"matrix must have trace 1, got {complex(np.trace(bad['trace 1.1']))}",
        "negative eigenvalue": "matrix must be positive semidefinite, got eigenvalue "
        f"{np.linalg.eigvalsh(bad['negative eigenvalue'])[0]}",
    }
    for kind, m in bad.items():
        with pytest.raises(ValueError) as exc:
            DensityMatrix(m)
        assert str(exc.value) == messages[kind], kind


def test_check_density_rejects_one_bad_matrix_anywhere_in_a_stack(rng):
    good = np.array([random_density(rng, 4) for _ in range(5)])
    _check_density(good, "stack")
    _check_density(good.reshape(5, 1, 4, 4), "stack")
    for kind, m in bad_densities(rng).items():
        with pytest.raises(ValueError) as single:
            DensityMatrix(m)
        for position in range(len(good)):
            stack = good.copy()
            stack[position] = m
            with pytest.raises(ValueError) as stacked:
                _check_density(stack, "matrix")
            assert str(stacked.value) == str(single.value), (kind, position)


BREAKS = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf, "skew": 1j}


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 6),
    entries=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3), st.integers(0, 3)),
                     min_size=1, max_size=3),
    kind=st.sampled_from(sorted(BREAKS)),
    exponent=st.floats(-12.0, 3.0),
)
def test_stack_refusal_is_the_single_matrix_refusal_of_its_first_bad_matrix(
    seed, k, entries, kind, exponent
):
    # a few densities of a (k, 4, 4) stack get a non-finite entry, or an imaginary
    # part of 1e-12..1e3 that may stay within the Hermiticity tolerance; one kind
    # per stack, since the stack rule looks for non-finite entries first
    rng = np.random.default_rng(seed)
    stack = np.array([random_density(rng, 4) for _ in range(k)])
    for position, i, j in entries:
        stack[position % k, i, j] += BREAKS[kind] * 10**exponent
    single = []
    for m in stack:
        try:
            _hermitian(m, "matrix")
        except ValueError as exc:
            single.append(str(exc))
    assume(single)
    for shape in (stack.shape, (k, 1, 4, 4)):
        with pytest.raises(ValueError) as stacked:
            _check_density(stack.reshape(shape), "matrix")
        assert str(stacked.value) == single[0]


@pytest.mark.parametrize(
    "scale, rejected",
    [(-2.0, True), (-1.0000001, True), (-1.0, False), (-0.9999999, False), (-0.5, False)],
)
def test_positivity_verdict_at_the_boundary_in_mid_stack(rng, scale, rejected):
    # diag(1 - lam, lam, 0, 0) with lam = scale * positivity: an eigenvalue of
    # exactly -positivity passes, and a failure quotes lam itself
    lam = scale * DEFAULT.positivity
    stack = np.array([random_density(rng, 4) for _ in range(5)])
    stack[2] = np.diag([1.0 - lam, lam, 0.0, 0.0])
    if rejected:
        with pytest.raises(ValueError) as exc:
            _check_density(stack, "stack")
        assert str(exc.value) == f"stack must be positive semidefinite, got eigenvalue {lam}"
    else:
        _check_density(stack, "stack")


def test_positivity_verdict_agrees_with_eigvalsh_near_the_boundary():
    # unit-trace Hermitian matrices whose smallest eigenvalue lies 1e-16..1e-8 either
    # side of -positivity; within 1e-14 of it rounding may decide either way
    rng = np.random.default_rng(20261019)
    p = DEFAULT.positivity
    verdicts = {True: 0, False: 0}
    for _ in range(2000):
        lam = -p + rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-16, -8)
        w = np.concatenate(([lam], rng.dirichlet(np.ones(3)) * (1.0 - lam)))
        u = random_unitary(rng, 4)
        m = (u * w) @ u.conj().T
        m = (m + m.conj().T) / 2.0
        w0, rejected = eigvalsh_verdict(m, p)
        if abs(w0 + p) < 1e-14:
            continue
        verdicts[rejected] += 1
        if not rejected:
            _check_density(m, "m")
        else:
            with pytest.raises(ValueError) as exc:
                _check_density(m, "m")
            assert str(exc.value) == f"m must be positive semidefinite, got eigenvalue {w0}"
    assert min(verdicts.values()) > 500, verdicts


def negativity_as_before(rho):
    pt = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    w = np.linalg.eigvalsh(pt)
    return float(np.abs(w[w < 0.0]).sum())


def test_single_matrix_results_as_before(rng):
    a, b = random_density(rng, 2), random_density(rng, 2)
    matrices = [np.eye(4) / 4, densify(BELL).matrix, np.kron(a, b)]
    matrices += [random_density(rng, 4) for _ in range(20)]
    matrices += [densify(PureState(random_pure(rng, 4))).matrix for _ in range(20)]
    for m in matrices:
        rho = DensityMatrix(m)
        assert np.array_equal(rho.matrix, m) and rho.n_qubits == 2
        got = negativity(rho)
        assert type(got) is float and got == negativity_as_before(m)
    assert DensityMatrix(a).n_qubits == 1


def test_product_rule_bounds_the_correlation_and_returns_the_marginals(rng):
    # c = 1/2 exactly for 1/2 (|00><00| + |11><11|): accepted at tol = c, refused below it
    m = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    marg1, marg2 = _product(m, 0.5, "m")
    np.testing.assert_array_equal(marg1, partial_trace_by_sums(m, 1))
    np.testing.assert_array_equal(marg2, partial_trace_by_sums(m, 2))
    with pytest.raises(ValueError, match=r"^m is correlated \(\|\|rho - rho_1 \(x\) rho_2\|\|_F = 0.5\)"):
        _product(m, 0.4999, "m")
    rho = np.kron(random_density(rng, 2), random_density(rng, 2))
    assert product_correlation(rho) < DEFAULT.separability
    for got, keep in zip(_product(rho, DEFAULT.separability, "rho"), (1, 2)):
        np.testing.assert_allclose(got, partial_trace_by_sums(rho, keep), atol=1e-15)
