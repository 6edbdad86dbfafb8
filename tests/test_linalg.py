import warnings

import numpy as np
import pytest

from udmlab import gates, linalg
from conftest import partial_trace_by_sums, random_hermitian, random_unitary, series_matexp

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
BELL = np.zeros((4, 4), dtype=complex)
BELL[np.ix_([0, 3], [0, 3])] = 0.5


def test_partial_trace_product_states():
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    np.testing.assert_allclose(
        linalg.partial_trace(np.kron(rho0, rho0), keep=1), rho0, atol=1e-15
    )
    rho_a = np.array([[0.7, 0.1j], [-0.1j, 0.3]], dtype=complex)
    rho_b = np.array([[0.2, 0.0], [0.0, 0.8]], dtype=complex)
    np.testing.assert_allclose(
        linalg.partial_trace(np.kron(rho_a, rho_b), keep=2), rho_b, atol=1e-14
    )


def test_partial_trace_bell_is_maximally_mixed():
    np.testing.assert_allclose(linalg.partial_trace(BELL, keep=1), I2 / 2, atol=1e-15)
    # agrees with the explicit double-sum oracle
    np.testing.assert_allclose(
        linalg.partial_trace(BELL, keep=1), partial_trace_by_sums(BELL, 1), atol=1e-15
    )


def test_partial_trace_preserves_trace(rng):
    for _ in range(10):
        rho = random_hermitian(rng, 4)
        for keep in (1, 2):
            reduced = linalg.partial_trace(rho, keep)
            assert abs(np.trace(reduced) - np.trace(rho)) < 1e-12
            np.testing.assert_allclose(
                reduced, partial_trace_by_sums(rho, keep), atol=1e-13
            )


def test_partial_trace_rejects_wrong_shape():
    with pytest.raises(ValueError):
        linalg.partial_trace(I2, keep=1)


def test_partial_trace_rejects_nonfinite():
    bad = np.diag([np.nan, 0, 0, 1]).astype(complex)
    with pytest.raises(ValueError, match="non-finite"):
        linalg.partial_trace(bad, keep=1)
    for entry in (complex(0.0, np.inf), complex(1.0, np.nan)):  # only the imaginary part
        bad = np.diag([entry, 0, 0, 1]).astype(complex)
        with pytest.raises(ValueError, match="^rho has non-finite entries$"):
            linalg.partial_trace(bad, keep=1)


def test_matexp_zero_time_is_identity(rng):
    k = random_hermitian(rng, 4)
    np.testing.assert_allclose(linalg.matexp_hermitian(k, 0.0), np.eye(4), atol=1e-15)


def test_matexp_x_halfpi_is_spinflip_up_to_phase():
    u = linalg.matexp_hermitian(X, np.pi / 2)
    np.testing.assert_allclose(u, -1j * X, atol=1e-14)
    assert gates.equal_up_to_phase(u, X, tol=1e-10)


def test_matexp_diagonal_gives_cphase():
    u = linalg.matexp_hermitian(np.diag([0, 0, 0, np.pi]).astype(complex), 1.0)
    np.testing.assert_allclose(u, np.diag([1, 1, 1, -1]), atol=1e-14)


def test_matexp_agrees_with_series():
    # the power series converges fast at these norms; 40 terms is far past
    # double precision for t = pi/2
    u = linalg.matexp_hermitian(X, np.pi / 2)
    np.testing.assert_allclose(u, series_matexp(X, np.pi / 2, 40), atol=1e-13)


def test_matexp_semigroup_and_unitarity(rng):
    for _ in range(5):
        k = random_hermitian(rng, 4)
        t, s = rng.uniform(0.1, 2.0, size=2)
        lhs = linalg.matexp_hermitian(k, t) @ linalg.matexp_hermitian(k, s)
        np.testing.assert_allclose(lhs, linalg.matexp_hermitian(k, t + s), atol=1e-9)
        assert linalg.unitarity_defect(linalg.matexp_hermitian(k, t)) < 1e-10


def test_matexp_rejects_non_hermitian():
    with pytest.raises(ValueError):
        linalg.matexp_hermitian(np.array([[0, 1], [0, 0]]), 1.0)


def test_hermiticity_defect_that_overflows_is_inf_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert linalg.hermiticity_defect(np.array([[0, 1e308], [-1e308, 0]])) == np.inf
        assert np.isnan(linalg.hermiticity_defect(np.array([[0, np.inf], [np.inf, 0]])))


def test_both_defects_of_an_empty_matrix_are_zero():
    # unitarity_defect raised numpy's "zero-size array to reduction operation maximum"
    empty = np.zeros((0, 0))
    assert linalg.hermiticity_defect(empty) == 0.0
    assert linalg.unitarity_defect(empty) == 0.0


def test_pseudo_inverse_identity_and_diagonal():
    pinv, rank = linalg.pseudo_inverse(np.eye(4))
    np.testing.assert_allclose(pinv, np.eye(4), atol=1e-14)
    assert rank == 4
    pinv, rank = linalg.pseudo_inverse(np.diag([2.0, 0.0]), cutoff=1e-12)
    np.testing.assert_allclose(pinv, np.diag([0.5, 0.0]), atol=1e-14)
    assert rank == 1


def test_pseudo_inverse_of_unitary(rng):
    u = random_unitary(rng, 4)
    pinv, rank = linalg.pseudo_inverse(u)
    assert rank == 4
    np.testing.assert_allclose(pinv, u.conj().T, atol=1e-12)
    np.testing.assert_allclose(u @ pinv, np.eye(4), atol=1e-12)


def test_pseudo_inverse_zero_matrix():
    pinv, rank = linalg.pseudo_inverse(np.zeros((3, 3)))
    assert rank == 0
    np.testing.assert_array_equal(pinv, np.zeros((3, 3)))


@pytest.mark.parametrize("shape", [(2, 3), (3, 2), (1, 4), (4, 1)])
def test_pseudo_inverse_of_a_non_square_matrix_is_numpys(rng, shape):
    # the full SVD's square u and vh did not broadcast against the short spectrum
    m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    pinv, rank = linalg.pseudo_inverse(m)
    assert pinv.shape == shape[::-1] and rank == min(shape)
    np.testing.assert_allclose(pinv, np.linalg.pinv(m), atol=1e-14)
    pinv, rank = linalg.pseudo_inverse(np.zeros(shape))
    assert rank == 0
    np.testing.assert_array_equal(pinv, np.zeros(shape[::-1]))
