"""Dense complex linear algebra kernel.

All operations work on plain complex ndarrays (the universal carrier for
states, unitaries and superoperators) and are pure functions; nothing here
holds state. Dimensions stay at or below 2^8 by design, so everything is
dense and spectral methods are preferred over iterative ones.
"""
from __future__ import annotations

import sys

import numpy as np

from .tolerances import DEFAULT, _integer, _real

__all__ = [
    "partial_trace",
    "matexp_hermitian",
    "pseudo_inverse",
    "hermiticity_defect",
    "unitarity_defect",
]


def _matrix(m, what: str, dim: int | None = None, *, square: bool = True) -> np.ndarray:
    """m as a finite complex 2-D array, square unless square is False, dim x dim when given.

    The one check of a matrix argument; each message starts with what, and
    a refused shape is quoted.
    """
    try:
        a = np.asarray(m, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what}: {exc}") from None
    if dim is not None and a.shape != (dim, dim):
        raise ValueError(f"{what} must be {dim}x{dim}, got {a.shape}")
    if a.ndim != 2 or (square and a.shape[0] != a.shape[1]):
        raise ValueError(f"{what} must be a {'square ' if square else ''}matrix, got {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{what} has non-finite entries")
    return a


def hermiticity_defect(m: np.ndarray) -> float:
    """Max-abs deviation of m from its conjugate transpose."""
    m = np.asarray(m)
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0

def unitarity_defect(u: np.ndarray) -> float:
    """Max-abs deviation of u u^dag from the identity."""
    u = np.asarray(u)
    return float(np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))))


def partial_trace(rho, keep: int) -> np.ndarray:
    """Reduce a two-qubit density matrix to one qubit.

    Qubit 1 is the left (most significant) tensor factor. ``keep`` selects
    the subsystem that survives; the other is summed out. The trace is
    preserved exactly.
    """
    keep = _integer(keep, "keep", 1, 2)
    return _marginals(_hermitian(rho, "rho", 4))[keep - 1]


def _marginals(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Tr_2 m, Tr_1 m) of a 4x4 array m, unchecked: the one two-qubit reduction."""
    r = m.reshape(2, 2, 2, 2)
    return np.trace(r, axis1=1, axis2=3), np.trace(r, axis1=0, axis2=2)


def _hermitian(k, what: str, dim: int | None = None) -> np.ndarray:
    """k by _matrix, square, and by _check_hermitian."""
    k = _matrix(k, what, dim)
    _check_hermitian(k, what)
    return k


def _check_hermitian(m: np.ndarray, what: str) -> None:
    """Refuse a (..., d, d) stack m, a single matrix included, unless every matrix is
    finite and Hermitian to DEFAULT.hermiticity: the one Hermitian rule.

    Finite entries are checked first: a NaN would pass the defect bound, since
    each comparison with it is False. A defect of finite entries near the float
    maximum overflows without a warning to inf, which the bound refuses. A
    refusal starts with what and quotes the first matrix that fails.
    """
    if not np.isfinite(m).all():
        raise ValueError(f"{what} has non-finite entries")
    with np.errstate(over="ignore"):
        defects = np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)
    bad = defects > DEFAULT.hermiticity
    if bad.any():
        defect = _first(defects, bad)
        raise ValueError(f"{what} must be Hermitian, got max|m - m^dag| = {defect:.3g}")


def _first(values, bad):
    """The entry of values at the first True of the same-shaped mask bad."""
    return np.ravel(values)[np.argmax(bad)]


def _unitary(u, what: str, dim: int | None = None) -> np.ndarray:
    """u by _matrix, square, and unitary to DEFAULT.unitarity: the one unitary rule."""
    u = _matrix(u, what, dim)
    defect = unitarity_defect(u)
    if defect > DEFAULT.unitarity:
        raise ValueError(f"{what} must be a unitary matrix, got unitarity defect {defect:.3g}")
    return u


def _check_phase(w, t: float, what: str, reconstruction: float = DEFAULT.reconstruction):
    """Refuse a time t at which e^{-i K t}, K of eigenvalues w, is not known to reconstruction.

    A phase p = max|eig K| |t| carries p * eps of round-off, so the bound is
    p <= reconstruction / eps (about 4.5e6 rad at the default). Both are
    float products and quotients, with no warning: an overflow reads inf, and
    a zero spectrum at an infinite |t| reads nan, which is refused as well.
    """
    phase = float(np.abs(w).max(initial=0.0)) * abs(t)
    limit = reconstruction / sys.float_info.epsilon
    if not phase <= limit:
        raise ValueError(
            f"{what} must keep the phase max|eig K| * |t| within reconstruction / eps = "
            f"{limit:.3g} rad, got {phase:.3g} rad at |t| = {abs(t):.3g}"
        )


def matexp_hermitian(k, t: float) -> np.ndarray:
    """exp(-i k t) for Hermitian k, via eigendecomposition.

    The spectral route keeps the result unitary to machine precision (Pade and
    series forms do not); a t beyond the phase bound of ``_check_phase`` is refused.
    """
    t = _real(t, "t")
    w, v = np.linalg.eigh(_hermitian(k, "generator"))
    _check_phase(w, t, "t")
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def pseudo_inverse(m, cutoff: float = DEFAULT.pinv_cutoff) -> tuple[np.ndarray, int]:
    """Moore-Penrose inverse with a relative singular-value cutoff.

    Singular values below cutoff * sigma_max are treated as zero. Returns
    the inverse together with the numerical rank; rank deficiency is
    reported, never fatal.
    """
    cutoff = _real(cutoff, "cutoff", lo=0)
    m = _matrix(m, "m", square=False)
    u, s, vh = np.linalg.svd(m)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((m.shape[1], m.shape[0]), dtype=complex), 0
    keep = s > cutoff * s[0]
    rank = int(np.count_nonzero(keep))
    inv_s = np.zeros_like(s)
    inv_s[keep] = 1.0 / s[keep]
    return (vh.conj().T * inv_s) @ u.conj().T, rank
