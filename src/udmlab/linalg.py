"""Dense complex linear algebra kernel.

All operations work on plain complex ndarrays (the universal carrier for
states, unitaries and superoperators) and are pure functions; nothing here
holds state. Dimensions stay at or below 2^8 by design, so everything is
dense and spectral methods are preferred over iterative ones.
"""
from __future__ import annotations

import sys

import numpy as np

from .tolerances import DEFAULT, _real, _which

__all__ = [
    "as_matrix",
    "partial_trace",
    "matexp_hermitian",
    "pseudo_inverse",
    "hermiticity_defect",
    "unitarity_defect",
]


def as_matrix(m) -> np.ndarray:
    """Coerce to a complex 2-D array and reject non-finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix has non-finite entries")
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
    keep = _which(keep, "keep")
    r = _hermitian(rho, "rho", 4).reshape(2, 2, 2, 2)
    if keep == 1:
        return np.trace(r, axis1=1, axis2=3)
    return np.trace(r, axis1=0, axis2=2)


def _hermitian(k, what: str, dim: int | None = None) -> np.ndarray:
    """k by as_matrix, square (dim x dim when given) and Hermitian to DEFAULT.hermiticity.

    The one check of a Hermitian matrix argument; each message starts with what.
    """
    try:
        k = as_matrix(k)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what}: {exc}") from None
    n = len(k) if dim is None else dim
    if k.shape != (n, n):
        raise ValueError(f"{what} must be {n}x{n}, got {k.shape}")
    defect = hermiticity_defect(k)
    if defect > DEFAULT.hermiticity:
        raise ValueError(f"{what} must be Hermitian, got max|m - m^dag| = {defect:.3g}")
    return k


def _check_phase(w, t: float, what: str, reconstruction: float = DEFAULT.reconstruction):
    """Refuse a time t at which e^{-i K t}, K of eigenvalues w, is not known to reconstruction.

    A phase p = max|eig K| |t| carries p * eps of round-off, so the bound is
    p <= reconstruction / eps (about 4.5e6 rad at the default). Both are
    float products and quotients: an overflow reads inf, with no warning.
    """
    phase = float(np.abs(w).max(initial=0.0)) * abs(t)
    limit = reconstruction / sys.float_info.epsilon
    if phase > limit:
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
    cutoff = _real(cutoff, "cutoff", positive=True)
    m = as_matrix(m)
    u, s, vh = np.linalg.svd(m)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((m.shape[1], m.shape[0]), dtype=complex), 0
    keep = s > cutoff * s[0]
    rank = int(np.count_nonzero(keep))
    inv_s = np.zeros_like(s)
    inv_s[keep] = 1.0 / s[keep]
    return (vh.conj().T * inv_s) @ u.conj().T, rank
