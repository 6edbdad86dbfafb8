"""Dense complex linear algebra kernel.

All operations work on plain complex ndarrays (the universal carrier for
states, unitaries and superoperators) and are pure functions; nothing here
holds state. Dimensions stay at or below 2^8 by design, so everything is
dense and spectral methods are preferred over iterative ones.
"""
from __future__ import annotations

import numpy as np

from .tolerances import DEFAULT

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
    rho = as_matrix(rho)
    if rho.shape != (4, 4):
        raise ValueError(f"partial_trace expects a 4x4 matrix, got {rho.shape}")
    if hermiticity_defect(rho) > 1e-8:
        raise ValueError("partial_trace input is not Hermitian")
    if keep not in (1, 2):
        raise ValueError("keep must be 1 or 2")
    r = rho.reshape(2, 2, 2, 2)
    if keep == 1:
        return np.trace(r, axis1=1, axis2=3)
    return np.trace(r, axis1=0, axis2=2)


def matexp_hermitian(k, t: float) -> np.ndarray:
    """exp(-i k t) for Hermitian k, via eigendecomposition.

    The spectral route keeps the result unitary to machine precision, which
    Pade/series approximations do not guarantee.
    """
    k = as_matrix(k)
    if hermiticity_defect(k) > DEFAULT.hermiticity:
        raise ValueError("matexp_hermitian requires a Hermitian generator")
    w, v = np.linalg.eigh(k)
    return (v * np.exp(-1j * w * float(t))) @ v.conj().T


def pseudo_inverse(m, cutoff: float = DEFAULT.pinv_cutoff) -> tuple[np.ndarray, int]:
    """Moore-Penrose inverse with a relative singular-value cutoff.

    Singular values below cutoff * sigma_max are treated as zero. Returns
    the inverse together with the numerical rank; rank deficiency is
    reported, never fatal.
    """
    m = as_matrix(m)
    u, s, vh = np.linalg.svd(m)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((m.shape[1], m.shape[0]), dtype=complex), 0
    keep = s > cutoff * s[0]
    rank = int(np.count_nonzero(keep))
    inv_s = np.zeros_like(s)
    inv_s[keep] = 1.0 / s[keep]
    return (vh.conj().T * inv_s) @ u.conj().T, rank
