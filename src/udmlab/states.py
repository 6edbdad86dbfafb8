"""Quantum state types and two-qubit entanglement diagnostics.

Convention used throughout the package: qubit 1 is the left (most
significant) tensor factor, so the amplitude vector of a two-qubit state
is ordered (g00, g01, g10, g11).

States are normalized on construction. Separability of a pure two-qubit
state is decided through the determinant |g00*g11 - g01*g10| of the
coefficient matrix, which is the ratio condition g00/g01 = g10/g11 made
total (no division by vanishing coefficients). For mixed states the
partial-transpose criterion is exact at this dimension.
"""
from __future__ import annotations

import numpy as np

from .tolerances import DEFAULT

__all__ = [
    "PureState",
    "DensityMatrix",
    "named_state",
    "product_state",
    "densify",
    "pure_entanglement",
    "negativity",
    "trace_distance",
]

NAMED_AMPLITUDES = {
    "0": np.array([1.0, 0.0], dtype=complex),
    "1": np.array([0.0, 1.0], dtype=complex),
    "+": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
    "-": np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0),
    "+i": np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0),
    "-i": np.array([1.0, -1.0j], dtype=complex) / np.sqrt(2.0),
}


class PureState:
    """Pure state of n qubits; amplitudes are normalized on construction."""

    __slots__ = ("amplitudes", "n_qubits")

    def __init__(self, amplitudes):
        a = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
            raise ValueError("amplitudes contain non-finite entries")
        n = int(np.log2(a.size)) if a.size else 0
        if a.size < 2 or 2**n != a.size:
            raise ValueError(f"amplitude length {a.size} is not 2^n for n >= 1")
        with np.errstate(over="ignore"):  # a norm that overflows is inf, refused below
            norm = float(np.linalg.norm(a))
        if not 1e-12 <= norm < np.inf:
            raise ValueError(f"cannot normalize amplitudes of norm {norm:.3g}")
        self.amplitudes = a / norm
        self.n_qubits = n

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def __repr__(self):
        return f"PureState(n_qubits={self.n_qubits}, amplitudes={self.amplitudes!r})"


class DensityMatrix:
    """Density matrix of n qubits; validates Hermiticity, trace and positivity."""

    __slots__ = ("matrix", "n_qubits")

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2:
            raise ValueError(f"expected a matrix, got ndim={m.ndim}")
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got {m.shape}")
        n = int(np.log2(m.shape[0])) if m.size else 0
        if 2**n != m.shape[0] or n < 1:
            raise ValueError(f"dimension {m.shape[0]} is not 2^n for n >= 1")
        _check_density(m)
        self.matrix = m
        self.n_qubits = n

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))

    def __repr__(self):
        return f"DensityMatrix(n_qubits={self.n_qubits})"


def _state(value, kind, n_qubits: int | None, what: str):
    """value, checked to be a kind (PureState or DensityMatrix) of n_qubits qubits, any when None.

    The one check of a state argument; each message starts with what.
    """
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be a {kind.__name__}, got {type(value).__name__}")
    if n_qubits is not None and value.n_qubits != n_qubits:
        raise ValueError(f"{what} must be a {n_qubits}-qubit state, got {value.n_qubits} qubits")
    return value


def named_state(name: str) -> PureState:
    """One of the six single-qubit stabilizer states: 0 1 + - +i -i."""
    try:
        return PureState(NAMED_AMPLITUDES[name])
    except KeyError:
        raise ValueError(
            f"unknown state name {name!r}; expected one of {sorted(NAMED_AMPLITUDES)}"
        ) from None


def product_state(factors) -> PureState:
    """Tensor product of single-qubit states given as names or PureStates."""
    amps = np.array([1.0], dtype=complex)
    for i, f in enumerate(factors):
        psi = named_state(f) if isinstance(f, str) else _state(f, PureState, None, f"factors[{i}]")
        amps = np.kron(amps, psi.amplitudes)
    return PureState(amps)


def densify(psi: PureState) -> DensityMatrix:
    """|psi><psi| as a DensityMatrix."""
    a = _state(psi, PureState, None, "psi").amplitudes
    return DensityMatrix(np.outer(a, a.conj()))


def pure_entanglement(psi: PureState) -> float:
    """Determinant diagnostic tau = |g00*g11 - g01*g10| of a 2-qubit pure state.

    tau vanishes exactly on separable states, ranges up to 1/2, and equals
    half the concurrence.
    """
    g = _state(psi, PureState, 2, "psi").amplitudes
    return float(abs(g[0] * g[3] - g[1] * g[2]))


def negativity(rho: DensityMatrix) -> float:
    """Sum of |negative eigenvalues| of the partial transpose over qubit 2.

    Positive iff entangled for two qubits (the partial-transpose criterion
    is exact at dimension 2x2), which covers the mixed inputs that pure
    state diagnostics cannot.
    """
    return float(_negativities(_state(rho, DensityMatrix, 2, "rho").matrix))


def _check_density(m: np.ndarray) -> None:
    """Validate a (..., d, d) stack of density matrices, a single one included.

    Each check runs over the whole stack at once: finite entries first (a
    NaN would pass every check below, since each comparison with it is
    False), then Hermiticity, unit trace and the smallest eigenvalue. A
    failing check quotes the value of the first matrix that fails it.
    """
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    defect = np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)
    if (defect > DEFAULT.hermiticity).any():
        raise ValueError("density matrix is not Hermitian")
    tr = np.trace(m, axis1=-2, axis2=-1)
    bad = np.abs(tr - 1.0) > DEFAULT.hermiticity
    if bad.any():
        raise ValueError(f"density matrix trace {complex(_first(tr, bad))} is not 1")
    w0 = np.linalg.eigvalsh(m)[..., 0]
    bad = w0 < -DEFAULT.positivity
    if bad.any():
        raise ValueError(f"density matrix has negative eigenvalue {_first(w0, bad)}")


def _first(values, bad):
    """The entry of values at the first True of the same-shaped mask bad."""
    return np.ravel(values)[np.argmax(bad)]


def _negativities(m: np.ndarray) -> np.ndarray:
    """Negativity of every 4x4 matrix in a (..., 4, 4) stack, as negativity() defines it."""
    pt = m.reshape(m.shape[:-2] + (2, 2, 2, 2)).swapaxes(-3, -1).reshape(m.shape)
    w = np.linalg.eigvalsh(pt)
    return np.where(w < 0.0, -w, 0.0).sum(axis=-1)


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """(1/2) tr|a - b|: operational distinguishability of two states."""
    _state(a, DensityMatrix, None, "a")
    _state(b, DensityMatrix, a.n_qubits, "b")
    w = np.linalg.eigvalsh(a.matrix - b.matrix)
    return float(0.5 * np.sum(np.abs(w)))
