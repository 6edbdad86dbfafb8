"""Quantum state types and two-qubit entanglement diagnostics.

Convention used throughout the package: qubit 1 is the left (most
significant) tensor factor, so the amplitude vector of a two-qubit state
is ordered (g00, g01, g10, g11).

States are frozen values, normalized on construction, that hold read-only
arrays of their own. Separability of a pure two-qubit state is decided
through the determinant |g00*g11 - g01*g10| of the coefficient matrix,
which is the ratio condition g00/g01 = g10/g11 made total (no division by
vanishing coefficients). For mixed states the partial-transpose criterion
is exact at this dimension. ``_product`` alone decides the product state
rho_1 (x) rho_2 a state-independent map needs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import _array, _check_hermitian, _first, _marginals, _matrix
from .tolerances import DEFAULT, _choice, _hold, _sequence

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


@dataclass(frozen=True, eq=False)
class PureState:
    """Pure state of n qubits; amplitudes are normalized on construction and held read-only."""

    amplitudes: np.ndarray

    def __post_init__(self):
        a = _array(self.amplitudes, "amplitudes").reshape(-1)
        if not np.isfinite(a).all():
            raise ValueError("amplitudes contain non-finite entries")
        _qubit_count(a.size, "amplitudes")
        with np.errstate(over="ignore"):  # a norm that overflows is inf, refused below
            norm = float(np.linalg.norm(a))
        if not 1e-12 <= norm < np.inf:
            raise ValueError(f"amplitudes must have a norm in [1e-12, inf), got norm {norm:.3g}")
        _hold(self, amplitudes=a / norm)

    @property
    def n_qubits(self) -> int:
        return self.amplitudes.size.bit_length() - 1


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Density matrix of n qubits; validates Hermiticity, trace and positivity, and holds
    a read-only copy of the matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _matrix(self.matrix, "matrix")
        _qubit_count(len(m), "matrix")
        _check_density(m, "matrix")
        _hold(self, matrix=np.array(m))

    @property
    def n_qubits(self) -> int:
        return len(self.matrix).bit_length() - 1

    def purity(self) -> float:
        return float(_purities(self.matrix))


def _qubit_count(size: int, what: str) -> int:
    """n >= 1 with size = 2^n: the one rule for a state's dimension; a refusal starts with what."""
    n = size.bit_length() - 1
    if n < 1 or size != 2**n:
        raise ValueError(f"{what} must be 2^n-dimensional for n >= 1, got dimension {size}")
    return n


def _instance(value, kind, n_qubits: int | None, what: str):
    """value, checked to be a kind; a state also of n_qubits qubits unless None.

    The one check of a structured argument's type; each message starts with what.
    """
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be a {kind.__name__}, got {type(value).__name__}")
    if n_qubits is not None and value.n_qubits != n_qubits:
        raise ValueError(f"{what} must be a {n_qubits}-qubit state, got {value.n_qubits} qubits")
    return value


def named_state(name: str) -> PureState:
    """One of the six single-qubit stabilizer states: 0 1 + - +i -i."""
    return PureState(NAMED_AMPLITUDES[_choice(name, NAMED_AMPLITUDES, "name")])


def product_state(factors) -> PureState:
    """Tensor product of single-qubit states given as names or PureStates."""
    amps = np.array([1.0], dtype=complex)
    for i, f in enumerate(_sequence(factors, "factors")):
        what = f"factors[{i}]"
        if isinstance(f, str):
            f = PureState(NAMED_AMPLITUDES[_choice(f, NAMED_AMPLITUDES, what)])
        amps = np.kron(amps, _instance(f, PureState, None, what).amplitudes)
    return PureState(amps)


def densify(psi: PureState) -> DensityMatrix:
    """|psi><psi| as a DensityMatrix."""
    a = _instance(psi, PureState, None, "psi").amplitudes
    return DensityMatrix(np.outer(a, a.conj()))


def pure_entanglement(psi: PureState) -> float:
    """Determinant diagnostic tau = |g00*g11 - g01*g10| of a 2-qubit pure state.

    tau vanishes exactly on separable states, ranges up to 1/2, and equals
    half the concurrence.
    """
    return float(_taus(_instance(psi, PureState, 2, "psi").amplitudes))


def negativity(rho: DensityMatrix) -> float:
    """Sum of |negative eigenvalues| of the partial transpose over qubit 2.

    Positive iff entangled for two qubits (the partial-transpose criterion
    is exact at dimension 2x2), which covers the mixed inputs that pure
    state diagnostics cannot.
    """
    return float(_negativities(_instance(rho, DensityMatrix, 2, "rho").matrix))


def _product(m: np.ndarray, tol: float, what: str) -> tuple[np.ndarray, np.ndarray]:
    """(Tr_2 m, Tr_1 m) of a 4x4 state m whose correlation c = ||m - Tr_2 m (x) Tr_1 m||_F
    is at most tol: the one product-state rule. A refusal starts with what and quotes c."""
    marg1, marg2 = _marginals(m)
    c = float(np.linalg.norm(m - np.kron(marg1, marg2)))
    if c > tol:
        raise ValueError(
            f"{what} is correlated (||rho - rho_1 (x) rho_2||_F = {c:.3g}): a "
            "state-independent map exists only when the composite starts in a "
            "product state rho_1 (x) rho_2 with a fixed environment state"
        )
    return marg1, marg2


def _check_density(m: np.ndarray, what: str) -> None:
    """Validate a (..., d, d) stack of density matrices, a single one included.

    Each check runs over the whole stack at once: ``linalg._check_hermitian``
    (finite entries, then Hermiticity), then unit trace and positivity. A
    failing check starts with what and quotes the value of the first matrix
    that fails it.

    One batched Cholesky of m + positivity * 1 decides positivity: the
    factor exists exactly when every eigenvalue is above -positivity. Only
    if it fails does ``eigvalsh`` run, to decide as before (an eigenvalue
    of exactly -positivity passes) and quote the first failing value.
    Both read the lower triangle only.
    """
    _check_hermitian(m, what)
    # a trace that overflows is inf, or nan where a pairwise sum meets +inf and -inf
    with np.errstate(over="ignore", invalid="ignore"):
        tr = np.trace(m, axis1=-2, axis2=-1)
    bad = ~(np.abs(tr - 1.0) <= DEFAULT.hermiticity)  # nan fails too
    if bad.any():
        raise ValueError(f"{what} must have trace 1, got {complex(_first(tr, bad))}")
    try:
        np.linalg.cholesky(m + DEFAULT.positivity * np.eye(m.shape[-1]))
    except np.linalg.LinAlgError:
        w0 = np.linalg.eigvalsh(m)[..., 0]
        bad = w0 < -DEFAULT.positivity
        if bad.any():
            raise ValueError(
                f"{what} must be positive semidefinite, got eigenvalue {_first(w0, bad)}"
            ) from None


def _negativities(m: np.ndarray) -> np.ndarray:
    """Negativity of every 4x4 matrix in a (..., 4, 4) stack, as negativity() defines it."""
    pt = m.reshape(m.shape[:-2] + (2, 2, 2, 2)).swapaxes(-3, -1).reshape(m.shape)
    w = np.linalg.eigvalsh(pt)
    return np.where(w < 0.0, -w, 0.0).sum(axis=-1)


def _taus(g: np.ndarray) -> np.ndarray:
    """tau of every 4-vector in a (..., 4) stack, as pure_entanglement() defines it."""
    return np.abs(g[..., 0] * g[..., 3] - g[..., 1] * g[..., 2])


def _purities(m: np.ndarray) -> np.ndarray:
    """tr(m m) of every matrix in a (..., d, d) stack, as DensityMatrix.purity() defines it."""
    return np.trace(m @ m, axis1=-2, axis2=-1).real


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """(1/2) tr|a - b|: operational distinguishability of two states."""
    _instance(a, DensityMatrix, None, "a")
    _instance(b, DensityMatrix, a.n_qubits, "b")
    w = np.linalg.eigvalsh(a.matrix - b.matrix)
    return float(0.5 * np.sum(np.abs(w)))
