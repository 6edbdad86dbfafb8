"""Reduced dynamical maps of a single qubit coupled to a one-qubit environment.

Conventions (used everywhere, all reported numbers assume them):

* vec is column-stacking, so the superoperator of rho -> A rho B^dag is
  kron(conj(B), A), and a map is the 4x4 matrix acting on vectorized 2x2
  density matrices.
* The Choi matrix is the map applied to half of an unnormalized maximally
  entangled pair, sum_ij E(|i><j|) (x) |i><j|; it is obtained from the
  superoperator by an index reshuffle, its trace is the input dimension 2
  for trace-preserving maps, and the map is completely positive iff it is
  positive semidefinite.

A map induced from a product initial condition with a fixed environment
state rho_E is computed from its definition, E_t(rho) =
Tr_E[U_t (rho (x) rho_E) U_t^dag], as one contraction of U_t, rho_E and
conj(U_t) into the superoperator. Such maps are state-independent and
CPTP by construction; both properties are verified, not assumed.

Two certificates operationalize the failure of a state-independent
description on a sub-interval that starts from a correlated joint state:

* ``intermediate_map`` composes the long map with the pseudo-inverse of
  the short one and checks complete positivity of the candidate (the
  divisibility route; its failure is non-Markovianity).
* ``udm_witness_subinterval`` prepares two joint states with identical
  marginals at the cut time, one true and one with correlations erased,
  and reports the trace distance between the reduced outputs. A positive
  distance shows no map on the qubit's state alone can reproduce the true
  dynamics, whatever its form.

The two need not fire together. CP-divisibility can hold where the witness
fires: for K = pi|11><11| with environment |+> the coherence factor of
qubit 1 shrinks monotonically on [0, 1], so the candidate for [0.5, 1.0]
is the CP full-dephasing channel, while the witness gives D = 1/4. There
only the witness certifies that no state-independent map exists; a CP
candidate is not evidence for one.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .states import DensityMatrix, _state, trace_distance
from .tolerances import DEFAULT, _real, _which

__all__ = [
    "DynamicalMap",
    "ChoiMatrix",
    "KrausSet",
    "IntermediateMapResult",
    "WitnessReport",
    "vec",
    "unvec",
    "unitary_superoperator",
    "induced_map",
    "apply_map",
    "choi",
    "is_cptp",
    "kraus_decompose",
    "intermediate_map",
    "udm_witness_subinterval",
    "local_pair_maps",
]

def vec(m: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(m).reshape(-1, order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    """Inverse of vec for square matrices."""
    v = np.asarray(v).reshape(-1)
    d = int(round(np.sqrt(v.size)))
    return v.reshape(d, d, order="F")


def unitary_superoperator(u: np.ndarray) -> np.ndarray:
    """Superoperator of rho -> u rho u^dag."""
    u = linalg.as_matrix(u)
    return np.kron(u.conj(), u)


@dataclass(frozen=True, eq=False)
class DynamicalMap:
    """Linear map on single-qubit states, held as a 4x4 superoperator.

    ``environment_state`` is the fixed one-qubit DensityMatrix the map was
    induced from (None for composed candidates, which have no inducing state);
    ``interval`` is the (t_a, t_b) stretch of the evolution it describes,
    a pair of finite times; ``which_qubit`` says whether the described
    qubit is the left (1) or right (2) tensor factor. The superoperator is
    a read-only copy.
    """

    superoperator: np.ndarray
    environment_state: DensityMatrix | None
    interval: tuple[float, float]
    which_qubit: int

    def __post_init__(self):
        which = _which(self.which_qubit, "which_qubit")
        if self.environment_state is not None:
            _state(self.environment_state, DensityMatrix, 1, "environment_state")
        s = linalg.as_matrix(np.array(self.superoperator, dtype=complex))
        if s.shape != (4, 4):
            raise ValueError(f"superoperator must be 4x4, got {s.shape}")
        try:
            t_a, t_b = self.interval
        except (TypeError, ValueError):
            raise ValueError(f"interval must be a pair (t_a, t_b), got {self.interval!r}") from None
        interval = (_real(t_a, "interval start"), _real(t_b, "interval end"))
        s.flags.writeable = False
        object.__setattr__(self, "superoperator", s)
        object.__setattr__(self, "interval", interval)
        object.__setattr__(self, "which_qubit", which)


@dataclass(frozen=True, eq=False)
class ChoiMatrix:
    """Choi matrix of a map together with its (descending) eigenvalues."""

    matrix: np.ndarray
    eigenvalues: np.ndarray


@dataclass(frozen=True, eq=False)
class KrausSet:
    """Kraus operators K_a with their Choi-eigenvalue weights."""

    operators: tuple[np.ndarray, ...]
    weights: np.ndarray


@dataclass(frozen=True, eq=False)
class IntermediateMapResult:
    """Outcome of the divisibility check through an intermediate time."""

    candidate: DynamicalMap
    cp: bool
    min_choi_eigenvalue: float
    short_map_rank: int
    indeterminate: bool

    @property
    def verdict(self) -> str:
        if self.indeterminate:
            return "indeterminate"
        return "cp" if self.cp else "not_cp"


@dataclass(frozen=True)
class WitnessReport:
    """Same-marginal, different-outcome witness for a sub-interval."""

    t1: float
    t_star: float
    trace_distance: float
    # Frobenius distance between the true joint state at t1 and the
    # product of its marginals: how correlated the cut state is
    correlation_at_t1: float


def induced_map(k, env: DensityMatrix, t: float, which: int = 1) -> DynamicalMap:
    """The map E(rho) = Tr_E[U (rho (x) env) U^dag] induced on one qubit.

    The qubit ``which`` and the fixed environment ``env`` evolve jointly
    under U = e^{-i k t}, and the environment is traced out. The output is
    checked to be CPTP, which maps induced this way always are.
    """
    t = _real(t, "t", positive=True)
    which = _which(which, "which")
    k = linalg._hermitian(k, "generator", 4)
    _state(env, DensityMatrix, 1, "env")
    # axes (out-sys, out-env, in-sys, in-env); qubit 2 as the system swaps the factors
    u = linalg.matexp_hermitian(k, t).reshape(2, 2, 2, 2)
    if which == 2:
        u = u.transpose(1, 0, 3, 2)
    # S[a + 2c, b + 2d] = sum_{e, f, g} U[a, e, b, f] env[f, g] conj(U[c, e, d, g]):
    # column-stacking vec sends entry (row, col) to row + 2 col
    superop = np.einsum("aebf,fg,cedg->cadb", u, env.matrix, u.conj()).reshape(4, 4)
    m = DynamicalMap(superop, env, (0.0, t), which)
    cp, tp, min_eig = is_cptp(m, tol=DEFAULT.cp)
    if not (cp and tp):
        raise RuntimeError(
            f"induced map failed the CPTP check (cp={cp}, tp={tp}, min eig={min_eig})"
        )
    return m


def apply_map(m: DynamicalMap, rho: DensityMatrix) -> DensityMatrix:
    """Evaluate the map on a state.

    The result is validated as a density matrix; a non-CP map can push the
    output outside the state space, in which case the validation error is
    the report (outputs are never clamped).
    """
    return DensityMatrix(_images(m, _state(rho, DensityMatrix, 1, "rho").matrix))


def _images(m: DynamicalMap, rhos: np.ndarray) -> np.ndarray:
    """unvec(superoperator @ vec(rho)) for every 2x2 matrix of a (..., 2, 2) stack.

    The outputs are not validated. Each vec is a (4, 1) column, so every
    product is the same matrix-vector product as for a single state, bit
    for bit.
    """
    vecs = rhos.swapaxes(-1, -2).reshape(rhos.shape[:-2] + (4, 1))
    return (m.superoperator @ vecs).reshape(rhos.shape).swapaxes(-1, -2)


def choi(m: DynamicalMap) -> ChoiMatrix:
    """Choi matrix sum_ij E(|i><j|) (x) |i><j|, by index reshuffle.

    With column-stacking vec, the superoperator as a 4-tensor carries axes
    (out-col, out-row, in-col, in-row); the Choi index order is
    ((out-row, in-row), (out-col, in-col)).
    """
    c = np.reshape(m.superoperator, (2, 2, 2, 2)).transpose(1, 3, 0, 2).reshape(4, 4)
    c = (c + c.conj().T) / 2.0  # Hermitian up to roundoff for any map
    w = np.linalg.eigvalsh(c)[::-1]
    return ChoiMatrix(c, w)


def is_cptp(m: DynamicalMap, tol: float = DEFAULT.cp) -> tuple[bool, bool, float]:
    """(cp, tp, min Choi eigenvalue) of a map.

    cp iff the Choi matrix is positive semidefinite within tol; tp iff the
    dual map preserves the identity within tol.
    """
    tol = _real(tol, "tol", positive=True)
    min_eig = float(choi(m).eigenvalues[-1])
    cp = min_eig >= -tol
    ident = vec(np.eye(2, dtype=complex))
    tp = float(np.max(np.abs(m.superoperator.conj().T @ ident - ident))) <= tol
    return cp, tp, min_eig


def kraus_decompose(c: ChoiMatrix) -> KrausSet:
    """Kraus operators from the Choi eigendecomposition.

    Only defined for completely positive maps; a negative Choi eigenvalue
    beyond tolerance means no Kraus form exists and is an error here.
    Kraus operators are unique only up to unitary mixing, so nothing
    beyond the eigenvalue ordering is canonicalized.
    """
    w = np.asarray(c.eigenvalues, dtype=float)
    if w[-1] < -DEFAULT.cp:
        raise ValueError(
            f"Choi matrix has negative eigenvalue {w[-1]}: the map is not "
            "completely positive and admits no Kraus form"
        )
    evals, evecs = np.linalg.eigh(c.matrix)
    ops, weights = [], []
    for i in range(evals.size - 1, -1, -1):  # descending
        lam = float(evals[i])
        if lam > 1e-10:
            # Choi row index is (output, input), row-major over the pair
            ops.append(np.sqrt(lam) * evecs[:, i].reshape(2, 2))
            weights.append(lam)
    completeness = sum(op.conj().T @ op for op in ops)
    if float(np.max(np.abs(completeness - np.eye(2)))) > 1e-8:
        raise RuntimeError("Kraus completeness sum deviates from identity")
    return KrausSet(tuple(ops), np.array(weights))


def intermediate_map(
    e_short: DynamicalMap,
    e_long: DynamicalMap,
    cutoff: float = DEFAULT.pinv_cutoff,
    cp_tol: float = DEFAULT.cp,
) -> IntermediateMapResult:
    """Divisibility check: is (long map) o (short map)^-1 completely positive?

    Both maps must describe the same qubit from the same start time with
    the same environment. A CP candidate means the evolution through the
    intermediate time is divisible there; a negative Choi eigenvalue
    certifies that the family is not CP-divisible, i.e. non-Markovian. If
    the short map is singular beyond the pseudo-inverse cutoff the
    composition is not trustworthy and the verdict is indeterminate.
    """
    if e_short.which_qubit != e_long.which_qubit:
        raise ValueError("maps describe different qubits")
    t0s, t1 = e_short.interval
    t0l, t_star = e_long.interval
    if abs(t0s - t0l) > 1e-12:
        raise ValueError("maps must share the start time")
    if not t0s < t1 < t_star:
        raise ValueError(f"need t0 < t1 < t*, got t0={t0s}, t1={t1}, t*={t_star}")
    if e_short.environment_state is not None and e_long.environment_state is not None:
        dev = np.max(
            np.abs(e_short.environment_state.matrix - e_long.environment_state.matrix)
        )
        if dev > 1e-9:
            raise ValueError("maps were induced from different environment states")
    pinv, rank = linalg.pseudo_inverse(e_short.superoperator, cutoff=cutoff)
    candidate = DynamicalMap(
        e_long.superoperator @ pinv, None, (t1, t_star), e_long.which_qubit
    )
    cp, _, min_eig = is_cptp(candidate, tol=cp_tol)
    return IntermediateMapResult(candidate, cp, min_eig, rank, indeterminate=rank < 4)


def udm_witness_subinterval(
    k, rho_in: DensityMatrix, t1: float, t_star: float, which: int = 1
) -> WitnessReport:
    """Witness that no state-independent map covers [t1, t*].

    The product input evolves to t1, giving the true joint state sigma;
    a second joint state with the same marginals but erased correlations,
    Tr_2(sigma) (x) Tr_1(sigma), evolves alongside it to t*. The trace
    distance between the two reduced outputs of qubit ``which`` is zero
    whenever a map of that qubit's state alone could describe the stretch,
    so a positive distance is the operational content of "no such map
    exists".
    """
    t1 = _real(t1, "t1", positive=True)
    t_star = _real(t_star, "t_star", positive=True)
    if not t1 < t_star:
        raise ValueError(f"need 0 < t1 < t*, got t1={t1}, t*={t_star}")
    which = _which(which, "which")
    k = linalg._hermitian(k, "generator", 4)
    _state(rho_in, DensityMatrix, 2, "rho_in")
    marg1 = linalg.partial_trace(rho_in.matrix, keep=1)
    marg2 = linalg.partial_trace(rho_in.matrix, keep=2)
    if float(np.linalg.norm(rho_in.matrix - np.kron(marg1, marg2))) > 1e-9:
        raise ValueError(
            "witness input must be a product state rho_1 (x) rho_2: the "
            "state-independent description being tested exists only for "
            "product initial conditions with a fixed environment"
        )
    u1 = linalg.matexp_hermitian(k, t1)
    sigma = u1 @ rho_in.matrix @ u1.conj().T
    sigma_product = np.kron(
        linalg.partial_trace(sigma, keep=1), linalg.partial_trace(sigma, keep=2)
    )
    correlation = float(np.linalg.norm(sigma - sigma_product))
    u2 = linalg.matexp_hermitian(k, t_star - t1)
    out_true = linalg.partial_trace(u2 @ sigma @ u2.conj().T, keep=which)
    out_erased = linalg.partial_trace(u2 @ sigma_product @ u2.conj().T, keep=which)
    dist = trace_distance(DensityMatrix(out_true), DensityMatrix(out_erased))
    return WitnessReport(t1, t_star, dist, correlation)


def local_pair_maps(
    k, rho1: DensityMatrix, rho2: DensityMatrix, t: float
) -> tuple[DynamicalMap, DynamicalMap]:
    """The two simultaneous maps of a pair entering the same gate.

    Each qubit gets its own map, with the companion's initial state as the
    fixed environment; one map cannot serve both qubits unless the setup
    is symmetric.
    """
    _state(rho1, DensityMatrix, 1, "rho1")
    _state(rho2, DensityMatrix, 1, "rho2")
    return induced_map(k, rho2, t, which=1), induced_map(k, rho1, t, which=2)
