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
from .states import DensityMatrix, _instance, _product, trace_distance
from .tolerances import DEFAULT, _hold, _integer, _real, _sequence

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
    u = linalg._matrix(u, "u")
    return np.kron(u.conj(), u)


@dataclass(frozen=True, eq=False)
class DynamicalMap:
    """Linear map on single-qubit states, held as a 4x4 superoperator.

    ``environment_state`` is the fixed one-qubit DensityMatrix the map was
    induced from (None for composed candidates, which have no inducing state);
    ``interval`` is the (t_a, t_b) stretch of the evolution it describes,
    a pair of finite times; ``which_qubit`` says whether the described
    qubit is the left (1) or right (2) tensor factor. The superoperator is
    a read-only copy. The map's ``ChoiMatrix``, which ``choi`` returns, is
    derived from it once, with read-only arrays, and held as ``_choi``: no
    field, so repr and fields() see only the four above.
    """

    superoperator: np.ndarray
    environment_state: DensityMatrix | None
    interval: tuple[float, float]
    which_qubit: int

    def __post_init__(self):
        which = _integer(self.which_qubit, "which_qubit", 1, 2)
        if self.environment_state is not None:
            _instance(self.environment_state, DensityMatrix, 1, "environment_state")
        s = np.array(linalg._matrix(self.superoperator, "superoperator", 4))
        t_a, t_b = _sequence(self.interval, "interval", 2)
        interval = (_real(t_a, "interval start"), _real(t_b, "interval end"))
        # the superoperator as a 4-tensor carries axes (out-col, out-row, in-col,
        # in-row) under column-stacking vec; the Choi index order is
        # ((out-row, in-row), (out-col, in-col))
        c = s.reshape(2, 2, 2, 2).transpose(1, 3, 0, 2).reshape(4, 4)
        # Hermitian up to roundoff for any map; an overflow is inf or nan, refused by ChoiMatrix
        with np.errstate(over="ignore", invalid="ignore"):
            c = (c + c.conj().T) / 2.0
        _hold(self, superoperator=s, interval=interval, which_qubit=which, _choi=ChoiMatrix(c))


@dataclass(frozen=True, eq=False)
class ChoiMatrix:
    """Choi matrix of a map, a 4x4 Hermitian matrix, with its descending eigenvalues.

    The matrix is checked by the Hermitian rule and held as a read-only
    copy; its ``eigenvalues`` are derived from it once, read-only, and are
    no field, so repr and fields() see only the matrix. Finite entries near
    the float maximum can still give an infinite eigenvalue, which is refused.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(linalg._hermitian(self.matrix, "matrix", 4))
        w = np.linalg.eigvalsh(m)[::-1]
        if not (top := np.abs(w).max()) < np.inf:  # nan if one is nan
            raise ValueError(f"matrix must have a finite spectrum, got max|eigenvalue| {top}")
        _hold(self, matrix=m, eigenvalues=w)


@dataclass(frozen=True, eq=False)
class KrausSet:
    """Kraus operators K_a, an (r, 2, 2) stack, with their r Choi-eigenvalue weights.

    Both are held as read-only copies; iterating, ``len`` and indexing the
    stack give the operators one by one. ``completeness_residual``,
    max|sum_a K_a^dag K_a - 1|, is derived from the stack once and is no
    field, so repr and fields() see only the two above.
    """

    operators: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        ops = np.array(self.operators)
        residual = float(np.max(np.abs(sum(op.conj().T @ op for op in ops) - np.eye(2))))
        _hold(self, operators=ops, weights=np.array(self.weights), completeness_residual=residual)


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
    t = _real(t, "t", lo=0)
    which = _integer(which, "which", 1, 2)
    k = linalg._hermitian(k, "generator", 4)
    _instance(env, DensityMatrix, 1, "env")
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
    _instance(m, DynamicalMap, None, "m")
    return DensityMatrix(_images(m, _instance(rho, DensityMatrix, 1, "rho").matrix))


def _images(m: DynamicalMap, rhos: np.ndarray) -> np.ndarray:
    """unvec(superoperator @ vec(rho)) for every 2x2 matrix of a (..., 2, 2) stack.

    The outputs are not validated. Each vec is a (4, 1) column, so every
    product is the same matrix-vector product as for a single state, bit
    for bit.
    """
    vecs = rhos.swapaxes(-1, -2).reshape(rhos.shape[:-2] + (4, 1))
    return (m.superoperator @ vecs).reshape(rhos.shape).swapaxes(-1, -2)


def choi(m: DynamicalMap) -> ChoiMatrix:
    """Choi matrix sum_ij E(|i><j|) (x) |i><j|, by index reshuffle of the superoperator.

    The map derives it, with its eigenvalues, once on construction; every
    caller reads that one spectrum.
    """
    return _instance(m, DynamicalMap, None, "m")._choi


def is_cptp(m: DynamicalMap, tol: float = DEFAULT.cp) -> tuple[bool, bool, float]:
    """(cp, tp, min Choi eigenvalue) of a map.

    cp iff the Choi matrix is positive semidefinite within tol; tp iff the
    dual map preserves the identity within tol.
    """
    tol = _real(tol, "tol", lo=0)
    min_eig = float(choi(m).eigenvalues[-1])  # choi checks m
    cp = min_eig >= -tol
    ident = vec(np.eye(2, dtype=complex))
    tp = float(np.max(np.abs(m.superoperator.conj().T @ ident - ident))) <= tol
    return cp, tp, min_eig


def kraus_decompose(c: ChoiMatrix) -> KrausSet:
    """Kraus operators from the Choi eigendecomposition.

    Only defined for completely positive maps; a negative Choi eigenvalue
    beyond tolerance means no Kraus form exists and is an error here. The
    ``ChoiMatrix`` checked its matrix and derived that spectrum when it was
    built, so both are read as they are. Each eigenvalue above 1e-10, in
    descending order, gives one operator, sqrt(lambda) times its eigenvector
    as a 2x2 matrix, all in one (r, 2, 2) stack. Kraus operators are unique
    only up to unitary mixing, so nothing beyond the eigenvalue ordering is
    canonicalized.
    """
    min_eig = float(_instance(c, ChoiMatrix, None, "c").eigenvalues[-1])
    if min_eig < -DEFAULT.cp:
        raise ValueError(
            f"Choi matrix has negative eigenvalue {min_eig}: the map is not "
            "completely positive and admits no Kraus form"
        )
    evals, evecs = np.linalg.eigh(c.matrix)
    keep = evals > 1e-10
    # descending; Choi row index is (output, input), row-major over the pair
    ops = (evecs[:, keep] * np.sqrt(evals[keep])).T[::-1].reshape(-1, 2, 2)
    kraus = KrausSet(ops, evals[keep][::-1])
    if kraus.completeness_residual > 1e-8:
        raise RuntimeError("Kraus completeness sum deviates from identity")
    return kraus


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
    _instance(e_short, DynamicalMap, None, "e_short")
    _instance(e_long, DynamicalMap, None, "e_long")
    if e_short.which_qubit != e_long.which_qubit:
        raise ValueError(f"e_long must act on qubit {e_short.which_qubit}, got {e_long.which_qubit}")
    t0s, t1 = e_short.interval
    t0l, t_star = e_long.interval
    if abs(t0s - t0l) > 1e-12:
        raise ValueError(f"e_long must start at t0 = {t0s}, got {t0l}")
    _real(t1, "e_short interval end", lo=t0s, hi=t_star)
    if e_short.environment_state is not None and e_long.environment_state is not None:
        dev = np.max(np.abs(e_short.environment_state.matrix - e_long.environment_state.matrix))
        if dev > DEFAULT.reconstruction:
            raise ValueError(
                f"e_long must share e_short's environment state, got max deviation {dev:.3g}"
            )
    pinv, rank = linalg.pseudo_inverse(e_short.superoperator, cutoff=cutoff)
    candidate = DynamicalMap(
        e_long.superoperator @ pinv, None, (t1, t_star), e_long.which_qubit
    )
    cp, _, min_eig = is_cptp(candidate, tol=cp_tol)
    return IntermediateMapResult(candidate, cp, min_eig, rank, indeterminate=rank < 4)


def udm_witness_subinterval(
    k, rho_in: DensityMatrix, t1: float, t_star: float, which: int = 1,
    *, tol: float = DEFAULT.separability,
) -> WitnessReport:
    """Witness that no state-independent map covers [t1, t*].

    The product input (checked by ``_product`` within ``tol``, the
    separability tolerance) evolves to t1, giving the true joint state
    sigma, whose correlation in the same measure is reported; a second
    joint state with the same marginals but erased correlations,
    Tr_2(sigma) (x) Tr_1(sigma), evolves alongside it to t*.
    The trace distance between the two reduced outputs of qubit ``which``
    is zero whenever a map of that qubit's state alone could describe the
    stretch, so a positive distance is the operational content of "no such
    map exists".
    """
    t1 = _real(t1, "t1", lo=0)
    t_star = _real(t_star, "t_star", lo=t1)
    which = _integer(which, "which", 1, 2)
    tol = _real(tol, "tol", lo=0)
    k = linalg._hermitian(k, "generator", 4)
    _instance(rho_in, DensityMatrix, 2, "rho_in")
    _product(rho_in.matrix, tol, "rho_in")
    u1 = linalg.matexp_hermitian(k, t1)
    sigma = u1 @ rho_in.matrix @ u1.conj().T
    sigma_product = np.kron(*linalg._marginals(sigma))
    correlation = float(np.linalg.norm(sigma - sigma_product))
    u2 = linalg.matexp_hermitian(k, t_star - t1)
    out_true = linalg._marginals(u2 @ sigma @ u2.conj().T)[which - 1]
    out_erased = linalg._marginals(u2 @ sigma_product @ u2.conj().T)[which - 1]
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
    _instance(rho1, DensityMatrix, 1, "rho1")
    _instance(rho2, DensityMatrix, 1, "rho2")
    return induced_map(k, rho2, t, which=1), induced_map(k, rho1, t, which=2)
