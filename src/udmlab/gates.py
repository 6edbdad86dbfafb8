"""Gate construction from Hermitian generators and the entangling-gate test.

A gate is the unitary e^{-i K t*} generated by a Hermitian K over its
operating duration t* (hbar = 1, t0 = 0). Physical gate equality is always
judged up to a global phase: the evolution generated by X over t* = pi/2
realizes the spin-flip only up to the unobservable factor -i.

Whether a two-qubit unitary factors into local operations is decided by
its operator Schmidt rank: reshuffling the 4x4 matrix so that row/column
indices pair per qubit turns tensor-product structure into rank-1
structure, and the singular values of the reshuffled matrix count the
terms of the operator Schmidt expansion.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .states import DensityMatrix, PureState, _instance
from .tolerances import DEFAULT, _hold, _integer, _real

__all__ = [
    "Gate",
    "gate_from_generator",
    "generator_from_unitary",
    "c_phase",
    "local_phase",
    "x_gate",
    "hadamard",
    "swap_gate",
    "identity_gate",
    "apply",
    "is_entangling",
    "operator_schmidt_values",
    "equal_up_to_phase",
]

@dataclass(frozen=True, eq=False)
class Gate:
    """A unitary together with the Hermitian generator and duration behind it.

    Without a given unitary, the gate holds exp(-i K t*); a given one (an
    exact named matrix) is checked against that exponential. Both are held
    as copies no one can write: circuits share one gate among all their callers.
    """

    generator: np.ndarray
    duration: float
    unitary: np.ndarray | None = None

    def __post_init__(self):
        k = linalg._matrix(self.generator, "generator")
        if len(k) not in (2, 4):
            raise ValueError(f"generator must be 2x2 or 4x4, got {k.shape}")
        duration = _real(self.duration, "gate duration", lo=0)
        u = rebuilt = linalg.matexp_hermitian(k, duration)
        if self.unitary is not None:
            u = linalg._unitary(self.unitary, "unitary", len(k))
            if (dev := float(np.max(np.abs(rebuilt - u)))) > DEFAULT.reconstruction:
                raise ValueError(f"unitary must match exp(-i K t*), got max deviation {dev:.3g}")
        _hold(self, generator=k, duration=duration, unitary=u)

    @property
    def n_qubits(self) -> int:
        return 1 if len(self.generator) == 2 else 2


def gate_from_generator(k, t_star: float) -> Gate:
    """Gate driven by Hermitian k for duration t_star."""
    return Gate(k, t_star)


def generator_from_unitary(u, t_star: float) -> np.ndarray:
    """Principal-branch Hermitian K with e^{-i K t*} = u.

    The eigenphases of K*t* are taken in (-pi, pi]; the branch boundary is
    folded to +pi so that e.g. controlled-Z yields K = pi |11><11|.
    Round-trips through gate_from_generator by construction.
    """
    t_star = _real(t_star, "duration", lo=0)
    if not np.isfinite(np.pi / t_star):  # a float quotient: no warning
        raise ValueError(f"duration must keep the phases / t* of K finite, got {t_star!r}")
    u = linalg._unitary(u, "u")
    # u = v diag(lam) v^-1 holds for any eigenbasis of a diagonalisable u,
    # orthonormal or not, so degenerate eigenphases need no special care
    lam, v = np.linalg.eig(u)
    phases = -np.angle(lam)
    phases[phases <= -np.pi + 1e-12] = np.pi
    k = (v * (phases / t_star)) @ np.linalg.inv(v)
    return (k + k.conj().T) / 2.0


def c_phase(phi: float, t_star: float = 1.0) -> Gate:
    """Controlled-phase gate diag(1, 1, 1, e^{i phi}), symmetric under control/target exchange.

    Its generator is the principal log (theta / t*) |11><11|, theta the
    principal representative of -phi: phi = pi gives pi |11><11|.
    """
    unitary = np.diag([1.0, 1.0, 1.0, np.exp(1j * _real(phi, "phi"))]).astype(complex)
    return Gate(generator_from_unitary(unitary, t_star), t_star, unitary)


def local_phase(phi: float, t_star: float = 1.0) -> Gate:
    """The local counterpart 1 (x) diag(1, e^{i phi}): a phase on the target only."""
    e = np.exp(1j * _real(phi, "phi"))
    unitary = np.diag([1.0, e, 1.0, e])
    return Gate(generator_from_unitary(unitary, t_star), t_star, unitary.astype(complex))


def x_gate(t_star: float = 1.0) -> Gate:
    """Spin-flip gate with matrix exactly X."""
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    return Gate(generator_from_unitary(x, t_star), t_star, x)


def hadamard(t_star: float = 1.0) -> Gate:
    h = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
    return Gate(generator_from_unitary(h, t_star), t_star, h)


def swap_gate(t_star: float = 1.0) -> Gate:
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
    return Gate(generator_from_unitary(swap, t_star), t_star, swap)


def identity_gate(n_qubits: int = 2, t_star: float = 1.0) -> Gate:
    n_qubits = _integer(n_qubits, "identity_gate qubit count", 1, 2)
    dim = 2**n_qubits
    return Gate(np.zeros((dim, dim), dtype=complex), t_star, np.eye(dim, dtype=complex))


def apply(g: Gate, state):
    """Run the gate on a PureState (U|psi>) or DensityMatrix (U rho U^dag)."""
    _instance(g, Gate, None, "g")
    if isinstance(state, PureState):
        return PureState(g.unitary @ _instance(state, PureState, g.n_qubits, "state").amplitudes)
    if isinstance(state, DensityMatrix):
        rho = _instance(state, DensityMatrix, g.n_qubits, "state").matrix
        return DensityMatrix(g.unitary @ rho @ g.unitary.conj().T)
    raise ValueError(f"state must be a PureState or DensityMatrix, got {type(state).__name__}")


def operator_schmidt_values(u) -> np.ndarray:
    """Singular values of the qubit-pairing reshuffle of a 4x4 operator."""
    u = linalg._matrix(u, "u", 4)
    reshuffled = u.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    return np.linalg.svd(reshuffled, compute_uv=False)


def is_entangling(g: Gate, tol: float = DEFAULT.separability) -> tuple[bool, int]:
    """Decide whether a two-qubit gate factors into local operations.

    Returns (verdict, operator Schmidt rank); rank 1 means the gate is a
    tensor product of single-qubit unitaries, anything higher certifies
    that no such factorization exists.
    """
    tol = _real(tol, "tol", lo=0)
    if _instance(g, Gate, None, "g").n_qubits != 2:
        raise ValueError(f"g must be a 2-qubit gate, got {g.n_qubits} qubit")
    s = operator_schmidt_values(g.unitary)
    rank = int(np.count_nonzero(s > tol * s[0]))
    return rank > 1, rank


def equal_up_to_phase(a, b, tol: float = DEFAULT.reconstruction) -> bool:
    """True iff a = c * b for some unit-modulus c, within tol in Frobenius norm.

    c is estimated from the largest-magnitude entry of b.
    """
    tol = _real(tol, "tol", lo=0)
    a = linalg._matrix(a, "a", square=False)
    b = linalg._matrix(b, "b", square=False)
    if a.shape != b.shape:
        raise ValueError(f"a and b must have the same shape, got {a.shape} and {b.shape}")
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    if abs(b[idx]) < 1e-15:
        return float(np.linalg.norm(a)) <= tol
    c = a[idx] / b[idx]
    if abs(c) < 1e-15:
        c = 1.0
    c = c / abs(c)
    return float(np.linalg.norm(a - c * b)) <= tol
