"""Reference computations the benchmark checks udmlab against.

Nothing here imports udmlab. Evolutions use scipy.linalg.expm (a Pade
approximant, where udmlab uses a spectral decomposition), partial traces
are einsum contractions, maps are evaluated by evolving the joint state,
and circuits are simulated gate by gate on the (2,)*n amplitude tensor.
Conventions match udmlab's documented ones: qubit 1 is the most
significant tensor factor and vec is column-stacking.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg

H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


def expm_u(k: np.ndarray, t: float) -> np.ndarray:
    return scipy.linalg.expm(-1j * np.asarray(k) * float(t))


def ptrace(rho: np.ndarray, keep: int) -> np.ndarray:
    r = np.asarray(rho).reshape(2, 2, 2, 2)
    return np.einsum("ajbj->ab", r) if keep == 1 else np.einsum("jajb->ab", r)


def joint(rho_sys: np.ndarray, env: np.ndarray, which: int) -> np.ndarray:
    return np.kron(rho_sys, env) if which == 1 else np.kron(env, rho_sys)


def reduced_output(k, rho_sys, env, t, which) -> np.ndarray:
    """The qubit's state after joint evolution with a fixed environment."""
    u = expm_u(k, t)
    return ptrace(u @ joint(rho_sys, env, which) @ u.conj().T, keep=which)


def superop_apply(s: np.ndarray, rho: np.ndarray) -> np.ndarray:
    return (np.asarray(s) @ np.asarray(rho).reshape(-1, order="F")).reshape(2, 2, order="F")


def induced_superop(k, env, t, which) -> np.ndarray:
    """Superoperator column by column from the matrix units |i><j|."""
    u = expm_u(k, t)
    cols = []
    for j in range(2):
        for i in range(2):  # column-stacking order: (0,0), (1,0), (0,1), (1,1)
            e = np.zeros((2, 2), dtype=complex)
            e[i, j] = 1.0
            out = ptrace(u @ joint(e, env, which) @ u.conj().T, keep=which)
            cols.append(out.reshape(-1, order="F"))
    return np.column_stack(cols)


def choi_eigenvalues(s: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of sum_ij E(|i><j|) (x) |i><j|."""
    c = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[i, j] = 1.0
            c += np.kron(superop_apply(s, e), e)
    return np.linalg.eigvalsh((c + c.conj().T) / 2.0)


def random_density(rng, dim: int = 2) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return m / np.trace(m).real


def random_pure(rng, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_hermitian(rng, dim: int, norm: float) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (a + a.conj().T) / 2.0
    return h * (norm / np.linalg.norm(h, 2))


def cphase_generator(theta: float) -> np.ndarray:
    k = np.zeros((4, 4), dtype=complex)
    k[3, 3] = theta
    return k


def coherence_factor(env_amps: np.ndarray, theta: float, t: float) -> complex:
    """c(t) = |a|^2 + |b|^2 e^{-i theta t}: qubit 1's coherence under theta|11><11|
    with qubit 2 fixed in a|0> + b|1>."""
    a, b = env_amps
    return abs(a) ** 2 + abs(b) ** 2 * np.exp(-1j * theta * t)


def witness_distance(k, rho_in: np.ndarray, t1: float, t_star: float) -> float:
    """Trace distance between qubit 1's outputs from the true cut state and
    from the product of its marginals."""
    u1 = expm_u(k, t1)
    sigma = u1 @ rho_in @ u1.conj().T
    erased = np.kron(ptrace(sigma, 1), ptrace(sigma, 2))
    u2 = expm_u(k, t_star - t1)
    diff = ptrace(u2 @ (sigma - erased) @ u2.conj().T, 1)
    return float(0.5 * np.abs(np.linalg.eigvalsh(diff)).sum())


def pure_negativity(psi: np.ndarray) -> np.ndarray:
    """Negativity of pure two-qubit states: the product s1*s2 of Schmidt
    coefficients, which is |g00 g11 - g01 g10|. Works on (..., 4) arrays."""
    g = np.asarray(psi)
    return np.abs(g[..., 0] * g[..., 3] - g[..., 1] * g[..., 2])


def mixed_negativity(rho: np.ndarray) -> float:
    pt = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    w = np.linalg.eigvalsh((pt + pt.conj().T) / 2.0)
    return float(-w[w < 0.0].sum())


def qft_layout(n: int) -> list[tuple]:
    """Textbook QFT: per qubit j a Hadamard, then controlled phases
    pi/2^(k-j) from each later qubit k; SWAPs reverse the order."""
    seq = []
    for j in range(1, n + 1):
        seq.append(("H", (j,), None))
        for k in range(j + 1, n + 1):
            seq.append(("CPHASE", (j, k), np.pi / 2 ** (k - j)))
    for i in range(1, n // 2 + 1):
        seq.append(("SWAP", (i, n + 1 - i), None))
    return seq


def pair_density(state: np.ndarray, q1: int, q2: int) -> np.ndarray:
    """Reduced state of the ordered pair (q1, q2) of an (2,)*n tensor."""
    a = np.moveaxis(state, (q1 - 1, q2 - 1), (0, 1)).reshape(4, -1)
    return a @ a.conj().T


def qft_audit(n: int, amps: np.ndarray) -> tuple[np.ndarray, list[tuple]]:
    """Output amplitudes and (position, name, qubits, neg_in, neg_out) per
    two-qubit gate, by direct tensor simulation."""
    state = np.asarray(amps, dtype=complex).reshape((2,) * n).copy()
    records = []
    for pos, (name, qubits, phi) in enumerate(qft_layout(n), start=1):
        if name == "H":
            ax = qubits[0] - 1
            state = np.moveaxis(np.tensordot(H, state, axes=([1], [ax])), 0, ax)
            continue
        q1, q2 = qubits
        neg_in = mixed_negativity(pair_density(state, q1, q2))
        if name == "CPHASE":
            idx = [slice(None)] * n
            idx[q1 - 1] = 1
            idx[q2 - 1] = 1
            state[tuple(idx)] *= np.exp(1j * phi)
        else:
            state = np.swapaxes(state, q1 - 1, q2 - 1).copy()
        records.append((pos, name, qubits, neg_in, mixed_negativity(pair_density(state, q1, q2))))
    return state.reshape(-1), records


def dft(n: int) -> np.ndarray:
    dim = 2**n
    return np.exp(2j * np.pi * np.outer(np.arange(dim), np.arange(dim)) / dim) / np.sqrt(dim)
