"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library's own code paths: partial
traces are explicit double sums, reduced maps are evaluated by evolving
the full joint state, and series expansions are summed term by term.
Frozen expected values in the tests were computed with these.
"""
import json
import tracemalloc

import numpy as np
import pytest

from udmlab import linalg
from udmlab.circuits import AuditRecord
from udmlab.states import PureState, _check_density, _negativities


# a generator whose Hermitian defect m - m^dag overflows, as a CLI scenario with an input
OVERFLOWING_GENERATOR = {"generator": {"matrix": [[[0.5, 1e308], 0, 0, 0], [0, 0, 0, 0],
                                                [0, 0, 0, 0], [0, 0, 0, 0]]}, "input": ["0", "+"]}


@pytest.fixture
def rng():
    return np.random.default_rng(20240911)


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2.0


def random_unitary(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# named matrices written out here, not taken from the library
X = np.array([[0, 1], [1, 0]], dtype=complex)
H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
# projector onto the singlet (|01> - |10>)/sqrt(2): SWAP = 1 - 2 P = e^{-i pi P}
SINGLET_PROJECTOR = np.array(
    [[0, 0, 0, 0], [0, 0.5, -0.5, 0], [0, -0.5, 0.5, 0], [0, 0, 0, 0]], dtype=complex
)


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return m / np.trace(m).real


def random_pure(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# oracles


def partial_trace_by_sums(rho, keep):
    """Explicit <a s|rho|b s> double sum, no reshapes."""
    out = np.zeros((2, 2), dtype=complex)
    for a in range(2):
        for b in range(2):
            for s in range(2):
                if keep == 1:
                    out[a, b] += rho[2 * a + s, 2 * b + s]
                else:
                    out[a, b] += rho[2 * s + a, 2 * s + b]
    return out


def product_correlation(m):
    """||m - Tr_2 m (x) Tr_1 m||_F of a 4x4 m, its marginals by explicit sums."""
    marginals = np.kron(partial_trace_by_sums(m, 1), partial_trace_by_sums(m, 2))
    return float(np.linalg.norm(m - marginals))


def correlated_pair(tau):
    """(amplitudes, c) of cos a|00> + sin a|11> with tau = |g00 g11| = sin(2a) / 2.

    Both marginals are diag(cos^2 a, sin^2 a), so m minus their product has
    diagonal tau^2 (1, -1, -1, 1) and tau at (00, 11) and (11, 00): the
    correlation is c = sqrt(4 tau^4 + 2 tau^2) = tau sqrt(2 + 4 tau^2).
    """
    a = 0.5 * np.arcsin(2.0 * tau)
    return [float(np.cos(a)), 0.0, 0.0, float(np.sin(a))], tau * np.sqrt(2.0 + 4.0 * tau**2)


def witness_by_sums(k, rho, t1, t_star, which):
    """(trace distance, correlation at t1) of the same-marginal witness.

    U = exp(-i k t) from numpy's eigh, marginals by explicit sums: the
    state at t1 and its marginals' product evolve on to t*, and the
    distance is half the absolute spectrum of the difference of qubit
    which's two outputs.
    """
    w, v = np.linalg.eigh(k)

    def evolve(m, t):
        u = (v * np.exp(-1j * w * t)) @ v.conj().T
        return u @ m @ u.conj().T

    sigma = evolve(rho, t1)
    erased = np.kron(partial_trace_by_sums(sigma, 1), partial_trace_by_sums(sigma, 2))
    diff = partial_trace_by_sums(evolve(sigma, t_star - t1) - evolve(erased, t_star - t1), which)
    return 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum()), product_correlation(sigma)


def evolve_joint(k, rho, t):
    """U rho U^dag with U = exp(-i k t), straight through the library kernel."""
    u = linalg.matexp_hermitian(k, t)
    return u @ rho @ u.conj().T


def reduced_evolution(k, rho_sys, env, t, which):
    """Joint evolution + partial trace: the tomography-free reference."""
    joint = np.kron(rho_sys, env) if which == 1 else np.kron(env, rho_sys)
    return partial_trace_by_sums(evolve_joint(k, joint, t), keep=which)


def series_matexp(m, t, terms):
    """Truncated power series of exp(-i m t)."""
    acc = np.zeros_like(np.asarray(m, dtype=complex))
    power = np.eye(m.shape[0], dtype=complex)
    coeff = 1.0 + 0.0j
    for n in range(terms):
        acc = acc + coeff * power
        power = power @ m
        coeff = coeff * (-1j * t) / (n + 1)
    return acc


def diagonal_coherence_factor(k, env, t):
    """Factor c(t) multiplying <1|rho|0> of qubit 1 under a diagonal generator.

    With K = sum_ab k_ab |ab><ab| (qubit 1 is a) and environment ``env`` on
    qubit 2, U = exp(-i K t) is diagonal, so qubit 1 keeps its populations
    and its coherence picks up c(t) = sum_b env_bb exp(-i (k_1b - k_0b) t).
    For K = pi|11><11| and env |+> this is (1 + e^{-i pi t}) / 2.
    """
    k = np.asarray(k)
    if np.any(k != np.diag(np.diagonal(k))):
        raise ValueError("oracle needs a diagonal generator")
    kd = np.diagonal(k).real.reshape(2, 2)
    return complex(
        sum(env[b, b].real * np.exp(-1j * (kd[1, b] - kd[0, b]) * t) for b in range(2))
    )


def diagonal_intermediate_map(k, env, t1, t_star):
    """Closed-form intermediate map of qubit 1 on [t1, t*] for a diagonal generator.

    Every map of the family is a dephasing channel, so the candidate
    E(t*) E(t1)^-1 is the dephasing channel with lambda = c(t*) / c(t1):
    superoperator diag(1, lambda, conj(lambda), 1) under column-stacking
    vec, Choi eigenvalues {1 + |lambda|, 1 - |lambda|, 0, 0}. Returns
    (superoperator, min Choi eigenvalue, cp) with cp iff |lambda| <= 1.
    """
    c1 = diagonal_coherence_factor(k, env, t1)
    if abs(c1) < 1e-12:
        raise ValueError("E(t1) is singular: no closed-form inverse")
    lam = diagonal_coherence_factor(k, env, t_star) / c1
    superop = np.diag([1.0, lam, np.conj(lam), 1.0])
    return superop, min(0.0, 1.0 - abs(lam)), abs(lam) <= 1.0


def eigvalsh_verdict(m, positivity):
    """(smallest eigenvalue, rejected) of Hermitian m from numpy's eigvalsh alone.

    rejected is True when the smallest eigenvalue is below -positivity.
    """
    w0 = np.linalg.eigvalsh(m)[0]
    return w0, bool(w0 < -positivity)


def run_circuit_by_factor_list(circuit, psi, tol=1e-9):
    """run_circuit's loop with its pair factors collected in a list.

    Each two-qubit block appends the transposed register m and u m, and
    np.array stacks them after the loop: the reference that the factors
    written straight into one stack must match byte for byte.
    """
    n = circuit.n_qubits
    shape = (2,) * n
    t = psi.amplitudes.reshape(shape)
    blocks, factors = [], []
    for pos, g in enumerate(circuit.gates, start=1):
        perm = [q - 1 for q in g.qubits]
        perm += [a for a in range(n) if a not in perm]
        rows = 2 ** len(g.qubits)
        m = t.transpose(perm).reshape(rows, -1)
        out = np.dot(g.gate.unitary, m)
        t = out.reshape(shape).transpose([perm.index(a) for a in range(n)])
        if rows == 4:
            blocks.append((pos, g))
            factors += (m, out)
    records = ()
    if factors:
        mm = np.array(factors)
        stack = mm @ mm.conj().swapaxes(-1, -2)
        _check_density(stack, "pair states")
        negs = _negativities(stack).tolist()
        records = tuple(
            AuditRecord(pos, g.name, g.qubits, neg_in, neg_out, neg_in <= tol, neg_out <= tol)
            for (pos, g), neg_in, neg_out in zip(blocks, negs[0::2], negs[1::2])
        )
    return PureState(t.reshape(-1)), records


def kraus_by_loop(c):
    """(operators, weights) of kraus_decompose's per-eigenvalue loop over eigh of the
    Choi matrix c: descending, each eigenvalue above 1e-10 gives sqrt(lam) times its
    eigenvector as a 2x2 operator. The reference its one-expression stack must match
    byte for byte."""
    evals, evecs = np.linalg.eigh(c)
    ops, weights = [], []
    for i in range(evals.size - 1, -1, -1):
        lam = float(evals[i])
        if lam > 1e-10:
            ops.append(np.sqrt(lam) * evecs[:, i].reshape(2, 2))
            weights.append(lam)
    return np.array(ops), np.array(weights)


def sig15(x):
    """x rounded to 15 significant digits, the precision reports print."""
    return float(f"{float(x):.15g}")


def plain(x):
    """The JSON value of a report entry, numbers at 15 significant digits.

    Arrays become nested lists, a complex number an [re, im] pair, a tuple a
    list; dicts are converted entry by entry, and bools, ints, strings and
    None pass through.
    """
    if isinstance(x, dict):
        return {k: plain(v) for k, v in x.items()}
    if isinstance(x, np.ndarray):
        x = x.tolist()
    if isinstance(x, (list, tuple)):
        return [plain(v) for v in x]
    if isinstance(x, complex):
        return [sig15(x.real), sig15(x.imag)]
    if isinstance(x, float):
        return sig15(x)
    return x


def report_json(value):
    """json.dumps(plain(value), indent=2): the standard library's report text,
    the reference for the CLI's one-pass writer."""
    return json.dumps(plain(value), indent=2)


def traced_peak(call):
    """Bytes tracemalloc sees allocated at the peak of call(), beyond those held before."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = call()  # held until the peak is read
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    return peak
