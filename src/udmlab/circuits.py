"""Multi-qubit circuits, the QFT builder, and per-gate block audits.

Qubit indices are 1-based with qubit 1 the most significant tensor factor,
matching the state-vector ordering of the states module. Every two-qubit
gate in a circuit is treated as one indivisible block: the audit records
the bipartite entanglement across exactly the pair the block touches,
immediately before and after it, with spectator qubits traced out (the
reduced pair state may be mixed when spectators are entangled with it,
so the mixed-state negativity is the diagnostic). SWAPs are placed and
audited as single atomic gates, not decomposed. The audit is evaluated once
per run, over the stacked pair densities of all blocks: every density is
still validated as a density matrix, and one batched partial-transpose
eigendecomposition gives all the negativities.

The register is held as a (2,)*n tensor with one axis per qubit. In
``run_circuit`` each gate is one transpose and one matmul: m, the register
with the gate's axes in front flattened to 2^k rows, times the gate matrix
u gives out = u m, and no 2^n x 2^n matrix is built per gate. The axis
permutation, its inverse and u are read from the circuit's per-gate plan,
made once when the frozen ``Circuit`` is built. For a two-qubit gate m and
out are the pair factors before and after the block, and the audit reuses
them. ``circuit_unitary`` carries all 2^n basis columns and applies each
gate by its name instead: a CPHASE scales the one slice where both its
qubits are 1, a SWAP relabels two axes, and an H or X is one broadcast
matmul, so no gate transposes the register. It starts from the identity's
diagonal and writes an axis's columns out only when an H or X first mixes
that axis, so the gates before do no arithmetic on the identity's zeros.
Each loop is the faster one for its own call shape, one column or all 2^n.

A placed gate is the named ``gates.Gate``, generator included, built once
per (name, phi) and shared by every circuit, so its matrices are read-only.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gates import Gate, c_phase, hadamard, swap_gate, x_gate
from .states import PureState, _check_density, _negativities, _state
from .tolerances import DEFAULT, _integer, _real

__all__ = [
    "PlacedGate",
    "Circuit",
    "AuditRecord",
    "BlockAudit",
    "build_qft",
    "run_circuit",
    "circuit_unitary",
    "dft_matrix",
    "circuit_to_dict",
]

MIN_QUBITS = 2
MAX_QUBITS = 8

_NAMED = {"H": hadamard, "X": x_gate, "SWAP": swap_gate, "CPHASE": c_phase}


@lru_cache(maxsize=256)
def _named_gate(name: str, phi: float | None) -> Gate:
    """The one shared, read-only gate placed under this name (and phase)."""
    return _NAMED[name]() if phi is None else _NAMED[name](phi)


@dataclass(frozen=True)
class PlacedGate:
    name: str
    qubits: tuple[int, ...]
    phi: float | None = None

    def __post_init__(self):
        if self.name not in _NAMED:
            raise ValueError(f"unknown gate {self.name!r}; expected one of {sorted(_NAMED)}")
        try:
            qubits = tuple(self.qubits)
        except TypeError:
            raise ValueError(f"{self.name} qubits must be a sequence, got {self.qubits!r}") from None
        qubits = tuple(_integer(q, f"{self.name} qubit index") for q in qubits)
        object.__setattr__(self, "qubits", qubits)
        if (self.name == "CPHASE") != (self.phi is not None):
            raise ValueError("phi is required for CPHASE and only for CPHASE")
        if self.phi is not None:
            object.__setattr__(self, "phi", _real(self.phi, "CPHASE phi"))
        arity = self.gate.n_qubits
        if len(self.qubits) != arity:
            raise ValueError(f"{self.name} takes {arity} qubit(s), got {self.qubits}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"{self.name} qubits must be distinct, got {self.qubits}")

    @property
    def gate(self) -> Gate:
        """The named gate, shared by every placement of the same (name, phi)."""
        return _named_gate(self.name, self.phi)


@dataclass(frozen=True)
class Circuit:
    """Ordered gate sequence; list position stands for the circuit time slot."""

    n_qubits: int
    gates: tuple[PlacedGate, ...]

    def __post_init__(self):
        object.__setattr__(self, "n_qubits", _integer(self.n_qubits, "circuit qubit count"))
        if not MIN_QUBITS <= self.n_qubits <= MAX_QUBITS:
            raise ValueError(f"n_qubits must be in [{MIN_QUBITS}, {MAX_QUBITS}], got {self.n_qubits}")
        try:
            gates = tuple(self.gates)
        except TypeError:
            raise ValueError(f"circuit gates must be a sequence, got {self.gates!r}") from None
        object.__setattr__(self, "gates", gates)
        for g in self.gates:
            if not isinstance(g, PlacedGate):
                raise ValueError(f"circuit gates must be PlacedGate, got {g!r}")
            for q in g.qubits:
                if not 1 <= q <= self.n_qubits:
                    raise ValueError(f"qubit index {q} out of range 1..{self.n_qubits}")
        # run_circuit's per-gate plan: (unitary, axis permutation, its inverse, rows);
        # not a field, so eq, hash, repr and fields() see only n_qubits and gates
        plan = []
        for g in self.gates:
            perm = [q - 1 for q in g.qubits]
            perm += [a for a in range(self.n_qubits) if a not in perm]
            inv = tuple(perm.index(a) for a in range(self.n_qubits))
            plan.append((g.gate.unitary, tuple(perm), inv, 2 ** len(g.qubits)))
        object.__setattr__(self, "_plan", tuple(plan))


@dataclass(frozen=True)
class AuditRecord:
    """Entanglement across a 2-qubit gate's pair, just before and after it."""

    position: int  # 1-based slot of the gate in the circuit
    name: str
    qubits: tuple[int, int]
    negativity_in: float
    negativity_out: float
    separable_in: bool
    separable_out: bool


@dataclass(frozen=True)
class BlockAudit:
    records: tuple[AuditRecord, ...]

    def all_separable(self) -> bool:
        return all(r.separable_in and r.separable_out for r in self.records)


def build_qft(n: int) -> Circuit:
    """Standard QFT layout on n qubits (2 <= n <= 8).

    Per qubit j: a Hadamard followed by controlled phases pi/2^(k-j) from
    each later qubit k; a tail of SWAPs reverses the qubit order. Gate
    count: n Hadamards, n(n-1)/2 controlled phases, floor(n/2) SWAPs.
    """
    n = _integer(n, "QFT size")
    if not MIN_QUBITS <= n <= MAX_QUBITS:
        raise ValueError(f"QFT size must be in [{MIN_QUBITS}, {MAX_QUBITS}], got {n}")
    placed = []
    for j in range(1, n + 1):
        placed.append(PlacedGate("H", (j,)))
        for k in range(j + 1, n + 1):
            placed.append(PlacedGate("CPHASE", (j, k), phi=np.pi / 2 ** (k - j)))
    for i in range(1, n // 2 + 1):
        placed.append(PlacedGate("SWAP", (i, n + 1 - i)))
    return Circuit(n, tuple(placed))


def run_circuit(
    circuit: Circuit, input_state: PureState, tol: float = DEFAULT.separability
) -> tuple[PureState, BlockAudit]:
    """Apply the gates in sequence, auditing every two-qubit block.

    Returns the output state and one audit record per two-qubit gate with
    the pair's negativity and separability verdict at the block boundary.
    Each gate, whatever its name, is one transpose and one matmul, out = u m
    (on one column this beats ``circuit_unitary``'s dispatch by name), with
    u, the axis permutation and its inverse read from the circuit's plan;
    for a two-qubit block m and out are the pair factors just before and
    after the gate (spectators in the columns), and the loop keeps both. The
    audit is then evaluated once: all pair densities m m^dag come from one
    stacked product, every one is still validated as a density matrix
    (finite, Hermitian, trace 1, positive), and one batched
    eigendecomposition of their partial transposes gives the negativities.
    """
    tol = _real(tol, "tol", positive=True)
    _state(input_state, PureState, circuit.n_qubits, "input_state")
    shape = (2,) * circuit.n_qubits
    t = input_state.amplitudes.reshape(shape)
    blocks, factors = [], []
    for pos, (g, (u, perm, inv, rows)) in enumerate(zip(circuit.gates, circuit._plan), start=1):
        m = t.transpose(perm).reshape(rows, -1)
        out = np.dot(u, m)
        t = out.reshape(shape).transpose(inv)
        if rows == 4:
            blocks.append((pos, g))
            factors += (m, out)
    records = ()
    if factors:
        mm = np.array(factors)
        stack = mm @ mm.conj().swapaxes(-1, -2)
        _check_density(stack)
        negs = _negativities(stack).tolist()
        records = tuple(
            AuditRecord(
                pos, g.name, g.qubits, neg_in, neg_out,
                separable_in=neg_in <= tol, separable_out=neg_out <= tol,
            )
            for (pos, g), neg_in, neg_out in zip(blocks, negs[0::2], negs[1::2])
        )
    return PureState(t.reshape(-1)), BlockAudit(records)


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Ordered product of the gate unitaries: the circuit run on every basis column.

    The register starts as the identity's diagonal, 2^n ones, and holds the
    n row axes (2,)*n followed by one column axis per register axis an H
    or X has touched, in the order they were first touched. An untouched
    axis's column index equals its row index (a CPHASE is diagonal and a
    SWAP moves no data), so its column is not stored. Each gate is applied
    by its name, with no transpose:

    - a CPHASE scales, in place, the one slice where both its qubits are 1
      by its matrix's entry e = u[3, 3], as x er + x (i ei), and leaves the
      register as it is when e is exactly 1;
    - a SWAP exchanges its qubits' entries in the qubit-to-axis map, with no
      arithmetic; the rows are put in qubit order once, at the end;
    - an H or X on axis a is one broadcast matmul of its 2x2 matrix over
      the (2^a, 2, rest) view, written into a second buffer. At the first
      H or X on the axis, its column is written out first as a trailing
      axis: the register goes on the diagonal of a zeroed buffer twice
      its size.

    The axes no gate touched are written out the same way at the end, and
    one transpose puts the rows in qubit order and the columns in natural
    order. The product is bitwise the per-gate matmul's (zgemm's) on the
    dense identity. Multiplying by a purely real or purely imaginary number
    is one real product per component, so the CPHASE case gives
    re = xr er - xi ei and im = xr ei + xi er with each product rounded
    once, as the zgemm does; numpy's complex x * e fuses a product into the
    sum and rounds otherwise. Entries the matmul would multiply by 1 or
    only move are left as they are, and the entries not yet stored are
    zeros the zgemm keeps at +0. Two 4^n buffers per call hold the register
    in their prefixes, the spare one also a CPHASE's product x er, so the
    result is fresh.
    """
    n = circuit.n_qubits
    dim = 2**n
    held, spare = np.empty(dim * dim, dtype=complex), np.empty(dim * dim, dtype=complex)
    t = held[:dim]
    t.fill(1)
    axis = list(range(n))  # axis[q - 1]: the register axis that holds qubit q
    columns = []  # columns[j]: the register axis whose column is axis n + j

    def write_column(a):
        """The register with axis a's column as one more trailing axis; it becomes held."""
        nonlocal held, spare
        wide = spare[: 2 * t.size]
        wide.fill(0)
        np.einsum("abcb->abc", wide.reshape(2**a, 2, -1, 2))[...] = t.reshape(2**a, 2, -1)
        columns.append(a)
        held, spare = spare, held
        return wide

    for g in circuit.gates:
        axes = [axis[q - 1] for q in g.qubits]
        if g.name == "SWAP":
            axis[g.qubits[0] - 1], axis[g.qubits[1] - 1] = axes[1], axes[0]
        elif g.name == "CPHASE":
            e = g.gate.unitary[3, 3]
            if e != 1:
                lo, hi = sorted(axes)
                x = t.reshape(2**lo, 2, 2 ** (hi - lo - 1), 2, -1)[:, 1, :, 1, :]
                x_er = np.multiply(x, e.real, out=spare[: x.size].reshape(x.shape))
                x *= 1j * e.imag
                x += x_er
        else:
            a = axes[0]
            if a not in columns:
                t = write_column(a)
            rows = 2**a
            out = spare[: t.size]
            np.matmul(g.gate.unitary, t.reshape(rows, 2, -1), out=out.reshape(rows, 2, -1))
            t, held, spare = out, spare, held
    for a in range(n):
        if a not in columns:
            t = write_column(a)
    order = axis + [n + columns.index(a) for a in range(n)]
    return t.reshape((2,) * (2 * n)).transpose(order).reshape(dim, dim)


def dft_matrix(n: int) -> np.ndarray:
    """DFT matrix on 2^n amplitudes: entries e^{2 pi i jk / 2^n} / 2^(n/2), 1 <= n <= 8."""
    n = _integer(n, "n")
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"n must be in [1, {MAX_QUBITS}], got {n}")
    dim = 2**n
    jk = np.outer(np.arange(dim), np.arange(dim))
    return np.exp(2j * np.pi * jk / dim) / np.sqrt(dim)


def circuit_to_dict(circuit: Circuit) -> dict:
    gates = []
    for g in circuit.gates:
        entry: dict = {"name": g.name, "qubits": list(g.qubits)}
        if g.phi is not None:
            entry["phi"] = g.phi
        gates.append(entry)
    return {"n_qubits": circuit.n_qubits, "gates": gates}

