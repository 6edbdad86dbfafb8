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
u gives out = u m, and no 2^n x 2^n matrix is built per gate. u and the
axes taken from the previous product are read from the circuit's per-gate
plan, made once when the frozen ``Circuit`` is built. For a two-qubit gate
m and out are the pair factors before and after the block, written
straight into the one stack the audit reads. ``circuit_unitary`` carries
all 2^n basis columns and applies each gate by its name instead: a CPHASE
scales the one slice where both its qubits are 1, a SWAP relabels two
axes, and an H or X is one broadcast matmul, so no gate transposes the
register. It starts from the identity's diagonal and holds the register
as a prefix of its one 4^n result, in the result's own layout, so every
column store and every gate runs in place (its docstring has the layout).
Each loop is the faster one for its own call shape, one column or all 2^n.

A placed gate is the named ``gates.Gate``, generator included, built once
per (name, phi) and shared by every circuit, so its matrices are read-only.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .gates import Gate, c_phase, hadamard, swap_gate, x_gate
from .states import PureState, _check_density, _instance, _negativities
from .tolerances import DEFAULT, _choice, _hold, _integer, _real, _sequence

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
        name, phi = _choice(self.name, _NAMED, "name"), self.phi
        if name == "CPHASE":
            if phi is None:
                raise ValueError("CPHASE phi must be given")
            phi = _real(phi, "CPHASE phi")
        elif phi is not None:
            raise ValueError(f"{name} phi must be None, got {phi!r}")
        qubits = _sequence(self.qubits, f"{name} qubits", _named_gate(name, phi).n_qubits)
        qubits = tuple(_integer(q, f"{name} qubit index") for q in qubits)
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"{name} qubits must be distinct, got {qubits}")
        _hold(self, phi=phi, qubits=qubits)

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
        n = _integer(self.n_qubits, "n_qubits", MIN_QUBITS, MAX_QUBITS)
        gates = _sequence(self.gates, "gates")
        for i, g in enumerate(gates):
            if not isinstance(g, PlacedGate):
                raise ValueError(f"gates[{i}] must be a PlacedGate, got {g!r}")
            for q in g.qubits:
                _integer(q, f"{g.name} qubit index", 1, n)
        # run_circuit's plan: per gate (unitary, axes, rows), axes bringing the gate's
        # qubits to the front of the previous gate's product; the axes putting the
        # last product in qubit order; each two-qubit block's (position, gate). For
        # circuit_unitary, _swapped[q]: the input qubit the SWAPs bring to qubit q
        # (0-based). Not fields, so eq, hash, repr and fields() see only n_qubits and gates
        plan, held = [], list(range(n))  # held[a]: the qubit at axis a
        swapped = list(range(n))
        for g in gates:
            perm = [q - 1 for q in g.qubits]
            perm += [a for a in range(n) if a not in perm]
            plan.append((g.gate.unitary, tuple(held.index(a) for a in perm), 2 ** len(g.qubits)))
            held = perm
            if g.name == "SWAP":
                i, j = perm[:2]
                swapped[i], swapped[j] = swapped[j], swapped[i]
        blocks = tuple((pos, g) for pos, g in enumerate(gates, start=1) if len(g.qubits) == 2)
        _hold(self, n_qubits=n, gates=gates, _plan=tuple(plan), _swapped=tuple(swapped),
              _final=tuple(held.index(a) for a in range(n)), _blocks=blocks)


class AuditRecord(NamedTuple):
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
    n = _integer(n, "n", MIN_QUBITS, MAX_QUBITS)
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
    (on one column this beats ``circuit_unitary``'s dispatch by name): the
    circuit's plan gives u and the axes that bring the gate's qubits to the
    front of the previous product, which goes to qubit order only at the
    end. For a two-qubit block m and out are the pair factors just before
    and after the gate (spectators in the columns), written straight into
    slots 2i and 2i + 1 of one (2B, 4, 2^(n-2)) stack for the B blocks. The
    audit is then evaluated once: all pair densities m m^dag come from one
    stacked product, every one is still validated as a density matrix
    (finite, Hermitian, trace 1, positive), and one batched
    eigendecomposition of their partial transposes gives the negativities.
    """
    tol = _real(tol, "tol", lo=0)
    _instance(input_state, PureState, circuit.n_qubits, "input_state")
    shape = (2,) * circuit.n_qubits
    t = input_state.amplitudes.reshape(shape)
    factors = np.empty((2 * len(circuit._blocks), 4, t.size // 4), dtype=complex)
    slots = iter(factors)
    for u, axes, rows in circuit._plan:
        if rows == 4:
            m, out = next(slots), next(slots)
            m.reshape(shape)[...] = t.transpose(axes)
        else:
            m, out = t.transpose(axes).reshape(rows, -1), None
        t = np.dot(u, m, out=out).reshape(shape)
    records = ()
    if circuit._blocks:
        stack = factors @ factors.conj().swapaxes(-1, -2)
        _check_density(stack, "pair states")
        negs = _negativities(stack).tolist()
        records = tuple([
            AuditRecord(pos, g.name, g.qubits, neg_in, neg_out, neg_in <= tol, neg_out <= tol)
            for (pos, g), neg_in, neg_out in zip(circuit._blocks, negs[0::2], negs[1::2])
        ])
    return PureState(t.transpose(circuit._final).reshape(-1)), BlockAudit(records)


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Ordered product of the gate unitaries: the circuit run on every basis column.

    The register starts as the identity's diagonal, 2^n ones, in the
    result's own layout: n row axes (2,)*n in final qubit order (read off
    the circuit's SWAPs before the loop), then the stored column axes in
    natural order. An axis's column is stored, at its sorted place, when an
    H or X first touches it; until then its column index equals its row
    index (a CPHASE is diagonal and a SWAP moves no data). Each gate is
    applied by its name, with no transpose:

    - a CPHASE scales, in place, the one slice where both its qubits are 1
      by its matrix's entry e = u[3, 3], as x er + x (i ei), and leaves the
      register as it is when e is exactly 1;
    - a SWAP exchanges its qubits' row axes in the qubit-to-row map, with no
      arithmetic;
    - an H or X on row axis r is one broadcast matmul of its 2x2 matrix over
      the (2^r, 2, rest) view, after its column is stored if it is the
      first touch.

    The axes no gate touched have their columns stored at the end. The one
    4^n array allocated per call is the result, and the register is always
    its prefix: a column store grows it in place, and every H, X or CPHASE
    runs in place through a copy of each block of at most 4^n / 16 entries
    (one block for n <= 6; a ufunc on the strided CPHASE slice is slower).

    The product is bitwise the per-gate matmul's (zgemm's) on the dense
    identity. Multiplying by a purely real or purely imaginary number is
    one real product per component, so the CPHASE case gives
    re = xr er - xi ei and im = xr ei + xi er with each product rounded
    once, as the zgemm does; numpy's complex x * e fuses a product into the
    sum and rounds otherwise. Entries the matmul would multiply by 1 or
    only move are left as they are, and the entries not yet stored are
    zeros the zgemm keeps at +0. A matmul over only two trailing entries
    takes another kernel path, which gives some zeros another sign than the
    wide product does. That shape would come only from a first H or X on
    the last row with no column stored, so there row n - 2's column is
    stored first (a stored column of the identity is what the dense
    product holds, so the bytes do not change).
    """
    n = circuit.n_qubits
    size = 4**n
    result = np.empty(size, dtype=complex)
    limit = size if size <= 4096 else size // 16  # entries per block of an in-place gate
    src = circuit._swapped  # src[r]: the input qubit whose column pairs with row axis r
    row = sorted(range(n), key=src.__getitem__)  # row[q - 1]: the row axis that holds qubit q
    stored = []  # the input qubits whose columns are stored, in order
    t = result[: 2**n]  # the register, always a prefix of result
    t.fill(1)

    def write_column(r):
        """Store row axis r's column at its sorted place, growing the register in place."""
        c = src[r]
        j = bisect_left(stored, c)
        stored.insert(j, c)
        d = 2 ** (len(stored) - 1 - j)  # entries per index of the columns after it
        run = 2 ** (n - 1 - r + j)  # consecutive indices above d sharing row axis r's value
        _grow_in_place(result, t.size, d, run, limit // 4)
        return result[: 2 * t.size]

    for g, (u, _, _) in zip(circuit.gates, circuit._plan):
        if g.name == "CPHASE":
            e = u[3, 3]
            if e != 1:
                lo, hi = row[g.qubits[0] - 1], row[g.qubits[1] - 1]
                if lo > hi:
                    lo, hi = hi, lo
                x = t.reshape(2**lo, 2, 2 ** (hi - lo - 1), 2, -1)[:, 1, :, 1, :]
                for part in _parts(x, limit // 2):
                    _phase(part, e)
        elif g.name == "SWAP":
            i, j = g.qubits
            row[i - 1], row[j - 1] = row[j - 1], row[i - 1]
        else:
            r = row[g.qubits[0] - 1]
            if src[r] not in stored:
                if r == n - 1 and not stored:  # so that the matmul sees more than 2 columns
                    t = write_column(n - 2)
                t = write_column(r)
            for part in _parts(t.reshape(2**r, 2, -1).swapaxes(1, 2), limit):
                part = part.swapaxes(-1, -2)
                np.matmul(u, part.copy(), out=part)
    for r in range(n):
        if src[r] not in stored:
            t = write_column(r)
    return result.reshape(2**n, 2**n)


def _grow_in_place(result, size, d, run, small):
    """Store a column in place: the register result[:size] grows into result[:2 size].

    Row i of the register, viewed as (m, d), goes to (i, b, :) of the prefix
    viewed as (m, 2, d), b the new column's row axis bit at i (run consecutive
    i share one b). Dyadic blocks of i move top first: block [k, 2k) lands on
    entries [2kd, 4kd), above every entry not yet read. Blocks stop at small
    entries, and the rest, at most 2 small entries, moves through a copy.
    """
    top = size // d
    while top:
        lo = top // 2 if top // 2 * d > small else 0
        x = result[lo * d : top * d]
        if not lo:
            x = x.copy()
        wide = result[2 * lo * d : 2 * top * d]
        wide.fill(0)
        if x.size <= run * d:  # [lo, top) lies within one run
            wide.reshape(-1, 2, d)[:, lo // run % 2] = x.reshape(-1, d)
        else:  # [lo, top) covers whole pairs of runs
            wide, x = wide.reshape(-1, 2, run, 2, d), x.reshape(-1, 2, run, d)
            wide[:, 0, :, 0] = x[:, 0]
            wide[:, 1, :, 1] = x[:, 1]
        top = lo


def _phase(x, e):
    """x *= e in place, as x er + x (i ei), through two contiguous copies of x."""
    y = x.copy()
    y_er = y * e.real
    y *= 1j * e.imag
    y += y_er
    x[...] = y


def _parts(v, limit):
    """Views tiling v in blocks of at most limit entries, splitting its leading axes first."""
    if v.size <= limit:
        yield v
        return
    step = limit // (v.size // len(v))
    if step:
        for i in range(0, len(v), step):
            yield v[i : i + step]
    else:
        for sub in v:
            yield from _parts(sub, limit)


def dft_matrix(n: int) -> np.ndarray:
    """DFT matrix on 2^n amplitudes: entries e^{2 pi i jk / 2^n} / 2^(n/2), 1 <= n <= 8.

    It is built from the 2^n roots of unity e^{2 pi i r / 2^n}, each taken once and
    indexed by jk mod 2^n, so no entry rounds an angle larger than 2 pi."""
    n = _integer(n, "n", 1, MAX_QUBITS)
    dim = 2**n
    r = np.arange(dim)
    roots = np.exp(2j * np.pi * r / dim) / np.sqrt(dim)
    return roots[np.outer(r, r) % dim]


def circuit_to_dict(circuit: Circuit) -> dict:
    gates = [{k: v for k, v in vars(g).items() if v is not None} for g in circuit.gates]
    return {"n_qubits": circuit.n_qubits, "gates": gates}

