"""Continuous-time evolution of the two-qubit composite across a time grid.

Grid points sample one and the same continuous unitary evolution: every
state is computed by exact spectral propagation from the initial state to
its own time, never by chaining small steps, so refining the grid changes
what is observed but not the numbers at shared points. The composite is
isolated, hence global purity stays constant along every trajectory. All
points form one (steps + 1, 4, 4) stack, evolved and audited as a whole:
a ``Trajectory`` takes only the grid and the stack, and derives the
purities and negativities from its states once, on construction; the
drift check, the profile and ``find_entangled_instant`` read them from
it. It holds a copy of the stack that no one can write, so its states and
verdicts always agree. Tau is read off the density stack with the
determinant that ``states.pure_entanglement`` uses, with no
eigendecomposition.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
from .states import DensityMatrix, _check_density, _instance, _negativities, _purities, _taus
from .tolerances import DEFAULT, _hold, _integer, _real

__all__ = [
    "TimeGrid",
    "Trajectory",
    "ProfilePoint",
    "evolve_trajectory",
    "entanglement_profile",
    "find_entangled_instant",
]

DEFAULT_STEPS = 100
# caps one (steps + 1, 4, 4) stack and its temporaries: `udmlab trajectory --steps 100000`
# (CPHASE pi on |++>) peaks at 140.5 MB RSS, the child's ru_maxrss on numpy 2.4.6
MAX_STEPS = 100_000


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [t_start, t_end] into ``steps`` intervals."""

    t_start: float
    t_end: float
    steps: int = DEFAULT_STEPS

    def __post_init__(self):
        t_start = _real(self.t_start, "grid t_start")
        t_end = _real(self.t_end, "grid t_end", lo=t_start)
        _real(t_end - t_start, "grid t_end - t_start")  # a span that overflows is inf
        _hold(self, t_start=t_start, t_end=t_end,
              steps=_integer(self.steps, "grid steps", 1, MAX_STEPS))

    @property
    def epsilon(self) -> float:
        return (self.t_end - self.t_start) / self.steps

    def times(self) -> np.ndarray:
        # linspace pins both endpoints exactly
        return np.linspace(self.t_start, self.t_end, self.steps + 1)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Joint states, row i at times()[i], with their purities and negativities.

    The (steps + 1, 4, 4) stack is checked against the grid and as density
    matrices on construction, and its (steps + 1,) purities and negativities
    are derived from it once. All three are held as copies no one can
    write, so a later write to the stack given changes none of them.
    ``purities`` and ``negativities`` are no fields, so repr and fields()
    see only the grid and the states.
    """

    grid: TimeGrid
    joint_states: np.ndarray

    def __post_init__(self):
        shape = (_instance(self.grid, TimeGrid, None, "grid").steps + 1, 4, 4)
        s = self.joint_states
        got = s.shape if isinstance(s, np.ndarray) else type(s).__name__
        if got != shape:
            raise ValueError(f"joint_states must be an array of shape {shape}, got {got}")
        _check_density(s, "joint_states")
        _hold(self, joint_states=s, purities=_purities(s), negativities=_negativities(s))


class ProfilePoint(NamedTuple):
    t: float
    negativity: float
    tau: float | None  # only defined when the joint state is pure
    purity: float


def evolve_trajectory(k, rho_in: DensityMatrix, grid: TimeGrid) -> Trajectory:
    """Propagate rho_in under e^{-i k t} to every grid point, directly from t_start.

    k is diagonalised once; no step-to-step error accumulates. The phase
    bound covers both ends of the grid and the span evolved, t_end - t_start.
    """
    k = linalg._hermitian(k, "generator", 4)
    _instance(rho_in, DensityMatrix, 2, "rho_in")
    _instance(grid, TimeGrid, None, "grid")
    w, v = np.linalg.eigh(k)
    span = max(abs(grid.t_start), abs(grid.t_end), grid.t_end - grid.t_start)
    linalg._check_phase(w, span, "grid")
    rho0 = v.conj().T @ rho_in.matrix @ v  # eigenbasis once
    phase = np.exp(-1j * w * (grid.times() - grid.t_start)[:, None])
    states = v @ (phase[:, :, None] * phase.conj()[:, None, :] * rho0) @ v.conj().T
    traj = Trajectory(grid, states)
    drift = np.abs(traj.purities - traj.purities[0]).max()
    if drift > DEFAULT.positivity:
        raise RuntimeError(f"global purity drifted by {drift} along the trajectory")
    return traj


def entanglement_profile(traj: Trajectory) -> list[ProfilePoint]:
    """Negativity, tau where the joint state is pure, and purity per grid point.

    A pure rho = psi psi^dag has column j equal to psi conj(psi_j), and
    |psi_j|^2 = rho_jj, so tau(psi) = tau(column j) / rho_jj. Column j is
    the one of the largest diagonal entry, which is at least 1/4.
    """
    m = _instance(traj, Trajectory, None, "traj").joint_states
    rows = np.arange(len(m))
    j = np.diagonal(m, axis1=-2, axis2=-1).real.argmax(axis=-1)
    pure = traj.purities >= 1.0 - DEFAULT.positivity
    taus = np.where(pure, _taus(m[rows, :, j]) / m[rows, j, j].real, None).tolist()
    negs = traj.negativities.tolist()
    return list(map(ProfilePoint, traj.grid.times().tolist(), negs, taus, traj.purities.tolist()))


def find_entangled_instant(
    traj: Trajectory, tol: float = DEFAULT.entanglement
) -> tuple[float, float] | None:
    """Earliest grid point whose joint state has negativity above tol.

    A hit certifies that the joint state there is not the product of its
    marginals; absence means no grid point crossed the threshold.
    """
    tol = _real(tol, "tol", lo=0)
    negs = _instance(traj, Trajectory, None, "traj").negativities
    hits = np.flatnonzero(negs > tol)
    return (float(traj.grid.times()[hits[0]]), float(negs[hits[0]])) if hits.size else None
