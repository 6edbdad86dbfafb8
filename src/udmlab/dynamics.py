"""Continuous-time evolution of the two-qubit composite across a time grid.

Grid points sample one and the same continuous unitary evolution: every
state is computed by exact spectral propagation from the initial state to
its own time, never by chaining small steps, so refining the grid changes
what is observed but not the numbers at shared points. The composite is
isolated, hence global purity stays constant along every trajectory. All
points form one (steps + 1, 4, 4) stack, evolved and audited as a whole.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .states import DensityMatrix, _check_density, _negativities, _state
from .tolerances import DEFAULT, _integer, _real

__all__ = [
    "TimeGrid",
    "Trajectory",
    "ProfilePoint",
    "evolve_trajectory",
    "entanglement_profile",
    "find_entangled_instant",
]

DEFAULT_STEPS = 100
# caps one (steps + 1, 4, 4) stack and its temporaries: a MAX_STEPS CLI run peaks at 153 MB RSS
MAX_STEPS = 100_000


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [t_start, t_end] into ``steps`` intervals."""

    t_start: float
    t_end: float
    steps: int = DEFAULT_STEPS

    def __post_init__(self):
        object.__setattr__(self, "t_start", _real(self.t_start, "grid t_start"))
        object.__setattr__(self, "t_end", _real(self.t_end, "grid t_end"))
        if self.t_end <= self.t_start:
            raise ValueError("t_end must exceed t_start")
        object.__setattr__(self, "steps", _integer(self.steps, "grid steps"))
        if not 1 <= self.steps <= MAX_STEPS:
            raise ValueError(f"steps must be an integer in [1, {MAX_STEPS}], got {self.steps}")

    @property
    def epsilon(self) -> float:
        return (self.t_end - self.t_start) / self.steps

    def times(self) -> np.ndarray:
        # linspace pins both endpoints exactly
        return np.linspace(self.t_start, self.t_end, self.steps + 1)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Joint states as one validated, read-only (steps + 1, 4, 4) array, row i at times()[i]."""

    grid: TimeGrid
    joint_states: np.ndarray


@dataclass(frozen=True)
class ProfilePoint:
    t: float
    negativity: float
    tau: float | None  # only defined when the joint state is pure
    purity: float


def _purities(m: np.ndarray) -> np.ndarray:
    return np.trace(m @ m, axis1=-2, axis2=-1).real


def evolve_trajectory(k, rho_in: DensityMatrix, grid: TimeGrid) -> Trajectory:
    """Propagate rho_in under e^{-i k t} to every grid point, directly from t_start.

    k is diagonalised once; no step-to-step error accumulates. The phase
    bound covers both ends of the grid and the span evolved, t_end - t_start.
    """
    k = linalg._hermitian(k, "generator", 4)
    _state(rho_in, DensityMatrix, 2, "rho_in")
    w, v = np.linalg.eigh(k)
    span = max(abs(grid.t_start), abs(grid.t_end), grid.t_end - grid.t_start)
    linalg._check_phase(w, span, "grid")
    rho0 = v.conj().T @ rho_in.matrix @ v  # eigenbasis once
    phase = np.exp(-1j * w * (grid.times() - grid.t_start)[:, None])
    states = v @ (phase[:, :, None] * phase.conj()[:, None, :] * rho0) @ v.conj().T
    _check_density(states)
    purity = _purities(states)
    drift = np.abs(purity - purity[0]).max()
    if drift > DEFAULT.positivity:
        raise RuntimeError(f"global purity drifted by {drift} along the trajectory")
    states.flags.writeable = False
    return Trajectory(grid, states)


def entanglement_profile(traj: Trajectory) -> list[ProfilePoint]:
    """Negativity (and tau where the joint state is pure) per grid point."""
    m = traj.joint_states
    purity = _purities(m)
    pure = purity >= 1.0 - DEFAULT.positivity
    taus = [None] * len(m)
    psis = np.linalg.eigh(m[pure])[1][:, :, -1].tolist()
    for i, psi in zip(np.flatnonzero(pure).tolist(), psis):
        # tau of the dominant eigenvector in Python complex arithmetic; numpy's moves the last bit
        taus[i] = abs(psi[0] * psi[3] - psi[1] * psi[2])
    negs = _negativities(m).tolist()
    return list(map(ProfilePoint, traj.grid.times().tolist(), negs, taus, purity.tolist()))


def find_entangled_instant(
    traj: Trajectory, tol: float = DEFAULT.entanglement
) -> tuple[float, float] | None:
    """Earliest grid point whose joint state has negativity above tol.

    A hit certifies that the joint state there is not the product of its
    marginals; absence means no grid point crossed the threshold.
    """
    tol = _real(tol, "tol", positive=True)
    negs = _negativities(traj.joint_states)
    hits = np.flatnonzero(negs > tol)
    return (float(traj.grid.times()[hits[0]]), float(negs[hits[0]])) if hits.size else None
