"""Continuous-time evolution of the two-qubit composite across a time grid.

Grid points sample one and the same continuous unitary evolution: every
state is computed by exact spectral propagation from the initial state to
its own time, never by chaining small steps, so refining the grid changes
what is observed but not the numbers at shared points. The composite is
isolated, hence global purity stays constant along every trajectory.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .states import DensityMatrix, negativity
from .tolerances import DEFAULT

__all__ = [
    "TimeGrid",
    "Trajectory",
    "ProfilePoint",
    "evolve_trajectory",
    "entanglement_profile",
    "find_entangled_instant",
]

DEFAULT_STEPS = 100
# each grid point holds a validated 4x4 DensityMatrix, so the grid size bounds memory and time
MAX_STEPS = 100_000


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [t_start, t_end] into ``steps`` intervals."""

    t_start: float
    t_end: float
    steps: int = DEFAULT_STEPS

    def __post_init__(self):
        if self.t_end <= self.t_start:
            raise ValueError("t_end must exceed t_start")
        if not np.isfinite([self.t_start, self.t_end]).all():
            raise ValueError(f"grid ends must be finite, got [{self.t_start}, {self.t_end}]")
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
    """Joint 4x4 states over a grid, under a fixed Hermitian generator."""

    grid: TimeGrid
    joint_states: tuple[DensityMatrix, ...]


@dataclass(frozen=True)
class ProfilePoint:
    t: float
    negativity: float
    tau: float | None  # only defined when the joint state is pure
    purity: float


def evolve_trajectory(k, rho_in: DensityMatrix, grid: TimeGrid) -> Trajectory:
    """Propagate rho_in under e^{-i k t}, sampling every grid point.

    The spectral decomposition of k is taken once; each point is evolved
    directly from t_start, so there is no step-to-step error accumulation.
    """
    k = linalg.as_matrix(k)
    if k.shape != (4, 4) or rho_in.dim != 4:
        raise ValueError("evolve_trajectory expects a 4x4 generator and 2-qubit state")
    if linalg.hermiticity_defect(k) > DEFAULT.hermiticity:
        raise ValueError("generator must be Hermitian")
    w, v = np.linalg.eigh(k)
    rho0 = v.conj().T @ rho_in.matrix @ v  # eigenbasis once
    states = []
    for t in grid.times():
        phase = np.exp(-1j * w * (t - grid.t_start))
        evolved = v @ (np.outer(phase, phase.conj()) * rho0) @ v.conj().T
        states.append(DensityMatrix(evolved))
    traj = Trajectory(grid, tuple(states))
    p0 = states[0].purity()
    drift = max(abs(s.purity() - p0) for s in states)
    if drift > DEFAULT.positivity:
        raise RuntimeError(f"global purity drifted by {drift} along the trajectory")
    return traj


def _pure_tau(rho: np.ndarray) -> float:
    # dominant eigenvector of a (numerically) pure 4x4 state
    w, v = np.linalg.eigh(rho)
    psi = v[:, -1]
    return float(abs(psi[0] * psi[3] - psi[1] * psi[2]))


def entanglement_profile(traj: Trajectory) -> list[ProfilePoint]:
    """Negativity (and tau where the joint state is pure) per grid point."""
    points = []
    for t, state in zip(traj.grid.times(), traj.joint_states):
        purity = state.purity()
        tau = _pure_tau(state.matrix) if purity >= 1.0 - DEFAULT.positivity else None
        points.append(ProfilePoint(float(t), negativity(state), tau, purity))
    return points


def find_entangled_instant(
    traj: Trajectory, tol: float = DEFAULT.entanglement
) -> tuple[float, float] | None:
    """Earliest grid point whose joint state has negativity above tol.

    A hit certifies that the joint state there is not the product of its
    marginals; absence means no grid point crossed the threshold. The scan
    stops at the first hit.
    """
    for t, state in zip(traj.grid.times(), traj.joint_states):
        neg = negativity(state)
        if neg > tol:
            return float(t), neg
    return None
