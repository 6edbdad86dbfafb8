"""Continuous-time evolution of the two-qubit composite across a time grid.

Grid points sample one and the same continuous unitary evolution: every
state is computed by exact spectral propagation from the initial state to
its own time, never by chaining small steps, so refining the grid changes
what is observed but not the numbers at shared points. The composite is
isolated, hence global purity stays constant along every trajectory. All
points form one (steps + 1, 4, 4) stack, evolved and audited as a whole:
the purities of the drift check and the negativities are computed once,
and the profile and ``find_entangled_instant`` read them from the
trajectory; tau is read off the density stack with the determinant that
``states.pure_entanglement`` uses, with no eigendecomposition.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
from .states import DensityMatrix, _check_density, _instance, _negativities, _purities, _taus
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
        object.__setattr__(self, "t_end", _real(self.t_end, "grid t_end", lo=self.t_start))
        _real(self.t_end - self.t_start, "grid t_end - t_start")  # a span that overflows is inf
        object.__setattr__(self, "steps", _integer(self.steps, "grid steps", 1, MAX_STEPS))

    @property
    def epsilon(self) -> float:
        return (self.t_end - self.t_start) / self.steps

    def times(self) -> np.ndarray:
        # linspace pins both endpoints exactly
        return np.linspace(self.t_start, self.t_end, self.steps + 1)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Joint states, their purities and their negativities, row i at times()[i].

    ``evolve_trajectory`` hands over the validated (steps + 1, 4, 4) stack,
    the (steps + 1,) purities of its drift check and the (steps + 1,)
    negativities, all read-only. The shapes are checked against the grid on
    construction.
    """

    grid: TimeGrid
    joint_states: np.ndarray
    purities: np.ndarray
    negativities: np.ndarray

    def __post_init__(self):
        n = _instance(self.grid, TimeGrid, None, "grid").steps + 1
        for name, shape in (("joint_states", (n, 4, 4)), ("purities", (n,)), ("negativities", (n,))):
            value = getattr(self, name)
            got = value.shape if isinstance(value, np.ndarray) else type(value).__name__
            if got != shape:
                raise ValueError(f"{name} must be an array of shape {shape}, got {got}")


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
    _check_density(states, "joint_states")
    purities = _purities(states)
    drift = np.abs(purities - purities[0]).max()
    if drift > DEFAULT.positivity:
        raise RuntimeError(f"global purity drifted by {drift} along the trajectory")
    negativities = _negativities(states)
    for a in (states, purities, negativities):
        a.flags.writeable = False
    return Trajectory(grid, states, purities, negativities)


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
