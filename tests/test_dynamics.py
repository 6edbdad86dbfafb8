import re

import numpy as np
import pytest

from udmlab import (
    DEFAULT,
    DensityMatrix,
    TimeGrid,
    apply,
    c_phase,
    densify,
    entanglement_profile,
    evolve_trajectory,
    find_entangled_instant,
    gate_from_generator,
    negativity,
    product_state,
)
from udmlab import dynamics as dynamics_mod, states as states_mod
from udmlab.dynamics import MAX_STEPS
from conftest import X, random_density, random_hermitian, random_pure

Z = np.diag([1.0, -1.0]).astype(complex)
K_CPI = np.diag([0.0, 0.0, 0.0, np.pi]).astype(complex)


def test_timegrid_points_and_epsilon():
    grid = TimeGrid(0.0, 1.0, 4)
    assert grid.epsilon == 0.25
    np.testing.assert_allclose(grid.times(), [0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(ValueError):
        TimeGrid(1.0, 1.0, 4)
    for steps in (0, MAX_STEPS + 1, 2.5, True, "4"):
        with pytest.raises(ValueError, match="steps"):
            TimeGrid(0.0, 1.0, steps)
    assert type(TimeGrid(0.0, 1.0, np.int64(4)).steps) is int
    for t_start, t_end in ((0.0, np.nan), (np.nan, 1.0), (0.0, np.inf), (-np.inf, 0.0)):
        with pytest.raises(ValueError, match="finite"):
            TimeGrid(t_start, t_end, 4)


def test_zero_generator_gives_constant_trajectory():
    rho = densify(product_state(["+", "1"]))
    traj = evolve_trajectory(np.zeros((4, 4)), rho, TimeGrid(0.0, 1.0, 5))
    assert traj.joint_states.shape == (6, 4, 4)
    for state in traj.joint_states:
        np.testing.assert_allclose(state, rho.matrix, atol=1e-15)


def test_cpi_trajectory_hits_gate_output():
    rho = densify(product_state(["+", "+"]))
    traj = evolve_trajectory(K_CPI, rho, TimeGrid(0.0, 1.0, 4))
    endpoint = traj.joint_states[-1]
    expected = apply(c_phase(np.pi), product_state(["+", "+"]))
    np.testing.assert_allclose(endpoint, densify(expected).matrix, atol=1e-12)
    # midpoint from the diagonal exponential: amplitudes (1,1,1,e^{-i pi/2})/2
    mid = np.array([1, 1, 1, np.exp(-1j * np.pi / 2)]) / 2
    np.testing.assert_allclose(traj.joint_states[2], np.outer(mid, mid.conj()), atol=1e-12)


def test_endpoint_matches_single_shot_gate(rng):
    for _ in range(5):
        k = random_hermitian(rng, 4)
        rho = densify(product_state(["+", "-"]))
        grid = TimeGrid(0.0, rng.uniform(0.5, 2.0), 7)
        traj = evolve_trajectory(k, rho, grid)
        g = gate_from_generator(k, grid.t_end - grid.t_start)
        np.testing.assert_allclose(traj.joint_states[-1], apply(g, rho).matrix, atol=1e-10)


def test_refinement_keeps_shared_points(rng):
    k = random_hermitian(rng, 4)
    rho = densify(product_state(["+i", "0"]))
    coarse = evolve_trajectory(k, rho, TimeGrid(0.0, 1.0, 10))
    fine = evolve_trajectory(k, rho, TimeGrid(0.0, 1.0, 20))
    for m in range(11):
        np.testing.assert_allclose(coarse.joint_states[m], fine.joint_states[2 * m], atol=1e-12)


def test_purity_constant_along_trajectory(rng):
    k = random_hermitian(rng, 4)
    rho = DensityMatrix(np.diag([0.5, 0.2, 0.2, 0.1]))  # mixed input
    traj = evolve_trajectory(k, rho, TimeGrid(0.0, 2.0, 20))
    p0 = rho.purity()
    for state in traj.joint_states:
        assert abs(np.trace(state @ state).real - p0) <= 1e-9


def test_local_generator_keeps_profile_flat():
    k = np.kron(Z, np.eye(2))
    rho = densify(product_state(["+", "+"]))
    traj = evolve_trajectory(k, rho, TimeGrid(0.0, 1.0, 10))
    for p in entanglement_profile(traj):
        assert p.negativity < 1e-12
        assert p.tau is not None and p.tau < 1e-12
    assert find_entangled_instant(traj, tol=1e-6) is None


def test_cpi_profile_matches_coefficient_determinant():
    # evolved coefficients (1,1,1,e^{-i pi t})/2 plugged into the determinant
    grid = TimeGrid(0.0, 1.0, 100)
    traj = evolve_trajectory(K_CPI, densify(product_state(["+", "+"])), grid)
    profile = entanglement_profile(traj)
    for t, p in zip(grid.times(), profile):
        assert p.tau is not None
        assert abs(p.tau - abs(np.exp(-1j * np.pi * t) - 1) / 4) < 1e-9
    assert abs(profile[50].tau - np.sqrt(2) / 4) < 1e-9
    assert abs(profile[-1].tau - 0.5) < 1e-9


def test_cpi_superposed_with_basis_companion_stays_product():
    # evolved state (|0> + e^{-i pi t}|1>)|1>/sqrt(2) factors at every t
    traj = evolve_trajectory(
        K_CPI, densify(product_state(["+", "1"])), TimeGrid(0.0, 1.0, 50)
    )
    for p in entanglement_profile(traj):
        assert p.negativity < 1e-12


def test_find_entangled_instant_on_cpi():
    grid = TimeGrid(0.0, 1.0, 100)
    traj = evolve_trajectory(K_CPI, densify(product_state(["+", "+"])), grid)
    hit = find_entangled_instant(traj, tol=1e-6)
    assert hit is not None
    t1, value = hit
    assert abs(t1 - 0.01) < 1e-12  # first positive grid point
    assert value > 1e-6
    # a basis input only picks up phases
    basis = evolve_trajectory(K_CPI, densify(product_state(["0", "1"])), grid)
    assert find_entangled_instant(basis, tol=1e-6) is None


def test_trajectory_functions_build_no_per_point_states(monkeypatch):
    rho = densify(product_state(["+", "+"]))

    def per_point(*args, **kwargs):
        raise AssertionError("a trajectory is evolved and audited as one stack")

    monkeypatch.setattr(states_mod.DensityMatrix, "__init__", per_point)
    monkeypatch.setattr(states_mod.DensityMatrix, "purity", per_point)
    monkeypatch.setattr(states_mod, "negativity", per_point)
    purity_passes = []

    def purities(m):
        purity_passes.append(m)
        return states_mod._purities(m)

    monkeypatch.setattr(dynamics_mod, "_purities", purities)
    traj = evolve_trajectory(K_CPI, rho, TimeGrid(0.0, 1.0, 100))

    def eigendecomposition(*args, **kwargs):
        raise AssertionError("the profile reads tau off the density stack")

    monkeypatch.setattr(np.linalg, "eigh", eigendecomposition)

    def spectrum(*args, **kwargs):
        raise AssertionError("the profile and the instant read the trajectory's negativities")

    monkeypatch.setattr(np.linalg, "eigvalsh", spectrum)
    assert len(entanglement_profile(traj)) == 101
    assert find_entangled_instant(traj) is not None
    assert len(purity_passes) == 1  # the drift check's purities serve the profile


def per_point_reference(k, rho, grid, tol):
    """The trajectory, profile and hit recomputed one grid point at a time."""
    w, v = np.linalg.eigh(k)
    rho0 = v.conj().T @ rho.matrix @ v
    states, profile, hit = [], [], None
    for t in grid.times():
        phase = np.exp(-1j * w * (t - grid.t_start))
        state = DensityMatrix(v @ (np.outer(phase, phase.conj()) * rho0) @ v.conj().T)
        purity = state.purity()
        tau = None
        if purity >= 1.0 - DEFAULT.positivity:
            # column j of psi psi^dag is psi conj(psi_j), and |psi_j|^2 is its diagonal entry
            j = int(np.argmax(np.diag(state.matrix).real))
            c = state.matrix[:, j]
            tau = float(np.abs(c[..., 0] * c[..., 3] - c[..., 1] * c[..., 2]) / c[j].real)
        neg = negativity(state)
        if hit is None and neg > tol:
            hit = (float(t), neg)
        states.append(state.matrix)
        profile.append((float(t), neg, tau, purity))
    return np.array(states), profile, hit


def test_stacked_trajectory_equals_per_point_recomputation(rng):
    pure_product = densify(product_state(["+", "+i"]))
    entangled = apply(c_phase(np.pi), densify(product_state(["+", "+"])))
    mixed = DensityMatrix(random_density(rng, 4))
    cases = [
        (K_CPI, pure_product, TimeGrid(0.0, 1.0, 50), 1e-6),
        (np.kron(Z, np.eye(2)), pure_product, TimeGrid(-0.5, 0.5, 10), 1e-6),
        (random_hermitian(rng, 4), pure_product, TimeGrid(-0.7, 1.3, 37), 1e-3),
        (random_hermitian(rng, 4), entangled, TimeGrid(0.4, 2.0, 1), 1e-6),
        (c_phase(np.pi / 3).generator, entangled, TimeGrid(-1.0, -0.2, 20), 0.3),
        (random_hermitian(rng, 4), mixed, TimeGrid(0.25, 3.0, 64), 1e-9),
    ]
    hits, taus = [], []
    for k, rho, grid, tol in cases:
        traj = evolve_trajectory(k, rho, grid)
        states, profile, hit = per_point_reference(k, rho, grid, tol)
        assert traj.joint_states.shape == states.shape
        assert (traj.joint_states == states).all()
        assert [(p.t, p.negativity, p.tau, p.purity) for p in entanglement_profile(traj)] == profile
        assert find_entangled_instant(traj, tol=tol) == hit
        hits.append(hit)
        taus += [p[2] for p in profile]
    assert None in hits and any(h is not None for h in hits)
    assert None in taus and any(t is not None for t in taus)


def test_joint_states_are_read_only():
    traj = evolve_trajectory(K_CPI, densify(product_state(["+", "+"])), TimeGrid(0.0, 1.0, 4))
    with pytest.raises(ValueError):
        traj.joint_states[0, 0, 0] = 0.0
    with pytest.raises(ValueError):
        traj.purities[0] = 0.0


def test_profile_tau_matches_evolved_state_vector(rng):
    # psi(t) = v e^{-i w (t - t_start)} v^dag psi(t_start), evolved as a vector;
    # product inputs make tau ~ 1e-17 near t_start, where a square root of a
    # round-off tau^2 would be ~1e-8 off
    for _ in range(40):
        k = random_hermitian(rng, 4)
        psi0 = np.kron(random_pure(rng, 2), random_pure(rng, 2))
        grid = TimeGrid(rng.uniform(-1.0, 0.0), rng.uniform(0.5, 2.0), 30)
        traj = evolve_trajectory(k, DensityMatrix(np.outer(psi0, psi0.conj())), grid)
        w, v = np.linalg.eigh(k)
        for t, p in zip(grid.times(), entanglement_profile(traj)):
            g = v @ (np.exp(-1j * w * (t - grid.t_start)) * (v.conj().T @ psi0))
            assert p.tau is not None
            assert abs(p.tau - abs(g[0] * g[3] - g[1] * g[2])) < 1e-13


@pytest.mark.parametrize(
    "tol",
    [float("nan"), -1.0, 0.0, float("inf"), True, pytest.param(np.True_, id="np.True_"), "1e-9", None],
)
def test_find_entangled_instant_rejects_a_tolerance_not_finite_and_positive(tol):
    # nan or True (read as 1) would report no hit, and a negative tol a hit at
    # t = 0, where the state is a product
    traj = evolve_trajectory(
        c_phase(np.pi).generator, densify(product_state(["+", "+"])), TimeGrid(0.0, 1.0, 100)
    )
    with pytest.raises(ValueError, match=f"^tol must be finite and > 0, got {re.escape(repr(tol))}$"):
        find_entangled_instant(traj, tol=tol)


def test_entangling_cphases_create_entanglement_for_some_product():
    names = ["0", "1", "+", "-", "+i", "-i"]
    grid = TimeGrid(0.0, 1.0, 20)
    for phi in [np.pi / 2, np.pi / 4, np.pi]:
        k = c_phase(phi).generator
        found = False
        for a in names:
            for b in names:
                traj = evolve_trajectory(k, densify(product_state([a, b])), grid)
                if find_entangled_instant(traj, tol=1e-6) is not None:
                    found = True
                    break
            if found:
                break
        assert found, f"no entangled instant for any stabilizer product, phi={phi}"


def test_evolve_rejects_bad_inputs():
    rho = densify(product_state(["0", "0"]))
    with pytest.raises(ValueError):
        evolve_trajectory(np.kron(X, np.eye(2)) * 1j, rho, TimeGrid(0, 1, 2))  # not Hermitian
    with pytest.raises(ValueError):
        evolve_trajectory(np.zeros((2, 2)), rho, TimeGrid(0, 1, 2))  # wrong size
    rho.matrix = 2 * rho.matrix  # changed after its own validation; the stack is checked again
    with pytest.raises(ValueError, match="trace"):
        evolve_trajectory(K_CPI, rho, TimeGrid(0, 1, 2))


def test_evolve_trajectory_refuses_a_purity_drift(monkeypatch):
    # a unitary evolution keeps the purity to round-off: only a broken stack drifts
    monkeypatch.setattr(dynamics_mod, "_purities", lambda m: np.linspace(1.0, 0.5, len(m)))
    with pytest.raises(RuntimeError, match="^global purity drifted by 0.5 along the trajectory$"):
        evolve_trajectory(K_CPI, densify(product_state(["+", "+"])), TimeGrid(0, 1, 4))
