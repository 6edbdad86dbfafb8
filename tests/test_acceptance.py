"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is pinned here, not configurable.
"""
import json
import time

import numpy as np
import pytest

from udmlab import (
    DensityMatrix,
    PureState,
    TimeGrid,
    apply,
    apply_map,
    build_qft,
    c_phase,
    choi,
    circuit_unitary,
    densify,
    dft_matrix,
    entanglement_profile,
    evolve_trajectory,
    find_entangled_instant,
    induced_map,
    intermediate_map,
    is_cptp,
    is_entangling,
    kraus_decompose,
    local_phase,
    local_pair_maps,
    matexp_hermitian,
    named_state,
    product_state,
    pure_entanglement,
    run_circuit,
    udm_witness_subinterval,
)
from udmlab.cli import main as cli_main
from udmlab.gates import equal_up_to_phase
from conftest import (
    X,
    diagonal_intermediate_map,
    random_density,
    random_hermitian,
    reduced_evolution,
    series_matexp,
)

K_CPI = np.diag([0.0, 0.0, 0.0, np.pi]).astype(complex)


def report(num: int, ok: bool, detail: str):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_criterion_01_cphase_entangles_uniform_input():
    gate = c_phase(np.pi / 2)
    uniform = PureState([1, 1, 1, 1])
    apply(gate, uniform)  # warm-up, keeps the timing meaningful
    out, elapsed = timed(lambda: apply(gate, uniform))
    expected = np.array([1, 1, 1, np.exp(1j * np.pi / 2)]) / 2
    deviation = float(np.max(np.abs(out.amplitudes - expected)))
    tau = pure_entanglement(out)
    ok = deviation <= 1e-12 and tau > 0 and elapsed < 1e-3
    report(
        1,
        ok,
        f"C_(pi/2) on uniform product: deviation={deviation:.2e}, "
        f"determinant={tau:.6f} (> 0), runtime={elapsed * 1e3:.3f} ms",
    )


def test_criterion_02_spinflip_exponential_and_series():
    spectral = matexp_hermitian(X, np.pi / 2)
    phase_ok = equal_up_to_phase(spectral, X, tol=1e-10)
    series = series_matexp(X, np.pi / 2, 40)
    series_dev = float(np.max(np.abs(series - spectral)))
    ok = phase_ok and series_dev <= 1e-12
    report(
        2,
        ok,
        f"exp(-iX pi/2) equals X up to phase: {phase_ok}; "
        f"40-term series deviation={series_dev:.2e} (<= 1e-12)",
    )


def test_criterion_03_entangling_verdicts():
    results = []
    times = []
    for phi in (np.pi / 4, np.pi / 2, np.pi):
        gate = c_phase(phi)
        is_entangling(gate)  # warm-up
        (verdict, rank), elapsed = timed(lambda g=gate: is_entangling(g))
        results.append(verdict and rank == 2)
        times.append(elapsed)
    local = local_phase(0.9)
    (verdict, rank), elapsed = timed(lambda: is_entangling(local))
    results.append((not verdict) and rank == 1)
    times.append(elapsed)
    ok = all(results) and max(times) < 1e-3
    report(
        3,
        ok,
        f"C_phi rank 2 for pi/4, pi/2, pi and local phase rank 1: {all(results)}; "
        f"max runtime={max(times) * 1e3:.3f} ms",
    )


@pytest.fixture(scope="module")
def random_map_sweep():
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    entries = []
    for _ in range(200):
        k = random_hermitian(rng, 4)
        env = DensityMatrix(random_density(rng, 2))
        t = rng.uniform(1e-3, 3.0)
        which = int(rng.integers(1, 3))
        m = induced_map(k, env, t, which=which)
        cp, tp, min_eig = is_cptp(m, tol=1e-8)
        oracle_dev = 0.0
        for _ in range(20):
            rho = DensityMatrix(random_density(rng, 2))
            expected = reduced_evolution(k, rho.matrix, env.matrix, t, which)
            got = apply_map(m, rho).matrix
            oracle_dev = max(oracle_dev, float(np.max(np.abs(got - expected))))
        kraus = kraus_decompose(choi(m))
        recon_dev = 0.0
        for _ in range(5):
            rho = DensityMatrix(random_density(rng, 2))
            rebuilt = sum(op @ rho.matrix @ op.conj().T for op in kraus.operators)
            recon_dev = max(
                recon_dev, float(np.max(np.abs(rebuilt - apply_map(m, rho).matrix)))
            )
        completeness = sum(op.conj().T @ op for op in kraus.operators)
        comp_dev = float(np.max(np.abs(completeness - np.eye(2))))
        entries.append(
            {
                "cp": cp,
                "tp": tp,
                "min_eig": min_eig,
                "oracle_dev": oracle_dev,
                "recon_dev": recon_dev,
                "comp_dev": comp_dev,
            }
        )
    return entries, time.perf_counter() - start


def test_criterion_04_induced_maps_are_udms(random_map_sweep):
    entries, elapsed = random_map_sweep
    cptp_ok = all(e["cp"] and e["tp"] for e in entries)
    oracle_worst = max(e["oracle_dev"] for e in entries)
    ok = cptp_ok and oracle_worst <= 1e-10 and elapsed < 10.0
    report(
        4,
        ok,
        f"200 random induced maps CPTP at 1e-8: {cptp_ok}; worst oracle "
        f"deviation={oracle_worst:.2e} (<= 1e-10); runtime={elapsed:.2f} s (< 10 s)",
    )


def test_criterion_05_kraus_reconstruction(random_map_sweep):
    entries, _ = random_map_sweep
    recon_worst = max(e["recon_dev"] for e in entries)
    comp_worst = max(e["comp_dev"] for e in entries)
    ok = recon_worst <= 1e-8 and comp_worst <= 1e-8
    report(
        5,
        ok,
        f"Kraus reconstruction residual={recon_worst:.2e}, completeness "
        f"residual={comp_worst:.2e} (both <= 1e-8) over the same 200 maps",
    )


def test_criterion_06_entangled_instant_and_profile():
    grid = TimeGrid(0.0, 1.0, 100)
    traj = evolve_trajectory(K_CPI, densify(product_state(["+", "+"])), grid)
    hit = find_entangled_instant(traj, tol=1e-6)
    first_positive = grid.times()[1]
    hit_ok = hit is not None and abs(hit[0] - first_positive) < 1e-12 and hit[1] > 1e-6
    profile = entanglement_profile(traj)
    tau_dev = max(
        abs(p.tau - abs(np.exp(-1j * np.pi * t) - 1.0) / 4.0)
        for t, p in zip(grid.times(), profile)
    )
    ok = hit_ok and tau_dev <= 1e-9
    report(
        6,
        ok,
        f"t1 at first positive grid point {first_positive}: {hit_ok}; analytic "
        f"profile deviation={tau_dev:.2e} (<= 1e-9) across 101 points",
    )


def test_criterion_07_no_udm_certificates():
    env = densify(named_state("+"))
    rho_in = densify(product_state(["+", "+"]))

    def certify():
        e_short = induced_map(K_CPI, env, 0.5)
        e_long = induced_map(K_CPI, env, 1.0)
        inter = intermediate_map(e_short, e_long)
        witness = udm_witness_subinterval(K_CPI, rho_in, 0.5, 1.0)
        return inter, witness

    (inter, witness), elapsed = timed(certify)
    # The window is CP-divisible: the coherence factor |cos(pi t / 2)| of
    # qubit 1 is monotone on [0, 1], so the candidate is the dephasing
    # channel with lambda = c(1) / c(0.5) = 0. Only the witness below can
    # show that no map of qubit 1's state alone covers [0.5, 1.0].
    want_superop, want_min, want_cp = diagonal_intermediate_map(
        K_CPI, env.matrix, 0.5, 1.0
    )
    superop_dev = float(np.max(np.abs(inter.candidate.superoperator - want_superop)))
    min_dev = abs(inter.min_choi_eigenvalue - want_min)
    cp_claim = inter.cp == want_cp and superop_dev <= 1e-12 and min_dev <= 1e-12
    witness_claim = witness.trace_distance > 0.1

    k_local = np.kron(np.diag([1.0, -1.0]), np.eye(2)).astype(complex)
    local_inter = intermediate_map(
        induced_map(k_local, env, 0.5), induced_map(k_local, env, 1.0)
    )
    local_witness = udm_witness_subinterval(k_local, rho_in, 0.5, 1.0)
    local_ok = local_inter.cp and local_witness.trace_distance < 1e-9

    ok = cp_claim and witness_claim and local_ok and elapsed < 1.0
    report(
        7,
        ok,
        f"intermediate map cp={inter.cp} (closed form: cp={want_cp}, "
        f"|lambda|={abs(want_superop[1, 1]):.1e}); superoperator deviation="
        f"{superop_dev:.2e}, min eig={inter.min_choi_eigenvalue:.2e} vs "
        f"{want_min:.2e} (both <= 1e-12); yet "
        f"witness D={witness.trace_distance:.4f} (> 0.1): no UDM; "
        f"local-generator control markovian/zero={local_ok}; "
        f"runtime={elapsed * 1e3:.1f} ms",
    )


def test_criterion_08_two_maps_for_two_qubits():
    rho1 = densify(named_state("+"))
    rho2 = densify(named_state("1"))
    e1, e2 = local_pair_maps(K_CPI, rho1, rho2, 1.0)
    distance = float(np.linalg.norm(e1.superoperator - e2.superoperator))
    r1 = reduced_evolution(K_CPI, rho1.matrix, rho2.matrix, 1.0, which=1)
    r2 = reduced_evolution(K_CPI, rho2.matrix, rho1.matrix, 1.0, which=2)
    dev1 = float(np.max(np.abs(apply_map(e1, rho1).matrix - r1)))
    dev2 = float(np.max(np.abs(apply_map(e2, rho2).matrix - r2)))
    ok = distance > 1e-3 and dev1 <= 1e-10 and dev2 <= 1e-10
    report(
        8,
        ok,
        f"asymmetric inputs (+, 1): superoperator distance={distance:.4f} "
        f"(> 1e-3); reduced-dynamics deviations={dev1:.2e}, {dev2:.2e} (<= 1e-10)",
    )


def test_criterion_09_qft_unitary_and_audits():
    residuals = {}
    audits_ok = True
    start = time.perf_counter()
    for n in (2, 3, 4):
        circ = build_qft(n)
        residuals[n] = float(np.linalg.norm(circuit_unitary(circ) - dft_matrix(n)))
        for value in range(2**n):
            amps = np.zeros(2**n)
            amps[value] = 1.0
            _, audit = run_circuit(circ, PureState(amps), tol=1e-9)
            audits_ok = audits_ok and audit.all_separable()
    elapsed = time.perf_counter() - start
    residual_ok = all(r < 1e-9 for r in residuals.values())
    ok = residual_ok and audits_ok and elapsed < 1.0
    report(
        9,
        ok,
        f"DFT residuals n=2..4: {max(residuals.values()):.2e} (< 1e-9); all "
        f"basis-input audits separable: {audits_ok}; runtime={elapsed:.2f} s (< 1 s)",
    )


def test_criterion_10_cli_determinism(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(
        json.dumps(
            {
                "gate": {"name": "cphase", "phi": np.pi},
                "input": ["+", "1"],
                "grid": {"t_start": 0.0, "t_end": 1.0, "steps": 25},
                "t1": 0.5,
                "seed": 42,
            }
        )
    )
    identical = True
    for argv in (
        ["map", "--scenario", str(scenario), "--both-qubits"],
        ["trajectory", "--scenario", str(scenario)],
        ["divisibility", "--scenario", str(scenario)],
        ["analyze-gate", "--scenario", str(scenario)],
        ["qft", "--n", "3", "--seed", "42"],
    ):
        assert cli_main(argv) == 0
        first = capsys.readouterr().out
        assert cli_main(argv) == 0
        second = capsys.readouterr().out
        identical = identical and first.encode() == second.encode()
    with capsys.disabled():
        report(10, identical, "five commands rerun byte-identically with fixed seed")
