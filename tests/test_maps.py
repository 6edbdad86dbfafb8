import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from udmlab import (
    ChoiMatrix,
    DensityMatrix,
    DynamicalMap,
    PureState,
    apply_map,
    choi,
    densify,
    induced_map,
    intermediate_map,
    is_cptp,
    kraus_decompose,
    local_pair_maps,
    named_state,
    partial_trace,
    product_state,
    udm_witness_subinterval,
    unitary_superoperator,
)
from udmlab import maps as maps_mod
from udmlab.gates import equal_up_to_phase
from udmlab.tolerances import DEFAULT
from conftest import (
    correlated_pair,
    diagonal_coherence_factor,
    diagonal_intermediate_map,
    evolve_joint,
    kraus_by_loop,
    partial_trace_by_sums,
    product_correlation,
    random_density,
    random_hermitian,
    random_pure,
    reduced_evolution,
    witness_by_sums,
)

Z = np.diag([1.0, -1.0]).astype(complex)
K_CPI = np.diag([0.0, 0.0, 0.0, np.pi]).astype(complex)
ENV_PLUS = densify(named_state("+"))
ENV_ONE = densify(named_state("1"))


def _dm(superop, which=1, interval=(0.0, 1.0)):
    return DynamicalMap(superop, None, interval, which)


def test_vec_unvec_roundtrip(rng):
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    np.testing.assert_array_equal(maps_mod.unvec(maps_mod.vec(m)), m)
    # column stacking: [[a,b],[c,d]] -> (a, c, b, d)
    np.testing.assert_array_equal(
        maps_mod.vec(np.array([[1, 2], [3, 4]])), [1, 3, 2, 4]
    )


def test_induced_map_identity():
    m = induced_map(np.zeros((4, 4)), ENV_PLUS, 1.0)
    np.testing.assert_allclose(m.superoperator, np.eye(4), atol=1e-12)


def test_induced_map_env_one_is_phase_flip():
    # with the companion fixed in |1>, the control coherence picks up e^{i pi}
    m = induced_map(K_CPI, ENV_ONE, 1.0, which=1)
    np.testing.assert_allclose(m.superoperator, unitary_superoperator(Z), atol=1e-12)


def test_induced_map_env_plus_is_dephasing():
    m = induced_map(K_CPI, ENV_PLUS, 1.0, which=1)
    out = apply_map(m, densify(named_state("+")))
    assert out.purity() < 1.0 - 1e-6
    np.testing.assert_allclose(out.matrix, np.eye(2) / 2, atol=1e-12)


def test_induced_map_matches_joint_evolution_oracle(rng):
    for _ in range(30):
        k = random_hermitian(rng, 4)
        env = DensityMatrix(random_density(rng, 2))
        t = rng.uniform(0.05, 3.0)
        which = int(rng.integers(1, 3))
        m = induced_map(k, env, t, which=which)
        for _ in range(5):
            rho = DensityMatrix(random_density(rng, 2))
            expected = reduced_evolution(k, rho.matrix, env.matrix, t, which)
            np.testing.assert_allclose(apply_map(m, rho).matrix, expected, atol=1e-10)


def test_induced_maps_are_cptp(rng):
    for _ in range(30):
        k = random_hermitian(rng, 4)
        env = DensityMatrix(random_density(rng, 2))
        m = induced_map(k, env, rng.uniform(0.05, 3.0), which=1)
        cp, tp, min_eig = is_cptp(m, tol=1e-8)
        assert cp and tp
        assert min_eig >= -1e-9


def test_apply_map_identity_and_consistency(rng):
    ident = _dm(np.eye(4, dtype=complex))
    rho = DensityMatrix(random_density(rng, 2))
    np.testing.assert_allclose(apply_map(ident, rho).matrix, rho.matrix, atol=1e-15)


def test_choi_of_identity():
    c = choi(_dm(np.eye(4, dtype=complex)))
    np.testing.assert_allclose(c.eigenvalues, [2, 0, 0, 0], atol=1e-12)
    omega = np.zeros((4, 4))
    omega[np.ix_([0, 3], [0, 3])] = 1.0  # 2 |Omega><Omega|
    np.testing.assert_allclose(c.matrix, omega, atol=1e-12)


def test_choi_of_unitary_map_is_rank_one():
    c = choi(_dm(unitary_superoperator(Z)))
    np.testing.assert_allclose(c.eigenvalues, [2, 0, 0, 0], atol=1e-12)


def test_choi_of_depolarizing_map():
    # rho -> tr(rho) * I/2: columns are vec(I/2) against vec of each basis op
    s = np.outer(maps_mod.vec(np.eye(2) / 2), [1, 0, 0, 1])
    c = choi(_dm(s.astype(complex)))
    np.testing.assert_allclose(c.matrix, np.eye(4) / 2, atol=1e-12)


def test_dynamical_map_holds_a_read_only_complex_copy():
    # a list superoperator stayed a list, and is_cptp then raised AttributeError
    transpose = np.eye(4)[[0, 2, 1, 3]]
    assert is_cptp(_dm(transpose.tolist()))[:2] == (False, True)
    given = transpose.astype(complex)
    m = _dm(given)
    assert m.superoperator.dtype == complex and not np.shares_memory(m.superoperator, given)
    with pytest.raises(ValueError, match="read-only"):
        m.superoperator[0, 0] = 2
    given[0, 0] = 2  # the caller's array stays writable, and the map does not see the write
    assert given.flags.writeable and m.superoperator[0, 0] == 1


def test_a_map_holds_one_read_only_choi_matrix():
    # choi built and decomposed the Choi matrix anew for every caller
    m = induced_map(K_CPI, ENV_PLUS, 1.0)
    c = choi(m)
    assert choi(m) is c
    for a in (c.matrix, c.eigenvalues):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0
    assert is_cptp(m)[2] == c.eigenvalues[-1]


def test_a_choi_matrix_derives_its_eigenvalues(monkeypatch):
    # the eigenvalues were a constructor input that kraus_decompose checked one
    # by one and trusted: with the SWAP's listed in ascending order, the
    # transpose map passed the CP test and failed the completeness sum
    assert [f.name for f in fields(ChoiMatrix)] == ["matrix"]
    swap = np.eye(4)[[0, 2, 1, 3]]
    c = ChoiMatrix(swap)
    assert c.matrix.dtype == complex and not np.shares_memory(c.matrix, swap)
    assert c.eigenvalues.tobytes() == np.linalg.eigvalsh(c.matrix)[::-1].tobytes()
    for a in (c.matrix, c.eigenvalues):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0

    depolarizing = ChoiMatrix(np.eye(4) / 2)

    def unexpected(*args, **kwargs):
        raise AssertionError("kraus_decompose trusts its ChoiMatrix")

    monkeypatch.setattr(maps_mod.linalg, "_matrix", unexpected)
    for name in ("_sequence", "_real"):
        monkeypatch.setattr(maps_mod, name, unexpected)
    with pytest.raises(ValueError, match=r"^Choi matrix has negative eigenvalue -1\.0: "):
        kraus_decompose(c)
    assert len(kraus_decompose(depolarizing).operators) == 4


def test_is_cptp_flags_transpose_map():
    # transpose swaps the middle vec components; its Choi is the SWAP matrix
    transpose = np.eye(4)[[0, 2, 1, 3]].astype(complex)
    cp, tp, min_eig = is_cptp(_dm(transpose), tol=1e-7)
    assert not cp
    assert tp
    assert abs(min_eig + 1.0) < 1e-12


def test_kraus_of_identity_map():
    ks = kraus_decompose(choi(_dm(np.eye(4, dtype=complex))))
    assert len(ks.operators) == 1
    assert equal_up_to_phase(ks.operators[0], np.eye(2), tol=1e-10)


def test_kraus_of_dephasing_map_is_diagonal_pair():
    m = induced_map(K_CPI, ENV_PLUS, 1.0)
    ks = kraus_decompose(choi(m))
    assert len(ks.operators) == 2
    for op in ks.operators:
        assert abs(op[0, 1]) < 1e-10 and abs(op[1, 0]) < 1e-10


def test_kraus_of_depolarizing_has_four_operators(rng):
    s = np.outer(maps_mod.vec(np.eye(2) / 2), [1, 0, 0, 1]).astype(complex)
    m = _dm(s)
    ks = kraus_decompose(choi(m))
    assert len(ks.operators) == 4
    np.testing.assert_allclose(ks.weights, [0.5, 0.5, 0.5, 0.5], atol=1e-12)
    rho = DensityMatrix(random_density(rng, 2))
    rebuilt = sum(op @ rho.matrix @ op.conj().T for op in ks.operators)
    np.testing.assert_allclose(rebuilt, np.eye(2) / 2, atol=1e-10)


def test_kraus_reconstruction_and_completeness(rng):
    for _ in range(20):
        k = random_hermitian(rng, 4)
        env = DensityMatrix(random_density(rng, 2))
        m = induced_map(k, env, rng.uniform(0.1, 3.0))
        ks = kraus_decompose(choi(m))
        assert len(ks.operators) <= 4
        completeness = sum(op.conj().T @ op for op in ks.operators)
        assert np.max(np.abs(completeness - np.eye(2))) < 1e-8
        for _ in range(3):
            rho = DensityMatrix(random_density(rng, 2))
            rebuilt = sum(op @ rho.matrix @ op.conj().T for op in ks.operators)
            np.testing.assert_allclose(rebuilt, apply_map(m, rho).matrix, atol=1e-8)


def test_kraus_operators_are_the_per_eigenvalue_loops_byte_for_byte():
    rng = np.random.default_rng(7)
    depolarizing = np.outer(maps_mod.vec(np.eye(2) / 2), [1, 0, 0, 1]).astype(complex)
    maps = [_dm(np.eye(4, dtype=complex)), _dm(depolarizing)]  # ranks 1 and 4
    for i in range(2000):
        # pure and mixed environments, for ranks up to 2 and up to 4, on both qubits
        v = random_pure(rng, 2)
        env = DensityMatrix(np.outer(v, v.conj()) if i % 2 else random_density(rng, 2))
        k, t, which = random_hermitian(rng, 4), rng.uniform(0.1, 3.0), 1 + i // 2 % 2
        maps.append(induced_map(k, env, t, which))
    ranks = set()
    for m in maps:
        ks = kraus_decompose(choi(m))
        ops, weights = kraus_by_loop(choi(m).matrix)
        assert ks.operators.shape == ops.shape and ks.operators.tobytes() == ops.tobytes()
        assert ks.weights.tobytes() == weights.tobytes()
        # the residual the CLI reported and kraus_decompose checked, each with its own sum
        completeness = sum(op.conj().T @ op for op in ops)
        assert ks.completeness_residual == float(np.max(np.abs(completeness - np.eye(2))))
        ranks.add(len(ks.operators))
    assert ranks == {1, 2, 4}


def test_kraus_refuses_non_cp_choi():
    transpose = np.eye(4)[[0, 2, 1, 3]].astype(complex)
    with pytest.raises(ValueError):
        kraus_decompose(choi(_dm(transpose)))


def test_kraus_refuses_an_incomplete_set():
    # twice a valid Choi matrix: the operators are sqrt(2) times a complete
    # set, so their completeness sum is 2 * identity
    c = choi(induced_map(K_CPI, ENV_PLUS, 1.0))
    with pytest.raises(RuntimeError, match="^Kraus completeness sum deviates from identity$"):
        kraus_decompose(ChoiMatrix(2 * c.matrix))


def test_induced_map_refuses_a_map_that_fails_the_cptp_check(monkeypatch):
    # an induced map is CPTP by construction: only a broken map or check fails it
    monkeypatch.setattr(maps_mod, "is_cptp", lambda m, tol: (False, True, -0.5))
    want = r"^induced map failed the CPTP check \(cp=False, tp=True, min eig=-0.5\)$"
    with pytest.raises(RuntimeError, match=want):
        induced_map(K_CPI, ENV_PLUS, 1.0)


def test_intermediate_map_identity_dynamics():
    e_s = induced_map(np.zeros((4, 4)), ENV_PLUS, 0.5)
    e_l = induced_map(np.zeros((4, 4)), ENV_PLUS, 1.0)
    res = intermediate_map(e_s, e_l)
    assert res.cp and not res.indeterminate
    np.testing.assert_allclose(res.candidate.superoperator, np.eye(4), atol=1e-10)


def test_intermediate_map_local_generator_is_divisible(rng):
    # factorized evolution never couples the qubits: always Markovian
    k = np.kron(Z, np.eye(2)) + np.kron(np.eye(2), random_hermitian(rng, 2))
    for t1, t2 in [(0.3, 0.8), (0.5, 1.0), (0.2, 1.7)]:
        e_s = induced_map(k, ENV_PLUS, t1)
        e_l = induced_map(k, ENV_PLUS, t2)
        res = intermediate_map(e_s, e_l)
        assert res.cp and res.short_map_rank == 4


def test_intermediate_map_inside_gate_interval_is_cp():
    # Monotone dephasing: under K = pi|11><11| the coherence factor
    # |cos(pi t / 2)| only shrinks on [0, 1], so dividing the gate interval
    # anywhere keeps the candidate CP (the oracle-computed value; the
    # non-CP regime needs the interval to cross the revival at t = 1).
    e_s = induced_map(K_CPI, ENV_PLUS, 0.5)
    e_l = induced_map(K_CPI, ENV_PLUS, 1.0)
    res = intermediate_map(e_s, e_l)
    assert res.cp
    assert res.min_choi_eigenvalue > -1e-12
    assert res.short_map_rank == 4


def test_intermediate_map_detects_dephasing_revival():
    # crossing the zero of the coherence factor makes the candidate non-CP:
    # the reduced dynamics is not CP-divisible once coherence flows back
    e_s = induced_map(K_CPI, ENV_PLUS, 0.5)
    e_l = induced_map(K_CPI, ENV_PLUS, 1.6)
    res = intermediate_map(e_s, e_l)
    assert not res.cp
    assert res.min_choi_eigenvalue < -1e-3
    assert res.verdict == "not_cp"
    # and the Kraus form does not exist in this regime
    with pytest.raises(ValueError):
        kraus_decompose(choi(res.candidate))
    # the non-CP candidate pushes |+><+| outside the state space; the
    # output validation reports it rather than clamping
    with pytest.raises(ValueError):
        apply_map(res.candidate, densify(named_state("+")))


def test_intermediate_map_reports_rank_deficiency():
    # at t = 1 the dephasing map kills the coherence subspace: rank 2
    e_s = induced_map(K_CPI, ENV_PLUS, 1.0)
    e_l = induced_map(K_CPI, ENV_PLUS, 1.5)
    res = intermediate_map(e_s, e_l)
    assert res.indeterminate
    assert res.short_map_rank == 2
    assert res.verdict == "indeterminate"


def test_dual_certificates_agree_past_the_revival():
    # divisibility failure and the same-marginal witness flag the same window
    res = intermediate_map(
        induced_map(K_CPI, ENV_PLUS, 0.5), induced_map(K_CPI, ENV_PLUS, 1.6)
    )
    w = udm_witness_subinterval(
        K_CPI, densify(product_state(["+", "+"])), 0.5, 1.6
    )
    assert not res.cp
    assert w.trace_distance > 0.1


def test_witness_zero_for_local_generator():
    k = np.kron(Z, np.eye(2))
    w = udm_witness_subinterval(k, densify(product_state(["+", "+"])), 0.5, 1.0)
    assert w.trace_distance < 1e-12
    assert w.correlation_at_t1 < 1e-12


def test_witness_on_cpi_frozen_value():
    # evolved |++> at t=0.5 has marginal coherence (1+i)/4; erasing the
    # correlations and finishing the gate leaves the erased branch with
    # coherence i/4 while the true branch fully dephases: D = 1/4
    w = udm_witness_subinterval(K_CPI, densify(product_state(["+", "+"])), 0.5, 1.0)
    assert abs(w.trace_distance - 0.25) < 1e-12
    assert w.trace_distance > 0.1
    assert w.correlation_at_t1 > 0.1


def test_witness_holds_what_it_measured():
    # the cut and end times are the caller's arguments, not part of the result
    assert [f.name for f in fields(maps_mod.WitnessReport)] == ["trace_distance", "correlation_at_t1"]


def test_witness_vanishes_continuously_at_t1_zero():
    rho = densify(product_state(["+", "+"]))
    previous = 0.0
    for t1 in (1e-3, 1e-2, 1e-1):
        d = udm_witness_subinterval(K_CPI, rho, t1, 1.0).trace_distance
        assert d < 0.1
        assert d > previous
        previous = d
    assert udm_witness_subinterval(K_CPI, rho, 1e-3, 1.0).trace_distance < 1e-2


def test_witness_checks_its_input_at_the_tolerance_it_is_given():
    # c = 8.49e-4: a product state within tol = 1e-3, correlated at 1e-4 and at the default
    amplitudes, c = correlated_pair(6e-4)
    rho = densify(PureState(amplitudes))
    w = udm_witness_subinterval(K_CPI, rho, 0.5, 1.0, tol=1e-3)
    assert w.correlation_at_t1 == pytest.approx(c, rel=1e-9)  # a diagonal gate keeps it
    for tol in (1e-4, DEFAULT.separability):
        with pytest.raises(ValueError, match=f"rho_in is correlated .*= {c:.3g}"):
            udm_witness_subinterval(K_CPI, rho, 0.5, 1.0, tol=tol)


def test_witness_rejects_entangled_input_and_empty_interval():
    bell = np.zeros((4, 4), dtype=complex)
    bell[np.ix_([0, 3], [0, 3])] = 0.5
    with pytest.raises(ValueError):
        udm_witness_subinterval(K_CPI, DensityMatrix(bell), 0.5, 1.0)
    product = densify(product_state(["0", "0"]))
    with pytest.raises(ValueError):
        udm_witness_subinterval(K_CPI, product, 1.0, 0.5)  # empty interval


def test_witness_refuses_a_separable_but_correlated_input():
    # 1/2 (|00><00| + |11><11|) has no negativity, yet it is no product state: c = 1/2
    m = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    assert product_correlation(m) == 0.5
    with pytest.raises(ValueError) as exc:
        udm_witness_subinterval(K_CPI, DensityMatrix(m), 0.5, 1.0)
    assert str(exc.value).startswith("rho_in is correlated (||rho - rho_1 (x) rho_2||_F = 0.5)")
    assert "product state" in str(exc.value) and "environment" in str(exc.value)


@pytest.mark.parametrize("which", [1, 2])
def test_witness_accepts_a_mixed_product_input(rng, which):
    k = random_hermitian(rng, 4)
    rho = np.kron(random_density(rng, 2), random_density(rng, 2))
    assert product_correlation(rho) < 1e-15
    got = udm_witness_subinterval(k, DensityMatrix(rho), 0.4, 1.0, which=which)
    distance, correlation = witness_by_sums(k, rho, 0.4, 1.0, which)
    assert abs(got.trace_distance - distance) < 1e-12
    assert abs(got.correlation_at_t1 - correlation) < 1e-12
    assert got.trace_distance > 1e-3 and got.correlation_at_t1 > 1e-3


def test_witness_of_qubit_2_traces_to_qubit_2(rng):
    # a non-diagonal generator acts differently on the two qubits, so the
    # distance of qubit 2 is its own, recomputed here by kron and explicit sums
    k = random_hermitian(rng, 4)
    rho = densify(product_state(["0", "+"]))
    t1, t_star = 0.4, 1.0
    sigma = evolve_joint(k, rho.matrix, t1)
    erased = np.kron(partial_trace_by_sums(sigma, 1), partial_trace_by_sums(sigma, 2))
    out_true = partial_trace_by_sums(evolve_joint(k, sigma, t_star - t1), 2)
    out_erased = partial_trace_by_sums(evolve_joint(k, erased, t_star - t1), 2)
    want = 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(out_true - out_erased))))
    got = udm_witness_subinterval(k, rho, t1, t_star, which=2).trace_distance
    assert abs(got - want) < 1e-12
    assert abs(got - udm_witness_subinterval(k, rho, t1, t_star).trace_distance) > 1e-3
    with pytest.raises(ValueError, match=r"^which must be in \[1, 2\], got 3$"):
        udm_witness_subinterval(k, rho, t1, t_star, which=3)


def test_local_pair_maps_symmetric_inputs_coincide():
    e1, e2 = local_pair_maps(K_CPI, ENV_PLUS, ENV_PLUS, 1.0)
    np.testing.assert_allclose(e1.superoperator, e2.superoperator, atol=1e-10)


def test_local_pair_maps_asymmetric_inputs_differ():
    e1, e2 = local_pair_maps(K_CPI, densify(named_state("+")), ENV_ONE, 1.0)
    np.testing.assert_allclose(e1.superoperator, unitary_superoperator(Z), atol=1e-12)
    dist = float(np.linalg.norm(e1.superoperator - e2.superoperator))
    assert dist > 1e-3


def test_local_pair_maps_reproduce_reduced_dynamics(rng):
    for _ in range(10):
        k = random_hermitian(rng, 4)
        rho1 = DensityMatrix(random_density(rng, 2))
        rho2 = DensityMatrix(random_density(rng, 2))
        t = rng.uniform(0.1, 2.0)
        e1, e2 = local_pair_maps(k, rho1, rho2, t)
        r1 = reduced_evolution(k, rho1.matrix, rho2.matrix, t, which=1)
        r2 = reduced_evolution(k, rho2.matrix, rho1.matrix, t, which=2)
        np.testing.assert_allclose(apply_map(e1, rho1).matrix, r1, atol=1e-10)
        np.testing.assert_allclose(apply_map(e2, rho2).matrix, r2, atol=1e-10)


def test_generic_pair_maps_differ(rng):
    hits = 0
    for _ in range(10):
        k = random_hermitian(rng, 4)
        e1, e2 = local_pair_maps(
            k,
            DensityMatrix(random_density(rng, 2)),
            DensityMatrix(random_density(rng, 2)),
            1.0,
        )
        if np.linalg.norm(e1.superoperator - e2.superoperator) > 1e-3:
            hits += 1
    assert hits >= 9  # one map cannot serve both qubits in general


def _bloch_state(r):
    """The qubit state (1 + r . sigma) / 2, with r scaled into the unit ball."""
    x, y, z = np.asarray(r) / max(1.0, float(np.linalg.norm(r)))
    return DensityMatrix(np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]]) / 2)


UNIT = st.floats(-1.0, 1.0)
BLOCH = st.lists(UNIT, min_size=3, max_size=3)


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(entries=st.lists(UNIT, min_size=32, max_size=32), r=BLOCH,
       log_share=st.floats(-9.0, -0.01))
def test_induced_maps_within_the_phase_bound_are_cptp(entries, r, log_share):
    a = np.reshape(entries[:16], (4, 4)) + 1j * np.reshape(entries[16:], (4, 4))
    k = a + a.conj().T
    norm = float(np.abs(np.linalg.eigvalsh(k)).max())
    assume(norm > 1e-3)
    # the phase max|eig K| t is the share 10^log_share of the bound reconstruction / eps
    t = 10.0**log_share * DEFAULT.reconstruction / sys.float_info.epsilon / norm
    env = _bloch_state(r)
    for which in (1, 2):
        cp, tp, _ = is_cptp(induced_map(k, env, t, which=which))
        assert cp and tp


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(diagonal=st.lists(st.floats(-4.0, 4.0), min_size=4, max_size=4), r=BLOCH,
       t1=st.floats(0.05, 2.0), gap=st.floats(0.05, 2.0))
def test_diagonal_intermediate_map_is_cp_iff_the_coherence_does_not_grow(diagonal, r, t1, gap):
    k = np.diag(diagonal).astype(complex)
    env = _bloch_state(r)
    t_star = t1 + gap
    c1 = abs(diagonal_coherence_factor(k, env.matrix, t1))
    c_star = abs(diagonal_coherence_factor(k, env.matrix, t_star))
    # E(t1) invertible, and the verdict clear of |c(t*)| = |c(t1)| by more than the CP slack
    assume(c1 > 0.05 and abs(c_star - c1) > 1e-6)
    result = intermediate_map(induced_map(k, env, t1), induced_map(k, env, t_star))
    _, want_min, want_cp = diagonal_intermediate_map(k, env.matrix, t1, t_star)
    assert not result.indeterminate
    assert result.cp == want_cp == (c_star <= c1)
    assert abs(result.min_choi_eigenvalue - want_min) < 1e-8
