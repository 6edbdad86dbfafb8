"""The four workloads: seeded inputs, the timed operation, and its check.

Each workload function takes a numpy Generator and a scratch directory
and returns one round: a list of Ops whose make-up (how many of each
kind, at which sizes) is fixed, while the seed picks the values (phases,
states, cut times, generators). Every run therefore does the same amount
of work on any seed. ``Op.run`` is the timed call into udmlab; ``Op.check`` compares
its result with the reference computations in ``oracle`` and raises
CheckFailed on a mismatch.

udmlab functions are always looked up through their module at call time
(``maps.induced_map(...)``), so that the tracer's wrappers see the calls.
"""
from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from udmlab import circuits, cli, dynamics, gates, maps, states

import oracle

TOL = 1e-9  # agreement required between udmlab and the references
ENTANGLEMENT_TOL = 1e-6  # udmlab's default threshold for find_entangled_instant


class CheckFailed(Exception):
    pass


def expect(cond: bool, msg: str):
    if not cond:
        raise CheckFailed(msg)


def close(got, want, tol: float, what: str):
    dev = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    expect(dev <= tol, f"{what}: deviation {dev:.3g} > {tol:g}")


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]
    # set when the operation fails every time because of a fault in udmlab
    known_fault: str | None = None
    prepare: Callable[[], None] | None = None

    def attempt(self) -> tuple[float, str | None]:
        """Run once; return the time of ``run`` alone and why it failed, if it did."""
        if self.prepare is not None:
            self.prepare()
        t0 = time.perf_counter()
        try:
            res = self.run()
        except Exception as exc:  # noqa: BLE001 - any exception is a failed operation
            return time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        try:
            self.check(res)
        except CheckFailed as exc:
            return dt, str(exc)
        except Exception as exc:  # noqa: BLE001 - output the check cannot even read
            return dt, f"check: {type(exc).__name__}: {exc}"
        return dt, None


def _dm(psi: np.ndarray) -> states.DensityMatrix:
    return states.DensityMatrix(np.outer(psi, psi.conj()))


def _pure(rng) -> np.ndarray:
    return oracle.random_pure(rng, 2)


PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
P_SINGLET = np.outer([0, 1, -1, 0], [0, 1, -1, 0]).astype(complex) / 2.0


# ---------------------------------------------------------------------------
# certify


def _cut_ok(k, env_psi, t1, t_star) -> bool:
    """Cut times whose verdicts sit clear of every tolerance boundary."""
    env = np.outer(env_psi, env_psi.conj())
    s_short = oracle.induced_superop(k, env, t1, 1)
    sv = np.linalg.svd(s_short, compute_uv=False)
    if sv[-1] < 1e-3 * sv[0]:
        return False
    cand = oracle.induced_superop(k, env, t_star, 1) @ np.linalg.inv(s_short)
    min_eig = oracle.choi_eigenvalues(cand)[0]
    return min_eig > -1e-12 or min_eig < -1e-5  # zero up to roundoff, or clearly negative


def _certify_specs(rng) -> list[tuple]:
    """(kind, K, t*, psi1, psi2, t1) per operation of one round."""
    specs = []

    def add(kind, k, t_star, lo=0.15, hi=0.85, extra=None):
        for _ in range(1000):
            psi1, psi2, t1 = _pure(rng), _pure(rng), t_star * rng.uniform(lo, hi)
            if _cut_ok(k, psi2, t1, t_star) and (extra is None or extra(psi2, t1)):
                break
        else:
            raise RuntimeError(f"no inputs clear of the verdict boundaries for {kind}")
        specs.append((kind, k, t_star, psi1, psi2, t1))

    for theta in (0.5 * np.pi, np.pi, 1.5 * np.pi, 2.0 * np.pi, 3.0 * np.pi):
        for _ in range(2):
            def clear_of_boundary(env, t1, theta=theta):
                c1 = abs(oracle.coherence_factor(env, theta, t1))
                cs = abs(oracle.coherence_factor(env, theta, 1.0))
                return c1 > 0.05 and abs(cs - c1) > 1e-3
            add("cphase", oracle.cphase_generator(theta), 1.0, extra=clear_of_boundary)
    # the paper's case: K = pi|11><11| on |++>, cut [0.5, 1.0], witness 1/4
    specs.append(("cphase_fixed", oracle.cphase_generator(np.pi), 1.0, PLUS, PLUS, 0.5))
    for norm in (0.5, 0.5, 1.0, 1.0, 2.0, 2.0, 4.0):
        add("random", oracle.random_hermitian(rng, 4, norm), rng.uniform(0.8, 1.5), lo=0.2, hi=0.8)
    for _ in range(2):
        add("swap", np.pi * P_SINGLET, 1.0, lo=0.2, hi=0.8)
    for _ in range(4):
        a, b = rng.uniform(0.5, 3.0, size=2)
        k = np.diag([0.0, b, a, a + b]).astype(complex)  # a|1><1| (x) 1 + b 1 (x) |1><1|
        add("local", k, 1.0, lo=0.2, hi=0.8)
    return specs


def _certify_op(kind, k, t_star, psi1, psi2, t1, probes) -> Op:
    rho1, rho2 = _dm(psi1), _dm(psi2)
    rho12 = _dm(np.kron(psi1, psi2))

    def run():
        g = gates.gate_from_generator(k, t_star)
        e1, e2 = maps.local_pair_maps(k, rho1, rho2, t_star)
        per_map = []
        for m in (e1, e2):
            verdict = maps.is_cptp(m)
            c = maps.choi(m)
            per_map.append((verdict, c, maps.kraus_decompose(c)))
        e_short = maps.induced_map(k, rho2, t1, which=1)
        inter = maps.intermediate_map(e_short, e1)
        wit = maps.udm_witness_subinterval(k, rho12, t1, t_star)
        return g, e1, e2, per_map, e_short, inter, wit

    def check(res):
        g, e1, e2, per_map, e_short, inter, wit = res
        close(g.unitary, oracle.expm_u(k, t_star), TOL, "gate unitary vs expm")
        env1, env2 = rho1.matrix, rho2.matrix
        for m, env, t, which, name in (
            (e1, env2, t_star, 1, "map of qubit 1"),
            (e2, env1, t_star, 2, "map of qubit 2"),
            (e_short, env2, t1, 1, "map at the cut"),
        ):
            for rho in probes:
                close(oracle.superop_apply(m.superoperator, rho),
                      oracle.reduced_output(k, rho, env, t, which), TOL,
                      f"{name} vs joint evolution")
        for m, env, which, ((cp, tp, _), c, kraus) in zip(
            (e1, e2), (env2, env1), (1, 2), per_map
        ):
            expect(cp and tp, f"induced map of qubit {which} not CPTP")
            own = oracle.induced_superop(k, env, t_star, which)
            close(np.sort(c.eigenvalues), oracle.choi_eigenvalues(own), TOL, "Choi spectrum")
            ops = kraus.operators
            close(sum(op.conj().T @ op for op in ops), np.eye(2), TOL, "Kraus completeness")
            for rho in probes:
                close(sum(op @ rho @ op.conj().T for op in ops),
                      oracle.superop_apply(own, rho), TOL, "Kraus reproduction")
        expect(inter.short_map_rank == 4 and not inter.indeterminate,
               f"short map rank {inter.short_map_rank}, expected 4")
        cond = np.linalg.cond(e_short.superoperator)
        close(inter.candidate.superoperator @ e_short.superoperator, e1.superoperator,
              1e-12 * max(cond, 1e3), "candidate o short map vs long map")
        if kind.startswith("cphase"):
            theta = float(k[3, 3].real)
            want = abs(oracle.coherence_factor(psi2, theta, t_star)) <= abs(
                oracle.coherence_factor(psi2, theta, t1))
            expect(inter.cp == want, f"CP verdict {inter.cp}, closed form {want}")
        else:  # local and SWAP candidates are CP; random ones either way
            s_long = oracle.induced_superop(k, env2, t_star, 1)
            s_short = oracle.induced_superop(k, env2, t1, 1)
            own_min = oracle.choi_eigenvalues(s_long @ np.linalg.inv(s_short))[0]
            expect(inter.cp == (own_min > -1e-9), f"CP verdict {inter.cp}, own min eig {own_min:.3g}")
        own_d = oracle.witness_distance(k, rho12.matrix, t1, t_star)
        close(wit.trace_distance, own_d, TOL, "witness distance")
        if kind == "local":
            expect(wit.trace_distance <= 1e-10, f"witness {wit.trace_distance:.3g} for a local generator")
        if kind == "cphase_fixed":
            close(wit.trace_distance, 0.25, TOL, "witness for pi|11><11| on |++>")

    return Op(kind, run, check)


def certify(rng, tmp: Path) -> list[Op]:
    specs = _certify_specs(rng)
    ops = [_certify_op(*s, [oracle.random_density(rng) for _ in range(3)]) for s in specs]
    return [ops[i] for i in rng.permutation(len(ops))]


# ---------------------------------------------------------------------------
# trajectory

TRAJECTORY_STEPS = 2000


def _trajectory_op(kind, k, psi, t_end, samples) -> Op:
    rho = _dm(psi)
    grid = dynamics.TimeGrid(0.0, t_end, TRAJECTORY_STEPS)

    def run():
        traj = dynamics.evolve_trajectory(k, rho, grid)
        profile = dynamics.entanglement_profile(traj)
        hit = dynamics.find_entangled_instant(traj)
        return traj, profile, hit

    def check(res):
        traj, profile, hit = res
        n = TRAJECTORY_STEPS + 1
        expect(len(traj.joint_states) == n and len(profile) == n, "wrong number of grid points")
        mats = np.array([s.matrix for s in traj.joint_states])
        purity = np.einsum("tij,tji->t", mats, mats).real
        close(purity, 1.0, TOL, "purity along the grid")
        t = np.array([p.t for p in profile])
        close(t, np.linspace(0.0, t_end, n), 1e-12, "grid times")
        close([p.purity for p in profile], purity, TOL, "profile purity")
        # own pure-state evolution, chained steps of one expm
        step = oracle.expm_u(k, t_end / TRAJECTORY_STEPS)
        psis = np.empty((n, 4), dtype=complex)
        psis[0] = psi
        for i in range(1, n):
            psis[i] = step @ psis[i - 1]
        own_neg = oracle.pure_negativity(psis)
        neg = np.array([p.negativity for p in profile])
        close(neg, own_neg, TOL, "negativity vs own evolution")
        expect(all(p.tau is not None for p in profile), "tau missing on a pure trajectory")
        close([p.tau for p in profile], own_neg, TOL, "tau vs own evolution")
        if kind == "cphase_plus":
            close(neg, np.abs(np.sin(k[3, 3].real * t / 2.0)) / 2.0, TOL,
                  "negativity vs |sin(theta t/2)|/2")
        for i in samples:
            u = oracle.expm_u(k, t[i])
            close(mats[i], u @ rho.matrix @ u.conj().T, TOL, f"state at t={t[i]:.4g} vs expm")
        above = np.flatnonzero(own_neg > ENTANGLEMENT_TOL)
        if above.size == 0:
            expect(hit is None, "entangled instant reported where there is none")
        else:
            expect(hit is not None and hit[0] == t[above[0]],
                   f"first entangled instant {hit}, expected t={t[above[0]]}")

    return Op("trajectory", run, check)  # one code path: one warm-up


def trajectory(rng, tmp: Path) -> list[Op]:
    def product():
        return np.kron(_pure(rng), _pure(rng))

    def entangled():
        return oracle.random_pure(rng, 4)

    specs = [("cphase_plus", oracle.cphase_generator(rng.uniform(0.5, 2.0) * np.pi), np.kron(PLUS, PLUS))
             for _ in range(3)]
    specs.append(("cphase", oracle.cphase_generator(rng.uniform(0.5, 2.0) * np.pi), product()))
    specs.append(("cphase", oracle.cphase_generator(rng.uniform(0.5, 2.0) * np.pi), entangled()))
    specs += [("random", oracle.random_hermitian(rng, 4, 2.0), product()) for _ in range(2)]
    specs.append(("random", oracle.random_hermitian(rng, 4, 2.0), entangled()))
    ops = [
        _trajectory_op(kind, k, psi, rng.uniform(1.0, 2.0),
                       rng.choice(TRAJECTORY_STEPS + 1, size=8, replace=False))
        for kind, k, psi in specs
    ]
    return [ops[i] for i in rng.permutation(len(ops))]


# ---------------------------------------------------------------------------
# qft_audit

QFT_RUNS = {4: 2, 5: 2, 6: 2, 7: 4, 8: 14}  # run_circuit operations per size
QFT_UNITARY = {8: 2}  # circuit_unitary operations per size


def _qft_run_op(circuit, n, amps, basis: bool) -> Op:
    psi = states.PureState(amps)
    own = []  # the reference simulation, made at the first check

    def run():
        return circuits.run_circuit(circuit, psi)

    def check(res):
        out, audit = res
        if not own:
            own.extend(oracle.qft_audit(n, amps))
        own_out, own_records = own
        close(out.amplitudes, np.sqrt(2**n) * np.fft.ifft(amps), 1e-10, "output vs sqrt(N) ifft")
        close(out.amplitudes, own_out, 1e-10, "output vs own simulation")
        got = [(r.position, r.name, r.qubits) for r in audit.records]
        expect(got == [r[:3] for r in own_records], "audit covers other blocks than the QFT's")
        close([(r.negativity_in, r.negativity_out) for r in audit.records],
              [r[3:] for r in own_records], TOL, "block negativities")
        if basis:
            expect(audit.all_separable(), "a block is entangled on a basis input")

    return Op(f"run_circuit_n{n}", run, check)


def _qft_unitary_op(circuit, n) -> Op:
    def run():
        return circuits.circuit_unitary(circuit)

    def check(u):
        close(u, oracle.dft(n), 1e-10, "circuit unitary vs closed-form DFT")

    return Op(f"circuit_unitary_n{n}", run, check)


def qft_audit(rng, tmp: Path) -> list[Op]:
    built = {n: circuits.build_qft(n) for n in sorted(set(QFT_RUNS) | set(QFT_UNITARY))}
    ops = []
    for n, count in QFT_RUNS.items():
        for i in range(count):
            if i % 2 == 0:
                amps = np.zeros(2**n, dtype=complex)
                amps[rng.integers(2**n)] = 1.0
            else:
                amps = np.array([1.0 + 0j])
                for _ in range(n):
                    amps = np.kron(amps, _pure(rng))
            ops.append(_qft_run_op(built[n], n, amps, basis=i % 2 == 0))
    for n, count in QFT_UNITARY.items():
        ops += [_qft_unitary_op(built[n], n) for _ in range(count)]
    return [ops[i] for i in rng.permutation(len(ops))]


# ---------------------------------------------------------------------------
# cli


def _amps_json(v) -> dict:
    return {"amplitudes": [[float(z.real), float(z.imag)] for z in v]}


def _matrix_json(m) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _input_vector(scenario: dict) -> np.ndarray:
    spec = scenario["input"]
    if isinstance(spec, dict):
        v = np.array([complex(*z) for z in spec["amplitudes"]])
        return v / np.linalg.norm(v)
    named = {"0": np.array([1, 0], dtype=complex), "1": np.array([0, 1], dtype=complex), "+": PLUS}
    v = np.array([1.0 + 0j])
    for s in spec:
        v = np.kron(v, named[s])
    return v


def _generator(scenario: dict) -> np.ndarray:
    """The generator a scenario asks for, as udmlab documents it: the
    principal one, eigenphases of K t* in (-pi, pi] (every phi here lies
    inside (0, pi))."""
    if "generator" in scenario:
        return np.array(scenario["generator"]["matrix"], dtype=float).view(complex)[..., 0]
    theta = -float(scenario["gate"]["phi"])
    if scenario["gate"]["name"] == "local-phase":
        return np.diag([0.0, theta, 0.0, theta]).astype(complex)
    return oracle.cphase_generator(theta)


def _env_amps(psi: np.ndarray) -> np.ndarray:
    """Moduli of qubit 2's amplitudes in a product state: all that the
    coherence factor depends on."""
    rho = np.outer(psi, psi.conj())
    return np.sqrt(np.diag(oracle.ptrace(rho, 2)).real)


def _from_csv(text: str) -> tuple[list[str], np.ndarray]:
    lines = text.splitlines()
    rows = [[float(x) if x else np.nan for x in line.split(",")] for line in lines[1:]]
    return lines[0].split(","), np.array(rows)


def _check_analyze(scenario, report, files, rank):
    k = _generator(scenario)
    u = np.array(report["unitary"]).view(complex)[..., 0]
    close(u, oracle.expm_u(k, 1.0), 1e-12 if "gate" in scenario else TOL, "unitary")
    expect(report["operator_schmidt_rank"] == rank,
           f"operator Schmidt rank {report['operator_schmidt_rank']}, expected {rank}")
    expect(report["entangling"] == (rank > 1), "entangling flag disagrees with the rank")


def _check_trajectory(scenario, report, files):
    header, rows = _from_csv(files[".csv"])
    expect(header == ["t", "negativity", "tau", "purity"], f"CSV header {header}")
    expect(rows.shape[0] == report["grid"]["steps"] + 1, "CSV rows != steps + 1")
    t = rows[:, 0]
    close(t, np.linspace(0.0, 1.0, 101), 1e-14, "CSV times")
    k = _generator(scenario)
    psi = _input_vector(scenario)
    own = oracle.pure_negativity(np.array([oracle.expm_u(k, ti) @ psi for ti in t]))
    close(rows[:, 1], own, TOL, "CSV negativity vs expm evolution")
    close(rows[:, 2], own, TOL, "CSV tau vs expm evolution")
    close(rows[:, 3], 1.0, TOL, "CSV purity")
    if "gate" in scenario and scenario["input"] == ["+", "+"]:
        close(rows[:, 1], np.abs(np.sin(k[3, 3].real * t / 2.0)) / 2.0, TOL,
              "negativity vs |sin(theta t/2)|/2")
    first = t[np.flatnonzero(own > ENTANGLEMENT_TOL)[0]]
    close(report["t1"], first, 1e-14, "reported t1")


def _check_map_report(m, k, env, which):
    expect(m["cp"] and m["tp"], "induced map not CPTP")
    expect(m["which_qubit"] == which, f"which_qubit {m['which_qubit']}")
    own = oracle.induced_superop(k, env, 1.0, which)
    close(np.array(m["superoperator"]).view(complex)[..., 0], own, TOL, "superoperator")
    close(sorted(m["choi_eigenvalues"]), oracle.choi_eigenvalues(own), TOL, "Choi spectrum")
    expect(m["kraus_count"] <= 2, "more than 2 Kraus operators with a pure environment")
    expect(m["kraus_reconstruction_residual"] <= TOL, "Kraus reconstruction residual")
    expect(m["kraus_completeness_residual"] <= TOL, "Kraus completeness residual")


def _marginals(psi):
    rho = np.outer(psi, psi.conj())
    return oracle.ptrace(rho, 1), oracle.ptrace(rho, 2)


def _check_map(scenario, report, files):
    k = _generator(scenario)
    m1, m2 = _marginals(_input_vector(scenario))
    if "map_qubit1" in report:
        _check_map_report(report["map_qubit1"], k, m2, 1)
        _check_map_report(report["map_qubit2"], k, m1, 2)
    else:
        which = scenario.get("which_qubit", 1)
        _check_map_report(report["map"], k, m2 if which == 1 else m1, which)


def _check_divisibility(scenario, report, files):
    k = _generator(scenario)
    psi = _input_vector(scenario)
    t1 = scenario["t1"]
    env = _env_amps(psi)
    theta = k[3, 3].real
    want = abs(oracle.coherence_factor(env, theta, 1.0)) <= abs(oracle.coherence_factor(env, theta, t1))
    inter = report["intermediate_map"]
    expect(inter["cp"] == want, f"CP verdict {inter['cp']}, closed form {want}")
    expect(inter["short_map_rank"] == 4, "short map rank")
    own = oracle.witness_distance(k, np.outer(psi, psi.conj()), t1, 1.0)
    close(report["witness"]["trace_distance"], own, TOL, "witness distance")


def _check_qft(scenario, report, files):
    n = report["n_qubits"]
    psi = _input_vector(scenario)
    expect(report["gate_count"] == n + n * (n - 1) // 2 + n // 2, "gate count")
    out = np.array(report["output_amplitudes"]).view(complex)[..., 0]
    close(out, np.sqrt(2**n) * np.fft.ifft(psi), 1e-12, "output vs sqrt(N) ifft")
    expect(report["dft_residual"] <= 1e-10, f"dft_residual {report['dft_residual']}")
    _, own_records = oracle.qft_audit(n, psi)
    close([(r["negativity_in"], r["negativity_out"]) for r in report["audit"]],
          [r[3:] for r in own_records], TOL, "block negativities")
    expect(len(files[".csv"].splitlines()) == len(own_records) + 1, "CSV rows != blocks + 1")
    if isinstance(scenario["input"], list):
        expect(report["all_separable"], "a block is entangled on a basis input")


class _CliOp:
    """One ``udmlab.cli.main(argv)`` call, in-process, outputs captured.

    The first run (in warm-up) is the reference; every later run of the
    same argv must reproduce its exit code, stdout, stderr and files byte
    for byte.
    """

    def __init__(self, tmp: Path, idx: int, command: str, scenario: dict, extra: list,
                 expect_code: int, checker=None, known_fault: str | None = None):
        self.scenario = scenario
        path = tmp / f"scenario{idx:02d}.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        self.out = tmp / f"report{idx:02d}.json"
        self.argv = [command, "--scenario", str(path), "--out", str(self.out)] + extra
        self.expect_code = expect_code
        self.checker = checker
        self.reference = None
        self.op = Op(f"cli_{command}", self.run, self.check, known_fault, self.prepare)

    def prepare(self):
        for p in (self.out, self.out.with_suffix(".csv")):
            p.unlink(missing_ok=True)

    def run(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(self.argv)
        return code, out.getvalue(), err.getvalue()

    def check(self, res):
        files = {p.suffix: p.read_text(encoding="utf-8")
                 for p in (self.out, self.out.with_suffix(".csv")) if p.exists()}
        outcome = (res, files)
        if self.reference is None:
            self.reference = outcome
        expect(outcome == self.reference, "output differs from the first run of the same argv")
        code, stdout, _ = res
        expect(code == self.expect_code, f"exit code {code}, expected {self.expect_code}")
        if self.checker is not None:
            self.checker(self.scenario, json.loads(stdout), files)


def cli_corpus(rng, tmp: Path) -> list[Op]:
    cases = []

    def phi():
        return float(rng.uniform(0.4, 2.9))

    def cphase(**kw):
        return {"gate": {"name": "cphase", "phi": phi()}, **kw}

    def generator(norm):
        return {"generator": {"matrix": _matrix_json(oracle.random_hermitian(rng, 4, norm))}}

    def product():
        return _amps_json(np.kron(_pure(rng), _pure(rng)))

    for _ in range(2):
        cases.append(("analyze-gate", cphase(), [], 0,
                      lambda s, r, f: _check_analyze(s, r, f, 2)))
    local = {"gate": {"name": "local-phase", "phi": phi()}}
    cases.append(("analyze-gate", local, [], 0, lambda s, r, f: _check_analyze(s, r, f, 1)))
    cases.append(("analyze-gate", generator(2.0), [], 0, lambda s, r, f: _check_analyze(s, r, f, 4)))
    for _ in range(2):
        cases.append(("trajectory", cphase(input=["+", "+"]), [], 0, _check_trajectory))
    cases.append(("trajectory", {**generator(2.0), "input": product()}, [], 0, _check_trajectory))
    cases.append(("map", cphase(input=product()), ["--both-qubits"], 0, _check_map))
    cases.append(("map", {**generator(1.0), "input": product()}, ["--both-qubits"], 0, _check_map))
    cases.append(("map", cphase(input=product(), which_qubit=2), [], 0, _check_map))
    for _ in range(2):
        for _ in range(1000):  # a cut whose CP verdict sits clear of the boundary
            s = cphase(input=product(), t1=float(rng.uniform(0.2, 0.8)))
            env, theta = _env_amps(_input_vector(s)), _generator(s)[3, 3].real
            c1 = abs(oracle.coherence_factor(env, theta, s["t1"]))
            cs = abs(oracle.coherence_factor(env, theta, 1.0))
            if c1 > 0.05 and abs(c1 - cs) > 1e-3:
                break
        else:
            raise RuntimeError("no divisibility scenario clear of the verdict boundary")
        cases.append(("divisibility", s, [], 0, _check_divisibility))
    for n in range(2, 7):
        if n % 2 == 0:
            inp = [str(b) for b in rng.integers(0, 2, size=n)]
        else:
            v = np.array([1.0 + 0j])
            for _ in range(n):
                v = np.kron(v, _pure(rng))
            inp = _amps_json(v)
        cases.append(("qft", {"input": inp}, ["--n", str(n)], 0, _check_qft))
    # malformed scenarios, fixed whatever the seed; the correct outcome is exit 2
    cases.append(("analyze-gate", {"gate": {"name": "toffoli"}}, [], 2, None))
    bell = _amps_json(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2.0))
    cases.append(("map", {"gate": {"name": "cphase", "phi": 1.05}, "input": bell}, [], 2, None))
    null_cases = [
        ("trajectory", {"gate": {"name": "cphase", "phi": 1.1}, "input": ["+", "0"], "grid": {"steps": None}}),
        ("trajectory", {"gate": {"name": "cphase", "phi": 1.2}, "input": ["0", "+"], "grid": {"t_end": None}}),
        ("analyze-gate", {"gate": {"name": "cphase", "phi": None}}),
        ("map", {"gate": {"name": "cphase", "phi": 1.3}, "input": ["+", "1"], "which_qubit": None}),
        ("divisibility", {"gate": {"name": "cphase", "phi": 1.4}, "input": ["1", "+"], "t1": None}),
    ]
    ops = [_CliOp(tmp, i, *case).op for i, case in enumerate(cases)]
    for j, (command, scenario) in enumerate(null_cases, start=len(ops)):
        ops.append(_CliOp(tmp, j, command, scenario, [], 2, None,
                          known_fault="typed null exits 3 (internal error), not 2").op)
    return [ops[i] for i in rng.permutation(len(ops))]


WORKLOADS = {
    "certify": certify,
    "trajectory": trajectory,
    "qft_audit": qft_audit,
    "cli": cli_corpus,
}
