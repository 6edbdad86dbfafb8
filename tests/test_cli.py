import argparse
import contextlib
import copy
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import udmlab
from udmlab import cli, dynamics, gates, maps, states
from udmlab.circuits import AuditRecord
from udmlab.cli import main
from udmlab.dynamics import ProfilePoint
from udmlab.tolerances import DEFAULT
from conftest import (
    OVERFLOWING_GENERATOR,
    SWAP,
    correlated_pair,
    plain,
    product_correlation,
    random_hermitian,
    random_pure,
    report_json,
    traced_peak,
)


@pytest.fixture
def scenario_file(tmp_path):
    def write(data, name="scenario.json"):
        path = tmp_path / name
        path.write_text(data if isinstance(data, str) else json.dumps(data))
        return str(path)

    return write


CPI = {"name": "cphase", "phi": np.pi}
# the tables the CLI's gate.name and input[i] refusals quote
GATE_NAMES = "['cphase', 'identity', 'local-phase', 'swap']"
STATE_NAMES = "['+', '+i', '-', '-i', '0', '1']"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_gate_report(scenario_file, capsys):
    path = scenario_file({"gate": {"name": "cphase", "phi": np.pi / 2}})
    code, out, _ = run(capsys, "analyze-gate", "--scenario", path)
    assert code == 0
    report = json.loads(out)
    assert report["entangling"] is True
    assert report["operator_schmidt_rank"] == 2
    assert report["tolerances"]["cp"] == 1e-7
    # unitary corner entry is e^{i pi/2} = i as an [re, im] pair
    assert abs(report["unitary"][3][3][1] - 1.0) < 1e-12


def test_analyze_gate_local_phase_not_entangling(scenario_file, capsys):
    path = scenario_file({"gate": {"name": "local-phase", "phi": 0.8}})
    code, out, _ = run(capsys, "analyze-gate", "--scenario", path)
    assert code == 0
    report = json.loads(out)
    assert report["entangling"] is False
    assert report["operator_schmidt_rank"] == 1


def test_analyze_gate_rejects_one_qubit(scenario_file, capsys):
    path = scenario_file({"gate": {"name": "x"}})
    code, _, err = run(capsys, "analyze-gate", "--scenario", path)
    assert code == 2
    assert err == f"error: gate.name must be one of {GATE_NAMES}, got 'x'\n"


@pytest.mark.parametrize(
    "name, want",
    [
        ("cphase", lambda phi, t: gates.c_phase(phi, t).unitary),
        ("local-phase", lambda phi, t: gates.local_phase(phi, t).unitary),
        ("swap", lambda phi, t: SWAP),
        ("identity", lambda phi, t: np.eye(4)),
    ],
)
def test_every_named_gate_builds_its_gate(name, want):
    # one table of names and builders: a name without its own branch built the identity
    assert list(cli._NAMED_GATES) == ["cphase", "local-phase", "swap", "identity"]
    for phi, t in [(0.7, 1.0), (2.1, 0.4)]:
        g = cli._gate_from_scenario({"gate": {"name": name, "phi": phi, "duration": t}}, DEFAULT)
        assert g.duration == t and g.n_qubits == 2
        np.testing.assert_allclose(g.unitary, want(phi, t), atol=1e-12)


@pytest.mark.parametrize("name", ["cphase", "local-phase"])
def test_a_phase_gate_without_phi_is_refused_after_its_duration(name):
    with pytest.raises(ValueError, match="^gate.phi must be a finite number, got None$"):
        cli._gate_from_scenario({"gate": {"name": name}}, DEFAULT)
    with pytest.raises(ValueError, match="^gate.duration must be finite and > 0, got -1$"):
        cli._gate_from_scenario({"gate": {"name": name, "duration": -1}}, DEFAULT)


def test_trajectory_csv_and_summary(scenario_file, capsys, tmp_path):
    path = scenario_file(
        {"gate": CPI, "input": ["+", "+"], "grid": {"t_start": 0, "t_end": 1, "steps": 10}}
    )
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "trajectory", "--scenario", path, "--out", str(out_path))
    assert code == 0
    report = json.loads(out)
    assert abs(report["t1"] - 0.1) < 1e-12
    assert out_path.read_text() == out
    csv_lines = (tmp_path / "report.csv").read_text().splitlines()
    assert csv_lines[0] == "t,negativity,tau,purity"
    assert len(csv_lines) == 12  # header + 11 grid points


def test_csv_writes_the_tau_of_a_mixed_joint_state_as_an_empty_cell():
    k, mixed = np.diag([0.0, 0.0, 0.0, np.pi]), states.DensityMatrix(np.eye(4) / 4)
    traj = dynamics.evolve_trajectory(k, mixed, dynamics.TimeGrid(0, 1, 2))
    profile = dynamics.entanglement_profile(traj)
    assert [p.tau for p in profile] == [None] * 3
    assert cli._csv(profile) == "t,negativity,tau,purity\n0,0,,0.25\n0.5,0,,0.25\n1,0,,0.25\n"


def test_trajectory_identity_has_no_t1(scenario_file, capsys):
    path = scenario_file({"gate": {"name": "identity"}, "input": ["+", "+"]})
    code, out, _ = run(capsys, "trajectory", "--scenario", path)
    assert code == 0
    assert json.loads(out)["t1"] is None


def test_trajectory_basis_input_has_no_t1(scenario_file, capsys):
    path = scenario_file({"gate": CPI, "input": ["0", "1"]})
    code, out, _ = run(capsys, "trajectory", "--scenario", path)
    assert code == 0
    assert json.loads(out)["t1"] is None


def test_map_report(scenario_file, capsys):
    path = scenario_file({"gate": CPI, "input": ["+", "+"]})
    code, out, _ = run(capsys, "map", "--scenario", path)
    assert code == 0
    report = json.loads(out)["map"]
    assert report["cp"] is True and report["tp"] is True
    assert report["kraus_count"] == 2
    assert report["kraus_reconstruction_residual"] < 1e-8


def test_map_identity_scenario(scenario_file, capsys):
    path = scenario_file({"gate": {"name": "identity"}, "input": ["+", "1"]})
    code, out, _ = run(capsys, "map", "--scenario", path)
    assert code == 0
    superop = json.loads(out)["map"]["superoperator"]
    got = np.array([[complex(re, im) for re, im in row] for row in superop])
    np.testing.assert_allclose(got, np.eye(4), atol=1e-12)


def test_map_both_qubits_asymmetric(scenario_file, capsys):
    path = scenario_file({"gate": CPI, "input": ["+", "1"]})
    code, out, _ = run(capsys, "map", "--scenario", path, "--both-qubits")
    assert code == 0
    report = json.loads(out)
    assert report["superoperator_distance"] > 1e-3
    assert report["map_qubit1"]["cp"] and report["map_qubit2"]["cp"]


def test_map_rejects_entangled_input(scenario_file, capsys):
    s = 1 / np.sqrt(2)
    path = scenario_file(
        {"gate": CPI, "input": {"amplitudes": [[s, 0], [0, 0], [0, 0], [s, 0]]}}
    )
    code, _, err = run(capsys, "map", "--scenario", path)
    assert code == 2
    assert "product state" in err and "environment" in err


@pytest.mark.parametrize("tau, want", [(8e-4, 2), (6e-4, 0)])
def test_product_input_is_decided_by_its_correlation(tau, want, scenario_file, capsys):
    # the rule bounds c = ||rho - rho_1 (x) rho_2||_F = tau sqrt(2 + 4 tau^2), not tau:
    # at tau = 8e-4 the correlation 1.131e-3 exceeds the tolerance 1e-3
    amplitudes, c = correlated_pair(tau)
    assert abs(product_correlation(np.outer(amplitudes, amplitudes)) - c) < 1e-15
    scenario = {"gate": CPI, "input": {"amplitudes": amplitudes},
                "tolerances": {"separability": 1e-3}}
    code, out, err = run(capsys, "map", "--scenario", scenario_file(scenario))
    assert code == want, err
    if want == 2:
        assert out == ""
        assert err.startswith(f"error: input is correlated (||rho - rho_1 (x) rho_2||_F = {c:.3g})")
        assert "product state" in err and "environment" in err


def test_divisibility_checks_the_input_at_the_reports_tolerance(scenario_file, capsys):
    # c = 8.49e-4 passes the scenario's separability tolerance 1e-3; the witness
    # must check it against the same tolerance, not the default 1e-9
    amplitudes, c = correlated_pair(6e-4)
    scenario = {"gate": CPI, "input": {"amplitudes": amplitudes}, "t1": 0.5,
                "tolerances": {"separability": 1e-3}}
    code, out, err = run(capsys, "divisibility", "--scenario", scenario_file(scenario))
    assert code == 0, err
    rho = states.densify(states.PureState(amplitudes))
    want = maps.udm_witness_subinterval(gates.c_phase(np.pi).generator, rho, 0.5, 1.0, tol=1e-3)
    got = json.loads(out)["witness"]
    assert got["correlation_at_t1"] == pytest.approx(want.correlation_at_t1, rel=1e-12)
    assert got["trace_distance"] == pytest.approx(want.trace_distance, abs=1e-15)


def test_divisibility_inside_gate(scenario_file, capsys):
    path = scenario_file({"gate": CPI, "input": ["+", "+"], "t1": 0.5})
    code, out, _ = run(capsys, "divisibility", "--scenario", path)
    assert code == 0
    report = json.loads(out)
    # CP-divisible inside [0,1], but the witness still sees the correlated
    # intermediate state: non-markovian per the disjunction rule
    assert report["intermediate_map"]["cp"] is True
    assert report["witness"]["trace_distance"] > 0.1
    assert report["verdict"] == "non-markovian"


def test_divisibility_reports_cp_divisibility_and_the_witness_apart(scenario_file, capsys):
    # the window [0.5, 1] of CPHASE(pi) on |++> is CP-divisible (the candidate is
    # full dephasing), while the same-marginal witness reads D = 1/4
    path = scenario_file({"gate": CPI, "input": ["+", "+"], "t1": 0.5, "grid": {"t_end": 1.0}})
    code, out, _ = run(capsys, "divisibility", "--scenario", path)
    assert code == 0
    report = json.loads(out)
    assert report["cp_divisible"] is True
    assert report["state_independent_map"] is False
    assert report["verdict"] == "non-markovian"
    assert list(report)[-3:] == ["cp_divisible", "state_independent_map", "verdict"]


def test_divisibility_local_generator_markovian(scenario_file, capsys):
    path = scenario_file(
        {
            "generator": {"matrix": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]},
            "input": ["+", "+"],
            "t1": 0.5,
        }
    )
    code, out, _ = run(capsys, "divisibility", "--scenario", path)
    assert code == 0
    report = json.loads(out)
    assert report["intermediate_map"]["cp"] is True
    assert report["witness"]["trace_distance"] < 1e-9
    assert report["verdict"] == "markovian"


def test_divisibility_past_revival_non_cp(scenario_file, capsys):
    path = scenario_file(
        {
            "gate": CPI,
            "input": ["+", "+"],
            "grid": {"t_start": 0, "t_end": 1.6},
            "t1": 0.5,
        }
    )
    code, out, _ = run(capsys, "divisibility", "--scenario", path)
    assert code == 0
    report = json.loads(out)
    assert report["intermediate_map"]["cp"] is False
    assert report["intermediate_map"]["min_choi_eigenvalue"] < -1e-3
    assert report["verdict"] == "non-markovian"


def test_divisibility_rejects_boundary_t1(scenario_file, capsys):
    path = scenario_file({"gate": CPI, "input": ["+", "+"], "t1": 1.0})
    code, _, err = run(capsys, "divisibility", "--scenario", path)
    assert code == 2
    assert err == "error: t1 must be finite and in (0.0, 1.0), got 1.0\n"


def test_divisibility_indeterminate_on_singular_short_map(scenario_file, capsys):
    # at t1 = 1 the dephasing to |+> has erased the coherence subspace, so
    # the short map is rank 2 and the composition is not trustworthy
    path = scenario_file(
        {"gate": CPI, "input": ["+", "+"], "grid": {"t_start": 0, "t_end": 1.5}, "t1": 1.0}
    )
    code, out, _ = run(capsys, "divisibility", "--scenario", path)
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "indeterminate"
    assert report["intermediate_map"]["short_map_rank"] == 2


def test_qft_report_and_csv(capsys, tmp_path):
    out_path = tmp_path / "qft.json"
    code, out, _ = run(capsys, "qft", "--n", "3", "--out", str(out_path))
    assert code == 0
    report = json.loads(out)
    assert report["n_qubits"] == 3
    assert report["dft_residual"] < 1e-9
    assert report["all_separable"] is True
    csv_lines = (tmp_path / "qft.csv").read_text().splitlines()
    assert csv_lines[0].startswith("position,name,qubits")
    assert len(csv_lines) == 1 + len(report["audit"])


def test_qft_bell_input_flags_entanglement(scenario_file, capsys):
    s = 1 / np.sqrt(2)
    path = scenario_file(
        {"n_qubits": 2, "input": {"amplitudes": [[s, 0], [0, 0], [0, 0], [s, 0]]}}
    )
    code, out, _ = run(capsys, "qft", "--scenario", path)
    assert code == 0
    report = json.loads(out)
    first = report["audit"][0]
    assert first["name"] == "CPHASE"
    assert first["separable_in"] is False
    assert abs(first["negativity_in"] - 0.5) < 1e-9


def test_qft_out_of_range_exits_2(capsys):
    code, _, err = run(capsys, "qft", "--n", "9")
    assert code == 2
    assert "error" in err


def test_missing_scenario_file_exits_2(capsys):
    code, _, err = run(capsys, "map", "--scenario", "/does/not/exist.json")
    assert code == 2


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "map", "--scenario", str(path))
    assert code == 2
    assert "line" in err  # json error messages carry the position


def test_unknown_tolerance_name_exits_2(scenario_file, capsys):
    path = scenario_file({"gate": CPI, "input": ["+", "+"], "tolerances": {"bogus": 1}})
    code, _, err = run(capsys, "map", "--scenario", path)
    assert code == 2
    names = "['cp', 'entanglement', 'hermiticity', 'pinv_cutoff', 'positivity', " \
        "'reconstruction', 'separability', 'unitarity']"
    assert err == f"error: tolerances key must be one of {names}, got 'bogus'\n"


def test_env_tolerance_override_is_echoed(scenario_file, capsys, monkeypatch):
    path = scenario_file({"gate": {"name": "cphase", "phi": np.pi / 2}})
    monkeypatch.setenv("UDMLAB_TOL_OVERRIDE", '{"cp": 1e-06}')
    code, out, _ = run(capsys, "analyze-gate", "--scenario", path)
    assert code == 0
    report = json.loads(out)
    assert report["env_tol_override"] == {"cp": 1e-06}
    assert report["tolerances"]["cp"] == 1e-06
    # the echo is the user's value; the tolerances show the 15-digit report form
    monkeypatch.setenv("UDMLAB_TOL_OVERRIDE", '{"cp": 1.2345678901234567e-06}')
    code, out, _ = run(capsys, "analyze-gate", "--scenario", path)
    assert code == 0
    report = json.loads(out)
    assert report["env_tol_override"] == {"cp": 1.2345678901234567e-06}
    assert '"cp": 1.2345678901234567e-06' in out
    assert report["tolerances"]["cp"] == 1.23456789012346e-06


def test_tol_cp_flag_overrides(scenario_file, capsys):
    path = scenario_file({"gate": CPI, "input": ["+", "+"]})
    code, out, _ = run(capsys, "map", "--scenario", path, "--tol-cp", "1e-5")
    assert code == 0
    assert json.loads(out)["tolerances"]["cp"] == 1e-5


def test_seed_flag_overrides_scenario(scenario_file, capsys):
    path = scenario_file({"gate": CPI, "input": ["+", "+"], "seed": 3})
    code, out, _ = run(capsys, "map", "--scenario", path, "--seed", "11")
    assert code == 0
    assert json.loads(out)["seed"] == 11


def test_steps_flag_overrides_grid(scenario_file, capsys):
    path = scenario_file(
        {"gate": CPI, "input": ["+", "+"], "grid": {"t_start": 0, "t_end": 1, "steps": 100}}
    )
    code, out, _ = run(capsys, "trajectory", "--scenario", path, "--steps", "4")
    assert code == 0
    assert json.loads(out)["grid"]["steps"] == 4


def test_qft_report_embeds_circuit_description(capsys):
    code, out, _ = run(capsys, "qft", "--n", "2")
    assert code == 0
    circuit = json.loads(out)["circuit"]
    assert circuit["n_qubits"] == 2
    assert [g["name"] for g in circuit["gates"]] == ["H", "CPHASE", "H", "SWAP"]


def test_internal_invariant_violation_exits_3(scenario_file, capsys, monkeypatch):
    import udmlab.cli as cli_mod

    def boom(*_):
        raise RuntimeError("synthetic invariant breach")

    monkeypatch.setitem(cli_mod._COMMANDS, "map", boom)
    path = scenario_file({"gate": CPI, "input": ["+", "+"]})
    code, _, err = run(capsys, "map", "--scenario", path)
    assert code == 3
    assert "internal error" in err
    assert "synthetic invariant breach" in err


def test_induced_map_failing_its_cptp_check_exits_3(scenario_file, capsys, monkeypatch):
    monkeypatch.setattr(maps, "is_cptp", lambda m, tol: (False, True, -0.5))
    code, out, err = run(capsys, "map", "--scenario", scenario_file({"gate": CPI, **PLUS_PLUS}))
    assert (code, out) == (3, "")
    assert err == (
        "internal error: RuntimeError: induced map failed the CPTP check "
        "(cp=False, tp=True, min eig=-0.5)\n"
    )


def test_reports_are_byte_identical_across_runs(scenario_file, capsys):
    path = scenario_file({"gate": CPI, "input": ["+", "1"], "seed": 5})
    outputs = []
    for command in (["map"], ["map", "--both-qubits"], ["trajectory"], ["analyze-gate"]):
        first = run(capsys, *command, "--scenario", path)
        second = run(capsys, *command, "--scenario", path)
        assert first[0] == 0 and second[0] == 0
        assert first[1] == second[1]
        outputs.append(first[1])
    assert len(set(outputs)) == len(outputs)  # distinct commands, distinct reports


PLUS_PLUS = {"input": ["+", "+"]}
DEEP = "[" * 100_000 + "]" * 100_000
GEN_Z = {"matrix": [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, -1]]}
OVERFLOWING_GRID = {"gate": {"name": "identity"}, "input": ["0", "+"],
                    "grid": {"t_start": -1e308, "t_end": 1e308, "steps": 2}}


@pytest.mark.parametrize(
    "command, scenario, extra, env, field",
    [
        ("map", {"gate": CPI, **PLUS_PLUS, "tolerances": 5}, [], None, "tolerances"),
        ("map", {"gate": CPI, **PLUS_PLUS, "tolerances": {"cp": None}}, [], None, "tolerances.cp"),
        ("map", {"gate": CPI, **PLUS_PLUS, "tolerances": {"cp": -1}}, [], None, "cp"),
        ("map", {"gate": CPI, **PLUS_PLUS}, ["--tol-cp", "nan"], None, "cp"),
        ("map", {"gate": CPI, **PLUS_PLUS}, ["--tol-cp", "-1"], None, "cp"),
        ("map", {"gate": CPI, **PLUS_PLUS}, [], '{"cp": -1}', "cp"),
        ("analyze-gate", {"gate": {"name": "swap", "duration": None}}, [], None, "gate.duration"),
        ("trajectory", {"gate": CPI, **PLUS_PLUS, "grid": {"t_start": [0]}}, [], None,
         "grid.t_start"),
        ("qft", {"n_qubits": [3]}, [], None, "n_qubits"),
        ("analyze-gate", {"generator": {"matrix": [None]}}, [], None, "generator.matrix"),
        ("trajectory", {"gate": CPI, "input": {"amplitudes": None}}, [], None, "input.amplitudes"),
        # typed nulls
        ("trajectory", {"gate": {"name": "cphase", "phi": 1.1}, "input": ["+", "0"],
                        "grid": {"steps": None}}, [], None, "grid.steps"),
        ("trajectory", {"gate": {"name": "cphase", "phi": 1.2}, "input": ["0", "+"],
                        "grid": {"t_end": None}}, [], None, "grid.t_end"),
        ("analyze-gate", {"gate": {"name": "cphase", "phi": None}}, [], None, "gate.phi"),
        ("map", {"gate": {"name": "cphase", "phi": 1.3}, "input": ["+", "1"],
                 "which_qubit": None}, [], None, "which_qubit"),
        ("divisibility", {"gate": {"name": "cphase", "phi": 1.4}, "input": ["1", "+"],
                          "t1": None}, [], None, "t1"),
        # seed, which_qubit and the steps bound
        ("analyze-gate", {"gate": CPI, "seed": True}, [], None, "seed"),
        ("analyze-gate", {"gate": CPI, "seed": -1}, [], None, "seed"),
        ("map", {"gate": CPI, **PLUS_PLUS}, ["--seed", "-3"], None, "seed"),
        ("map", {"gate": CPI, **PLUS_PLUS, "which_qubit": 3}, [], None, "which_qubit"),
        ("divisibility", {"gate": CPI, **PLUS_PLUS, "t1": 0.5, "which_qubit": 3}, [], None,
         "which_qubit"),
        ("trajectory", {"gate": CPI, **PLUS_PLUS}, ["--steps", "100001"], None, "steps"),
        # matrix and amplitude entries
        ("analyze-gate", {"generator": {"matrix": [[0] * 4, [0] * 4, [0] * 3, [0] * 4]}}, [],
         None, "generator.matrix[2]"),
        ("trajectory", {"gate": CPI, "input": {"amplitudes": [1, "a", 0, 0]}}, [], None,
         "input.amplitudes[1]"),
        ("trajectory", {"gate": CPI, "input": {"amplitudes": [True, False, [True, 0], 0]}}, [],
         None, "input.amplitudes[0]"),
        ("analyze-gate", {"generator": {"matrix": [[True, 0, 0, 0]] + [[0] * 4] * 3}}, [], None,
         "generator.matrix[0][0]"),
        # JSON nested past the recursion limit
        pytest.param("analyze-gate", '{"gate": %s}' % DEEP, [], None, "scenario file",
                     id="deep-scenario"),
        pytest.param("analyze-gate", {"gate": CPI}, [], '{"cp": %s}' % DEEP,
                     "UDMLAB_TOL_OVERRIDE", id="deep-env-override"),
        # times whose phases w t exceed tolerances.reconstruction / eps
        ("trajectory", {"gate": CPI, **PLUS_PLUS, "grid": {"t_end": 1e300}}, [], None,
         "grid.t_end"),
        ("map", {"gate": CPI, **PLUS_PLUS, "grid": {"t_start": -1e300, "t_end": 1.0}}, [], None,
         "grid.t_start"),
        ("divisibility", {"gate": CPI, **PLUS_PLUS, "t1": 0.5, "grid": {"t_end": 1e7}}, [], None,
         "grid.t_end"),
        ("analyze-gate", {"generator": {**GEN_Z, "duration": 1e300}}, [], None,
         "generator.duration"),
        ("trajectory", {"generator": {**GEN_Z, "duration": 1e7}, **PLUS_PLUS}, [], None,
         "generator.duration"),
        # each end within the bound, the span t_end - t_start beyond it
        ("map", {"gate": CPI, **PLUS_PLUS, "grid": {"t_start": -1.4e6, "t_end": 1.4e6}}, [],
         None, "grid.t_end"),
        # a scenario entry is checked even when a flag replaces it
        ("map", {"gate": CPI, **PLUS_PLUS, "seed": -5}, ["--seed", "3"], None, "seed"),
        ("qft", {"n_qubits": "eight"}, ["--n", "3"], None, "n_qubits"),
        # a scenario missing what its command needs, or of the wrong shape
        ("map", [CPI], [], None, "scenario file must contain a JSON object"),
        ("map", {"gate": CPI, "generator": GEN_Z, **PLUS_PLUS}, [], None,
         "either 'gate' or 'generator', not both"),
        ("map", PLUS_PLUS, [], None, "must specify a 'gate' or a 'generator'"),
        ("map", {"gate": CPI}, [], None, "must specify an 'input' state"),
        ("trajectory", {"gate": CPI, **PLUS_PLUS, "grid": [0, 1, 4]}, [], None,
         "'grid' must be an object"),
        ("divisibility", {"gate": CPI, **PLUS_PLUS}, [], None, "needs a 't1' intermediate time"),
        ("qft", {}, [], None, "qft needs --n or an 'n_qubits' scenario entry"),
        # a count out of range names its field, as its type refusal does, from
        # the flag or the scenario, and even when a flag replaces the entry
        pytest.param("qft", {}, ["--n", "9"], None, "error: n_qubits must be in [2, 8], got 9\n",
                     id="qft-flag-n-9"),
        pytest.param("qft", {"n_qubits": 1}, [], None,
                     "error: n_qubits must be in [2, 8], got 1\n", id="qft-n_qubits-1"),
        pytest.param("qft", {"n_qubits": 9}, ["--n", "3"], None,
                     "error: n_qubits must be in [2, 8], got 9\n", id="qft-n_qubits-9-under-flag"),
        pytest.param("trajectory", {"gate": CPI, **PLUS_PLUS, "grid": {"steps": 0}}, [], None,
                     "error: grid.steps must be in [1, 100000], got 0\n", id="trajectory-steps-0"),
        pytest.param("trajectory", {"gate": CPI, **PLUS_PLUS}, ["--steps", "0"], None,
                     "error: grid.steps must be in [1, 100000], got 0\n",
                     id="trajectory-flag-steps-0"),
        pytest.param("trajectory", {"gate": CPI, **PLUS_PLUS, "grid": {"steps": 0}},
                     ["--steps", "10"], None, "error: grid.steps must be in [1, 100000], got 0\n",
                     id="trajectory-steps-0-under-flag"),
        # a state name names its entry of the input list, whatever its type
        pytest.param("map", {"gate": CPI, "input": ["z", "0"]}, [], None,
                     f"error: input[0] must be one of {STATE_NAMES}, got 'z'\n", id="map-input-z"),
        pytest.param("trajectory", {"gate": CPI, "input": ["+", 1]}, [], None,
                     f"error: input[1] must be one of {STATE_NAMES}, got 1\n",
                     id="trajectory-input-int"),
        pytest.param("analyze-gate", {"gate": {"name": ["swap"]}}, [], None,
                     f"error: gate.name must be one of {GATE_NAMES}, got ['swap']\n",
                     id="analyze-gate-list-name"),
        # a grid whose span t_end - t_start overflows: its phase under the identity's
        # zero spectrum, 0 * inf, read nan and passed the bound, and the evolution
        # then warned of the overflow (exit 3 with every warning an error)
        pytest.param("trajectory", OVERFLOWING_GRID, [], None, "error: grid.t_end must keep",
                     id="trajectory-span-overflow"),
        pytest.param("map", OVERFLOWING_GRID, [], None, "error: grid.t_end must keep",
                     id="map-span-overflow"),
        pytest.param("divisibility", {**OVERFLOWING_GRID, "t1": 0.0}, [], None,
                     "error: grid.t_end must keep", id="divisibility-span-overflow"),
        # refusals that named the library's argument, not the scenario field
        pytest.param("trajectory", {"gate": CPI, **PLUS_PLUS,
                                    "grid": {"t_start": 0.5, "t_end": 0.2}}, [], None,
                     "error: grid.t_end must be finite and > 0.5, got 0.2\n",
                     id="trajectory-t_end-before-t_start"),
        pytest.param("trajectory", {"gate": CPI, "input": []}, [], None,
                     "error: input must be 2^n-dimensional for n >= 1, got dimension 1\n",
                     id="trajectory-input-empty"),
        pytest.param("qft", {"n_qubits": 2, "input": {"amplitudes": [1, 0, 0]}}, [], None,
                     "error: input.amplitudes must be 2^n-dimensional for n >= 1, "
                     "got dimension 3\n", id="qft-amplitudes-3"),
        # a seed's lower bound, from the count rule
        pytest.param("map", {"gate": CPI, **PLUS_PLUS, "seed": -5}, ["--seed", "3"], None,
                     "error: seed must be >= 0, got -5\n", id="map-seed-minus-5-under-flag"),
        # a Hermitian defect of finite entries that overflows: m - m^dag warned of
        # the overflow (exit 3 with every warning an error)
        *[pytest.param(command, {**OVERFLOWING_GENERATOR, "t1": 0.5}, [], None,
                       "error: generator.matrix must be Hermitian, got max|m - m^dag| = inf\n",
                       id=f"{command}-hermitian-defect-overflow")
          for command in ("analyze-gate", "map", "trajectory", "divisibility")],
    ],
)
def test_malformed_input_exits_2_naming_the_field(
    scenario_file, capsys, monkeypatch, command, scenario, extra, env, field
):
    if env is None:
        monkeypatch.delenv("UDMLAB_TOL_OVERRIDE", raising=False)
    else:
        monkeypatch.setenv("UDMLAB_TOL_OVERRIDE", env)
    code, _, err = run(capsys, command, "--scenario", scenario_file(scenario), *extra)
    assert code == 2, err
    assert field in err


@pytest.mark.parametrize(
    "command, counts",
    [("qft", {"n_qubits": 3}), ("trajectory", {"gate": CPI, **PLUS_PLUS, "grid": {"steps": 10}}),
     ("map", {"gate": CPI, "input": ["+", "1"], "which_qubit": 2, "seed": 5})],
)
def test_integral_float_counts_read_as_their_integers(command, counts, scenario_file, capsys):
    # a count may be written 3.0: the report is the integer form's, byte for byte
    as_float = json.loads(json.dumps(counts), parse_int=float)
    code, want, _ = run(capsys, command, "--scenario", scenario_file(counts))
    assert code == 0
    assert run(capsys, command, "--scenario", scenario_file(as_float, "float.json")) == (0, want, "")


@pytest.mark.parametrize("duration", [0, -1])
@pytest.mark.parametrize(
    "key, spec",
    [("gate", CPI), ("gate", {"name": "local-phase", "phi": 0.5}), ("gate", {"name": "swap"}),
     ("gate", {"name": "identity"}), ("generator", GEN_Z)],
)
def test_non_positive_duration_names_its_field(key, spec, duration, scenario_file, capsys):
    path = scenario_file({key: {**spec, "duration": duration}})
    code, out, err = run(capsys, "analyze-gate", "--scenario", path)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {key}.duration must be finite and > 0, got {duration!r}")


@pytest.mark.parametrize("command, out", [("analyze-gate", "missing/r.json"), ("trajectory", "r.json")])
def test_a_file_that_cannot_be_written_prints_no_report(command, out, scenario_file, capsys, tmp_path):
    (tmp_path / "r.csv").mkdir()  # trajectory's CSV beside r.json cannot be written
    path = scenario_file({"gate": CPI, **PLUS_PLUS, "grid": {"steps": 4}})
    code, stdout, err = run(capsys, command, "--scenario", path, "--out", str(tmp_path / out))
    assert (code, stdout) == (2, "")
    assert err.startswith("error: [Errno")
    assert not (tmp_path / "r.json").exists()  # no report is left behind for a failed run


def test_phase_bound_admits_times_below_it(scenario_file, capsys):
    # pi * 1.4e6 = 4.4e6 rad, just under tolerances.reconstruction / eps = 4.5e6 rad
    path = scenario_file({"gate": CPI, **PLUS_PLUS, "grid": {"t_end": 1.4e6, "steps": 2}})
    code, out, err = run(capsys, "trajectory", "--scenario", path)
    assert code == 0, err
    assert json.loads(out)["grid"]["t_end"] == 1.4e6


@pytest.mark.parametrize("command, message", [("trajectory", "grid must keep the phase"),
                                              ("map", "t must keep the phase")])
def test_library_phase_bound_holds_under_a_looser_reconstruction(
    scenario_file, capsys, command, message
):
    # pi * 1e7 = 3.1e7 rad: within 1e-6 / eps = 4.5e9 rad, beyond the default 4.5e6 rad
    path = scenario_file({"gate": CPI, **PLUS_PLUS, "tolerances": {"reconstruction": 1e-6},
                          "grid": {"t_end": 1e7, "steps": 2}})
    code, out, err = run(capsys, command, "--scenario", path)
    assert code == 2
    assert out == ""
    assert message in err


def test_out_ending_in_csv_is_refused_before_any_output(scenario_file, capsys, tmp_path):
    # the JSON report went to r.csv, and the CSV written beside it overwrote it
    out = tmp_path / "r.csv"
    trajectory = scenario_file({"gate": CPI, **PLUS_PLUS, "grid": {"steps": 2}})
    for argv in (["qft", "--n", "2"], ["trajectory", "--scenario", trajectory]):
        code, stdout, err = run(capsys, *argv, "--out", str(out))
        assert code == 2
        assert "--out" in err
        assert stdout == ""
        assert not out.exists()
    # a command that writes no CSV may give its report any name
    gate = scenario_file({"gate": CPI}, "gate.json")
    code, stdout, _ = run(capsys, "analyze-gate", "--scenario", gate, "--out", str(out))
    assert code == 0
    assert out.read_text() == stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze-gate", "--steps", "3"],
        ["analyze-gate", "--both-qubits"],
        ["qft", "--both-qubits"],
        ["trajectory", "--both-qubits"],
        ["divisibility", "--n", "3"],
        ["map", "--steps", "3"],
        ["divisibility", "--steps", "3"],
    ],
)
def test_flag_the_command_does_not_read_is_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# each command's help, word for word as it was when the parser kept its own list
COMMAND_HELP = {
    "analyze-gate": "operator Schmidt analysis and entangling verdict of a 2-qubit gate",
    "trajectory": "joint-state evolution over a time grid with entanglement profile",
    "map": "reduced dynamical map of one qubit with Choi/Kraus/CPTP report",
    "divisibility": "intermediate-map CP check and sub-interval witness",
    "qft": "build and audit a QFT circuit",
}


def subcommands(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return [(a.dest, a.help) for a in action._choices_actions]


def test_the_parser_lists_the_command_table_with_each_docstring_as_help():
    assert subcommands(cli._PARSER) == [(n, f.__doc__) for n, f in cli._COMMANDS.items()]
    assert subcommands(cli._PARSER) == list(COMMAND_HELP.items())


def test_a_command_added_to_the_table_is_parsed_and_dispatched(capsys, monkeypatch):
    def extra(scenario, args, tol, seed):
        """an extra command"""
        return {"extra": True}, None

    monkeypatch.setitem(cli._COMMANDS, "extra", extra)
    monkeypatch.setattr(cli, "_PARSER", cli._build_parser())
    assert subcommands(cli._PARSER)[-1] == ("extra", "an extra command")
    code, out, _ = run(capsys, "extra")
    assert code == 0 and json.loads(out)["extra"] is True


NO_SCIPY = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from udmlab.cli import main
sys.exit(max([main(["analyze-gate", "--scenario", path]) for path in sys.argv[1:]]))
"""


def test_cli_runs_without_scipy(scenario_file):
    swap = scenario_file({"gate": {"name": "swap"}}, "swap.json")
    generator = scenario_file(
        {"generator": {"matrix": np.diag([0.0, 0.5, -1.0, 2.0]).tolist(), "duration": 0.7}},
        "generator.json",
    )
    env = {**os.environ, "PYTHONPATH": str(Path(udmlab.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY, swap, generator],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count('"command": "analyze-gate"') == 2


def per_probe_kraus_residual(m, rng):
    """The map report's Kraus residual one probe at a time: each probe drawn
    as its real then imaginary 2x2 part, then mapped and rebuilt alone."""
    kraus = maps.kraus_decompose(maps.choi(m))
    residual = 0.0
    for _ in range(20):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = a @ a.conj().T
        rho = rho / float(np.trace(rho).real)
        direct = maps.unvec(m.superoperator @ maps.vec(rho))
        rebuilt = sum(op @ rho @ op.conj().T for op in kraus.operators)
        residual = max(residual, float(np.max(np.abs(rebuilt - direct))))
    return residual


def test_map_report_checks_its_probes_as_one_stack(rng, monkeypatch):
    cases = []
    for seed in range(20):
        env = states.densify(states.PureState(random_pure(rng, 2)))
        m = maps.induced_map(random_hermitian(rng, 4), env, float(rng.uniform(0.1, 3.0)),
                             which=int(rng.integers(1, 3)))
        cases.append((m, seed, per_probe_kraus_residual(m, np.random.default_rng(seed))))

    def no_density_matrix(self, matrix):
        raise AssertionError("the map report should validate its probes as one stack")

    monkeypatch.setattr(states.DensityMatrix, "__init__", no_density_matrix)
    for m, seed, want in cases:
        report = cli._map_report(m, DEFAULT, np.random.default_rng(seed))
        assert report["kraus_reconstruction_residual"] == want


# One small, valid scenario per command; the property below replaces one of
# its fields (any nested entry included) with an arbitrary JSON value.
Z4 = [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 3]]
VALID = {
    "analyze-gate": {"generator": {"matrix": Z4, "duration": 1.0}, "seed": 1},
    "trajectory": {"gate": {"name": "cphase", "phi": 1.0, "duration": 1.0}, "input": ["+", "+"],
                   "grid": {"t_start": 0.0, "t_end": 1.0, "steps": 4}},
    "map": {"gate": {"name": "local-phase", "phi": 0.5}, "input": ["+", "0"], "which_qubit": 1,
            "grid": {"steps": 2}, "tolerances": {"cp": 1e-7, "reconstruction": 1e-9}},
    "divisibility": {"generator": {"matrix": Z4}, "input": ["+", "+i"], "t1": 0.5,
                     "grid": {"t_end": 1.0, "steps": 2}, "which_qubit": 2},
    "qft": {"n_qubits": 2, "input": {"amplitudes": [1, [0, 1], 0, 0]}, "seed": 0},
}


def _paths(value, prefix=()):
    """Every key path into the nested dicts and lists of a scenario."""
    if isinstance(value, dict):
        items = value.items()
    else:
        items = enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


FIELDS = [(command, path) for command, scenario in VALID.items() for path in _paths(scenario)]
# integers and integral floats stay at a few hundred (a count of 10^5 grid steps is
# valid and slow); the float extremes come as named values
SCALARS = (st.none() | st.booleans() | st.integers(-300, 300) | st.floats(-300, 300)
           | st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e308, -1e308, 5e-324])
           | st.text(max_size=4))
JSON = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=4)
                    | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=8)


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(field=st.sampled_from(FIELDS), value=JSON)
# the phase w t of a 1e308 duration overflowed to NaN (exit 3 under -W error)
@example(field=("analyze-gate", ("generator", "duration")), value=1e308)
# the norm of a 1e308 amplitude overflowed, and the state became the zero vector
@example(field=("qft", ("input", "amplitudes", 0)), value=1e308)
# the principal log of a named gate divided its phases by a t* of 5e-324
@example(field=("trajectory", ("gate", "duration")), value=5e-324)
# the phase bound tolerances.reconstruction / eps overflowed
@example(field=("map", ("tolerances", "reconstruction")), value=1e308)
def test_malformed_scenario_field_never_exits_3(field, value, tmp_path_factory, monkeypatch):
    monkeypatch.delenv("UDMLAB_TOL_OVERRIDE", raising=False)
    command, path = field
    scenario = copy.deepcopy(VALID[command])
    holder = scenario
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = value
    file = tmp_path_factory.getbasetemp() / "property_scenario.json"
    file.write_text(json.dumps(scenario))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--scenario", str(file)])
    assert code in (0, 2), err.getvalue()


# the values the one-pass JSON writer must write exactly as json.dumps(plain(value), indent=2)
WRITER_CASES = {
    "nested empty dicts and lists": {"a": {}, "b": [], "c": {"d": [[], {}, [[]]]}, "e": {"f": {}}},
    "tuples": (1, (2.5, "x", ()), [(), (None,)]),
    "0-d complex array": np.array(1 / 3 - 2j),
    "2-d complex array": np.array([[1 + 1j, -0.0 - 1e-17j], [np.pi, 1e20j], [0j, 5e-324j]]),
    "complex scalars": [0.1 + 0.2j, complex(-0.0, 1e300), np.complex128(2 / 3 - 1j)],
    "float edge values": [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e300, 0.1 + 0.2,
                          1.7976931348623157e308, 99999999999999.99, 1e14, 1e15, 1e16, 1e-5, 1e-4,
                          123.0, -1 / 3, np.float64(2 / 3)],
    "non-finite floats": [float("nan"), float("inf"), -float("inf"), np.array([np.nan, -np.inf])],
    "bools next to ints": [True, False, 0, 1, 10**30, -7, None, {"t": True, "z": 0}],
    "non-ASCII and control characters": {"k\u00e9\n\t\x00\u2028\U0001f600": "\u00ff\x1f\"\\/\r",
                                         "": "", "\x7f": ["\u0101", "a\x08b"]},
    "float arrays": [np.arange(6.0).reshape(2, 3) / 7, np.ones((2, 1, 2)), np.float32([0.1, 3])],
    "other arrays": [np.zeros(0), np.zeros((2, 0), dtype=complex), np.arange(3), np.array([True])],
}


@pytest.mark.parametrize("name", sorted(WRITER_CASES))
def test_writer_matches_the_standard_library(name):
    value = WRITER_CASES[name]
    assert cli._json_text(value) == report_json(value)
    nested = {"command": "x", "body": [value, {"again": value}]}
    assert cli._json_text(nested) == report_json(nested)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(x=st.floats() | st.floats(-1e15, 1e15) | st.floats(-1e-290, 1e-290))
def test_writer_rounds_every_float_as_the_standard_library(x):
    assert cli._json_text([x, complex(x, -x)]) == report_json([x, complex(x, -x)])


def test_writer_echoes_an_exact_dict_unrounded():
    echo = {"cp": 1.2345678901234567e-06, "positivity": 1, "entanglement": 0.1 + 0.2}
    value = {"tolerances": {"cp": 1.2345678901234567e-06}, "echo": cli._Exact(echo), "n": [1]}
    want = json.dumps({"tolerances": plain(value["tolerances"]), "echo": echo, "n": [1]}, indent=2)
    assert cli._json_text(value) == want
    assert '"cp": 1.2345678901234567e-06' in want


@pytest.mark.parametrize("leaf", [np.int64(3), np.float32(0.5), np.bool_(True)])
def test_writer_rejects_numpy_leaves_as_json_does(leaf, scenario_file, capsys, monkeypatch):
    with pytest.raises(TypeError) as want:
        report_json({"a": [1.5, leaf]})
    with pytest.raises(TypeError) as got:
        cli._json_text({"a": [1.5, leaf]})
    assert str(got.value) == str(want.value)
    # inside a report the leaf is an internal error, with nothing printed to stdout
    monkeypatch.setitem(cli._COMMANDS, "analyze-gate", lambda *_: ({"a": [1.5, leaf]}, None))
    code, out, err = run(capsys, "analyze-gate", "--scenario", scenario_file({}))
    assert (code, out) == (3, "")
    assert err == f"internal error: TypeError: {want.value}\n"


def test_record_fields_fix_report_keys_and_csv_headers(capsys, scenario_file, tmp_path):
    assert AuditRecord._fields == ("position", "name", "qubits", "negativity_in",
                                   "negativity_out", "separable_in", "separable_out")
    assert ProfilePoint._fields == ("t", "negativity", "tau", "purity")
    code, out, _ = run(capsys, "qft", "--n", "2", "--out", str(tmp_path / "q.json"))
    assert code == 0
    assert list(json.loads(out)["audit"][0]) == list(AuditRecord._fields)
    assert (tmp_path / "q.csv").read_text().splitlines()[0] == ",".join(AuditRecord._fields)


def test_trajectory_takes_every_negativity_once(scenario_file, capsys, monkeypatch):
    calls = []

    def counting(m):
        calls.append(len(m))
        return states._negativities(m)

    monkeypatch.setattr(dynamics, "_negativities", counting)
    path = scenario_file({"gate": CPI, **PLUS_PLUS, "grid": {"steps": 100}})
    code, _, _ = run(capsys, "trajectory", "--scenario", path)
    assert code == 0
    assert calls == [101]


def test_map_report_takes_each_choi_spectrum_once(scenario_file, capsys, monkeypatch):
    # the map, is_cptp through induced_map's self-check and the report each took
    # their own spectrum of the same Choi matrix: six for the two maps
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == maps.__name__:
            calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    path = scenario_file({"gate": CPI, "input": ["+", "1"]})
    code, _, _ = run(capsys, "map", "--both-qubits", "--scenario", path)
    assert code == 0
    assert calls == [(4, 4)] * 2


def test_input_qubit_count_is_checked_before_the_state_is_built(scenario_file, capsys):
    # 20 names built a 2^20-amplitude state (16 MiB) before its qubit count was refused
    path = scenario_file({"n_qubits": 2, "input": ["+"] * 20})
    want = (2, "", "error: input must be a 2-qubit state, got 20 qubits\n")
    assert run(capsys, "qft", "--scenario", path) == want
    assert traced_peak(lambda: main(["qft", "--scenario", path])) < 2**20


@pytest.mark.parametrize("tol", [1e-6, 0.1, 0.35, 0.49, 0.6])
@pytest.mark.parametrize("inp", [["+", "+"], ["+", "+i"], ["0", "+"]])
def test_trajectory_t1_is_find_entangled_instant(tol, inp, scenario_file, capsys):
    scenario = {"gate": CPI, "input": inp, "grid": {"steps": 40}, "tolerances": {"entanglement": tol}}
    code, out, _ = run(capsys, "trajectory", "--scenario", scenario_file(scenario))
    assert code == 0
    report = json.loads(out)
    traj = dynamics.evolve_trajectory(gates.c_phase(np.pi).generator,
                                      states.densify(states.product_state(inp)), dynamics.TimeGrid(0, 1, 40))
    hit = dynamics.find_entangled_instant(traj, tol=tol)
    want = (None, None) if hit is None else tuple(plain(list(hit)))
    assert (report["t1"], report["t1_negativity"]) == want
