import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import udmlab
from udmlab import cli, maps, states
from udmlab.cli import main
from udmlab.tolerances import DEFAULT
from conftest import random_hermitian, random_pure


@pytest.fixture
def scenario_file(tmp_path):
    def write(data, name="scenario.json"):
        path = tmp_path / name
        path.write_text(data if isinstance(data, str) else json.dumps(data))
        return str(path)

    return write


CPI = {"name": "cphase", "phi": np.pi}


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
    assert "2-qubit" in err


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
    assert "non-empty" in err


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
    assert "bogus" in err


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


def test_phase_bound_admits_times_below_it(scenario_file, capsys):
    # pi * 1.4e6 = 4.4e6 rad, just under tolerances.reconstruction / eps = 4.5e6 rad
    path = scenario_file({"gate": CPI, **PLUS_PLUS, "grid": {"t_end": 1.4e6, "steps": 2}})
    code, out, err = run(capsys, "trajectory", "--scenario", path)
    assert code == 0, err
    assert json.loads(out)["grid"]["t_end"] == 1.4e6


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze-gate", "--steps", "3"],
        ["analyze-gate", "--both-qubits"],
        ["qft", "--both-qubits"],
        ["trajectory", "--both-qubits"],
        ["divisibility", "--n", "3"],
    ],
)
def test_flag_the_command_does_not_read_is_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


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
