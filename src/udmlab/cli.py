"""Command-line interface: scenario files in, deterministic JSON/CSV out.

Five analysis commands (analyze-gate, trajectory, map, divisibility, qft)
each run one batch analysis and print a JSON report to stdout; ``--out``
also writes it to a file, and the commands that produce a time series or
audit table (trajectory, qft) write a CSV next to it with the extension
swapped to .csv, so their ``--out`` may not end in .csv itself.

``main`` loads the scenario, resolves tolerances and seed and writes the
report envelope; each ``_cmd_*`` returns only its own report keys, as
plain library values (floats, complex arrays, tuples), and CSV text.
``_json_text`` (the JSON report, in one pass) and ``_csv`` (the CSV
records) are the only code that formats numbers, at 15 significant
digits, so reruns of the same scenario and seed are byte-identical. A
subcommand accepts only the flags its command reads.

Each vocabulary is one table. ``_COMMANDS`` maps each command name to its
``_cmd_*`` function: the parser is built from it, with each function's
docstring as its subcommand's help, and ``main`` dispatches through it.
``_NAMED_GATES`` maps each scenario gate name to the builder of its gate.
A report value that a library value holds is read off that value.

Exit codes: 0 success, 2 input/scenario error, 3 internal invariant
violation. The UDMLAB_TOL_OVERRIDE environment variable may hold a JSON
object of tolerance overrides; it is applied last and echoed in the
report whenever set.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

import numpy as np

from . import circuits, dynamics, gates, linalg, maps, states, tolerances
from .tolerances import DEFAULT, Tolerances, _choice, _real

ENV_TOL_OVERRIDE = "UDMLAB_TOL_OVERRIDE"

_TOL_FIELDS = DEFAULT.as_dict().keys()


# ---------------------------------------------------------------------------
# serialization


class _Exact(dict):
    """A report entry written exactly as given, floats unrounded."""


def _number(x: float) -> str:
    """json's text of x at 15 significant digits; for 0 and a normal |x| < 1e14, whose
    .15g text round-trips through a double, that text plus the ".0" of an integral value."""
    text = f"{x:.15g}"
    if 1e-300 < abs(x) < 1e14 or x == 0:
        return text if "." in text or "e" in text else text + ".0"
    return json.dumps(float(text))


def _json_text(x, nl: str = "\n") -> str:
    """The bytes ``json.dumps(value, indent=2)`` writes, floats at 15 significant digits.

    An array is written as its nested lists, a complex number as an [re, im]
    pair, a tuple as a list and an ``_Exact`` dict by json itself. Dict keys
    are strings; nl is the newline and indent of the line the value starts on.
    """
    if isinstance(x, float):
        return _number(x)
    if isinstance(x, str):
        return _quote(x)
    if x is None:
        return "null"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, np.ndarray):
        return _array_text(x, nl) if x.size and x.dtype.kind in "fc" else _json_text(x.tolist(), nl)
    if isinstance(x, _Exact):
        return json.dumps(x, indent=2).replace("\n", nl)
    if isinstance(x, complex):
        x = (x.real, x.imag)
    inner = nl + "  "
    if isinstance(x, dict):
        items = [f"{_quote(k)}: {_json_text(v, inner)}" for k, v in x.items()]
        return "{" + inner + ("," + inner).join(items) + nl + "}" if items else "{}"
    if isinstance(x, (list, tuple)):
        items = [_json_text(v, inner) for v in x]
        return "[" + inner + ("," + inner).join(items) + nl + "]" if items else "[]"
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _array_text(a: np.ndarray, nl: str) -> str:
    """``_json_text`` of a non-empty float or complex array: all numbers, then the nesting."""
    if a.dtype.kind == "c":
        a = np.stack([a.real, a.imag], axis=-1)  # each entry an [re, im] pair
    texts = [_number(v) for v in a.ravel().tolist()]
    for depth in range(a.ndim - 1, -1, -1):  # innermost axis first
        outer = nl + "  " * depth
        sep, n = "," + outer + "  ", a.shape[depth]
        texts = [f"[{outer}  {sep.join(texts[i:i + n])}{outer}]" for i in range(0, len(texts), n)]
    return texts[0]


def _csv(records) -> str:
    """CSV of named-tuple records: their field names, then one line per record.

    Floats take 15 significant digits, None an empty cell, booleans are
    lower-case and a tuple of qubits is joined with ';'.
    """
    lines = [",".join(records[0]._fields)]
    lines += [",".join(map(_csv_cell, r)) for r in records]
    return "\n".join(lines) + "\n"


def _csv_cell(x) -> str:
    if isinstance(x, float):
        return f"{x:.15g}"
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, tuple):
        return ";".join(map(str, x))
    return str(x)


# ---------------------------------------------------------------------------
# scenario parsing


def _parse_complex(value, field: str) -> complex:
    """A JSON number or an [re, im] pair of numbers."""
    if not isinstance(value, list):
        return complex(_real(value, field))
    if len(value) != 2:
        raise ValueError(f"{field} must be a number or [re, im] pair, got {value!r}")
    return complex(_real(value[0], f"{field}[0]"), _real(value[1], f"{field}[1]"))


def _parse_matrix(rows, field: str) -> np.ndarray:
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise ValueError(f"{field} must be a non-empty list of rows, each a list")
    for i, row in enumerate(rows):
        if len(row) != len(rows[0]):
            raise ValueError(f"{field}[{i}] has {len(row)} entries, row 0 has {len(rows[0])}")
    return np.array(
        [[_parse_complex(v, f"{field}[{i}][{j}]") for j, v in enumerate(row)]
         for i, row in enumerate(rows)],
        dtype=complex,
    )


def _integer(value, field: str, *bounds) -> int:
    # JSON has one number type: an integral float such as 3.0 counts
    if type(value) is float and value.is_integer():
        value = int(value)
    return tolerances._integer(value, field, *bounds)


def _json(text: str, source: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{source} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ValueError(f"{source} is nested too deeply to parse") from None


def _load_scenario(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        data = _json(fh.read(), f"scenario file {path}")
    if not isinstance(data, dict):
        raise ValueError("scenario file must contain a JSON object")
    return data


def _resolve_tolerances(scenario: dict, args) -> tuple[Tolerances, dict | None]:
    # Tolerances itself rejects values that are not finite and positive
    tol = DEFAULT.override(**_tolerance_values(scenario.get("tolerances", {}), "tolerances"))
    if args.tol_cp is not None:
        tol = tol.override(cp=args.tol_cp)
    env_raw = os.environ.get(ENV_TOL_OVERRIDE)
    env_echo = None
    if env_raw:
        env_echo = _json(env_raw, ENV_TOL_OVERRIDE)
        tol = tol.override(**_tolerance_values(env_echo, ENV_TOL_OVERRIDE))
    return tol, env_echo


def _tolerance_values(mapping, where: str) -> dict:
    if not isinstance(mapping, dict):
        raise ValueError(f"{where} must be a JSON object of tolerance values, got {mapping!r}")
    return {_choice(k, _TOL_FIELDS, f"{where} key"): _real(v, f"{where}.{k}")
            for k, v in mapping.items()}


def _flag_or(flag, entry, what: str, *bounds) -> int:
    """The integer flag if it is given, else the entry, which is checked either way;
    bounds, an inclusive lo or (lo, hi) when given, go to _integer with each value."""
    entry = _integer(entry, what, *bounds)
    return entry if flag is None else _integer(flag, what, *bounds)


# each scenario gate name and the builder of its gate from the scenario's gate object
# and its duration, which is read first; only the two phase gates read gate.phi
_NAMED_GATES = {
    "cphase": lambda spec, t: gates.c_phase(_real(spec.get("phi"), "gate.phi"), t),
    "local-phase": lambda spec, t: gates.local_phase(_real(spec.get("phi"), "gate.phi"), t),
    "swap": lambda spec, t: gates.swap_gate(t),
    "identity": lambda spec, t: gates.identity_gate(2, t),
}


def _gate_from_scenario(scenario: dict, tol: Tolerances) -> gates.Gate:
    """The 2-qubit gate a scenario names, or the one its 4x4 generator drives."""
    if "gate" in scenario and "generator" in scenario:
        raise ValueError("scenario must give either 'gate' or 'generator', not both")
    if "gate" in scenario:
        spec = scenario["gate"]
        if not isinstance(spec, dict) or "name" not in spec:
            raise ValueError("'gate' must be an object with a 'name'")
        duration = _real(spec.get("duration", 1.0), "gate.duration", lo=0)
        return _NAMED_GATES[_choice(spec["name"], _NAMED_GATES, "gate.name")](spec, duration)
    if "generator" in scenario:
        spec = scenario["generator"]
        if not isinstance(spec, dict) or "matrix" not in spec:
            raise ValueError("'generator' must be an object with a 'matrix'")
        k = _parse_matrix(spec["matrix"], "generator.matrix")
        w = np.linalg.eigvalsh(linalg._hermitian(k, "generator.matrix", 4))
        duration = _real(spec.get("duration", 1.0), "generator.duration", lo=0)
        linalg._check_phase(w, duration, "generator.duration", tol.reconstruction)
        return gates.gate_from_generator(k, duration)
    raise ValueError("scenario must specify a 'gate' or a 'generator'")


def _input_from_scenario(scenario: dict, n_qubits: int) -> states.PureState:
    """The scenario's input state, of n_qubits qubits. The count is checked before the
    state is built: a list of names takes 2^len(input) amplitudes."""
    if "input" not in scenario:
        raise ValueError("scenario must specify an 'input' state")
    spec = scenario["input"]
    # the 2^n rule of a state's dimension, under the field's name
    if isinstance(spec, list):
        n = states._qubit_count(2 ** len(spec), "input")
        factors = [_choice(s, states.NAMED_STATES, f"input[{i}]") for i, s in enumerate(spec)]
        build = states.product_state
    elif isinstance(spec, dict) and "amplitudes" in spec:
        if not isinstance(spec["amplitudes"], list):
            raise ValueError("input.amplitudes must be a list of numbers or [re, im] pairs")
        factors = [
            _parse_complex(v, f"input.amplitudes[{i}]") for i, v in enumerate(spec["amplitudes"])
        ]
        n = states._qubit_count(len(factors), "input.amplitudes")
        build = states.PureState
    else:
        raise ValueError(
            "'input' must be a list of per-qubit state names "
            f"({sorted(states.NAMED_STATES)}) or an object with 'amplitudes'"
        )
    if n != n_qubits:
        raise ValueError(f"input must be a {n_qubits}-qubit state, got {n} qubits")
    return build(factors)


def _grid_from_scenario(
    scenario: dict, gate: gates.Gate, tol: Tolerances, steps: int | None = None
) -> dynamics.TimeGrid:
    spec = scenario.get("grid", {})
    if not isinstance(spec, dict):
        raise ValueError("'grid' must be an object")
    w = np.linalg.eigvalsh(gate.generator)
    t_start = _real(spec.get("t_start", 0.0), "grid.t_start")
    linalg._check_phase(w, t_start, "grid.t_start", tol.reconstruction)
    t_end = _real(spec.get("t_end", t_start + gate.duration), "grid.t_end", lo=t_start)
    # the grid is evolved over t - t_start, so the span is bounded as well
    linalg._check_phase(w, max(abs(t_end), t_end - t_start), "grid.t_end", tol.reconstruction)
    count = _flag_or(
        steps, spec.get("steps", dynamics.DEFAULT_STEPS), "grid.steps", 1, dynamics.MAX_STEPS
    )
    return dynamics.TimeGrid(t_start, t_end, count)


def _product_input(scenario: dict, tol: Tolerances):
    """(joint state, described qubit, its environment, both marginals) of a product input."""
    rho = states.densify(_input_from_scenario(scenario, n_qubits=2))
    product = states._product(rho.matrix, tol.separability, "input")
    marginals = tuple(map(states.DensityMatrix, product))
    which = _integer(scenario.get("which_qubit", 1), "which_qubit", 1, 2)
    return rho, which, marginals[2 - which], marginals


# ---------------------------------------------------------------------------
# commands


def _cmd_analyze_gate(scenario: dict, args, tol: Tolerances, seed: int) -> tuple[dict, None]:
    """operator Schmidt analysis and entangling verdict of a 2-qubit gate"""
    gate = _gate_from_scenario(scenario, tol)
    entangling, rank = gates.is_entangling(gate, tol=tol.separability)
    body = {
        "n_qubits": gate.n_qubits,
        "duration": gate.duration,
        "unitary": gate.unitary,
        "operator_schmidt_values": gates.operator_schmidt_values(gate.unitary),
        "operator_schmidt_rank": rank,
        "entangling": entangling,
        "generator_principal_log": gates.generator_from_unitary(gate.unitary, gate.duration),
    }
    return body, None


def _cmd_trajectory(scenario: dict, args, tol: Tolerances, seed: int) -> tuple[dict, str]:
    """joint-state evolution over a time grid with entanglement profile"""
    gate = _gate_from_scenario(scenario, tol)
    psi = _input_from_scenario(scenario, n_qubits=2)
    grid = _grid_from_scenario(scenario, gate, tol, args.steps)
    traj = dynamics.evolve_trajectory(gate.generator, states.densify(psi), grid)
    profile = dynamics.entanglement_profile(traj)
    t1, t1_negativity = dynamics.find_entangled_instant(traj, tol.entanglement) or (None, None)
    body = {
        "grid": {**vars(grid), "epsilon": grid.epsilon},
        "t1": t1,
        "t1_negativity": t1_negativity,
        "max_negativity": float(traj.negativities.max()),
        "endpoint_purity": float(traj.purities[-1]),
    }
    return body, _csv(profile)


def _map_report(m: maps.DynamicalMap, tol: Tolerances, rng) -> dict:
    c = maps.choi(m)
    cp, tp, min_eig = maps.is_cptp(m, tol=tol.cp)
    kraus = maps.kraus_decompose(c)
    # 20 random probe states, each the real then the imaginary part of a
    # 2x2 a, as a a^dag / tr; the map's outputs must be states as well
    normals = rng.normal(size=(20, 2, 2, 2))
    a = normals[:, 0] + 1j * normals[:, 1]
    probes = a @ a.conj().swapaxes(-1, -2)
    probes = probes / np.trace(probes, axis1=-2, axis2=-1).real[:, None, None]
    states._check_density(probes, "probes")
    direct = maps._images(m, probes)
    states._check_density(direct, "map images")
    rebuilt = sum(op @ probes @ op.conj().T for op in kraus.operators)
    return {
        "which_qubit": m.which_qubit,
        "interval": m.interval,
        "environment_state": m.environment_state.matrix,
        "superoperator": m.superoperator,
        "choi_eigenvalues": c.eigenvalues,
        "cp": cp,
        "tp": tp,
        "min_choi_eigenvalue": min_eig,
        "kraus_count": len(kraus.operators),
        "kraus_reconstruction_residual": float(np.max(np.abs(rebuilt - direct))),
        "kraus_completeness_residual": kraus.completeness_residual,
    }


def _cmd_map(scenario: dict, args, tol: Tolerances, seed: int) -> tuple[dict, None]:
    """reduced dynamical map of one qubit with Choi/Kraus/CPTP report"""
    gate = _gate_from_scenario(scenario, tol)
    _, which, env, marginals = _product_input(scenario, tol)
    grid = _grid_from_scenario(scenario, gate, tol)
    t = grid.t_end - grid.t_start
    rng = np.random.default_rng(seed)

    body = {"evolution_time": t}
    if args.both_qubits:
        e1, e2 = maps.local_pair_maps(gate.generator, *marginals, t)
        body["map_qubit1"] = _map_report(e1, tol, rng)
        body["map_qubit2"] = _map_report(e2, tol, rng)
        body["superoperator_distance"] = float(np.linalg.norm(e1.superoperator - e2.superoperator))
    else:
        m = maps.induced_map(gate.generator, env, t, which=which)
        body["map"] = _map_report(m, tol, rng)
    return body, None


def _cmd_divisibility(scenario: dict, args, tol: Tolerances, seed: int) -> tuple[dict, None]:
    """intermediate-map CP check and sub-interval witness"""
    gate = _gate_from_scenario(scenario, tol)
    rho, which, env, _ = _product_input(scenario, tol)
    grid = _grid_from_scenario(scenario, gate, tol)
    if "t1" not in scenario:
        raise ValueError("divisibility needs a 't1' intermediate time in the scenario")
    t1 = _real(scenario["t1"], "t1", lo=grid.t_start, hi=grid.t_end)

    k = gate.generator
    e_short = maps.induced_map(k, env, t1 - grid.t_start, which=which)
    e_long = maps.induced_map(k, env, grid.t_end - grid.t_start, which=which)
    inter = maps.intermediate_map(e_short, e_long, cutoff=tol.pinv_cutoff, cp_tol=tol.cp)
    witness = maps.udm_witness_subinterval(
        k, rho, t1 - grid.t_start, grid.t_end - grid.t_start, which=which, tol=tol.separability
    )

    independent = witness.trace_distance <= tol.entanglement
    verdict = "markovian" if inter.cp and independent else "non-markovian"

    body = {
        "t1": t1,
        "t_star": grid.t_end,
        "which_qubit": which,
        "intermediate_map": {
            "cp": inter.cp,
            "min_choi_eigenvalue": inter.min_choi_eigenvalue,
            "short_map_rank": inter.short_map_rank,
            "verdict": inter.verdict,
            "superoperator": inter.candidate.superoperator,
        },
        "witness": vars(witness),
        "cp_divisible": None if inter.indeterminate else inter.cp,  # Rivas-Huelga-Plenio
        "state_independent_map": independent,  # the same-marginal witness reads 0
        "verdict": "indeterminate" if inter.indeterminate else verdict,
    }
    return body, None


def _cmd_qft(scenario: dict, args, tol: Tolerances, seed: int) -> tuple[dict, str]:
    """build and audit a QFT circuit"""
    if args.n is None and scenario.get("n_qubits") is None:
        raise ValueError("qft needs --n or an 'n_qubits' scenario entry")
    n = _flag_or(args.n, scenario.get("n_qubits", args.n), "n_qubits",
                 circuits.MIN_QUBITS, circuits.MAX_QUBITS)
    circuit = circuits.build_qft(n)
    psi = _input_from_scenario({"input": ["0"] * n, **scenario}, n_qubits=n)
    out, audit = circuits.run_circuit(circuit, psi, tol=tol.separability)
    # the Frobenius norm by numpy's pairwise sum; np.linalg.norm's BLAS dot rounds
    # with the BLAS thread count, which moves the last digit at n = 8
    diff = circuits.circuit_unitary(circuit) - circuits.dft_matrix(n)
    residual = float(np.sqrt(np.sum(np.abs(diff) ** 2)))
    body = {
        "n_qubits": circuit.n_qubits,
        "gate_count": len(circuit.gates),
        "circuit": circuits.circuit_to_dict(circuit),
        "dft_residual": residual,
        "output_amplitudes": out.amplitudes,
        "audit": [r._asdict() for r in audit.records],
        "all_separable": audit.all_separable(),
    }
    return body, _csv(audit.records)


_COMMANDS = {
    "analyze-gate": _cmd_analyze_gate,
    "trajectory": _cmd_trajectory,
    "map": _cmd_map,
    "divisibility": _cmd_divisibility,
    "qft": _cmd_qft,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="udmlab",
        description="Gate dynamics, reduced dynamical maps and QFT audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    subs = {}
    for name, command in _COMMANDS.items():
        p = subs[name] = sub.add_parser(name, help=command.__doc__)
        p.add_argument("--scenario", help="path to a JSON scenario file")
        p.add_argument("--out", help="write the JSON report here (CSV beside it when produced)")
        p.add_argument("--tol-cp", type=float, default=None, help="override the CP tolerance")
        p.add_argument("--seed", type=int, default=None, help="seed for randomized sweeps")
    subs["trajectory"].add_argument("--steps", type=int, default=None,
                                    help="override the grid step count")
    subs["map"].add_argument("--both-qubits", action="store_true",
                             help="report the maps of both qubits")
    subs["qft"].add_argument("--n", type=int, default=None, help="number of qubits (2..8)")
    return parser


_PARSER = _build_parser()


def _emit(report: dict, csv_text: str | None, out: str | None):
    path = Path(out) if out else None
    if path and csv_text is not None and path.suffix == ".csv":
        raise ValueError(f"--out {out} must not end in .csv: the CSV report is written there")
    text = _json_text(report) + "\n"
    if path:  # the CSV first, so a CSV that cannot be written leaves no JSON report behind
        if csv_text is not None:
            path.with_suffix(".csv").write_text(csv_text, encoding="utf-8")
        path.write_text(text, encoding="utf-8")
    sys.stdout.write(text)  # only once every file is written, so a failed write prints nothing


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        scenario = _load_scenario(args.scenario)
        tol, env_echo = _resolve_tolerances(scenario, args)
        seed = _flag_or(args.seed, scenario.get("seed", 0), "seed", 0)
        body, csv_text = _COMMANDS[args.command](scenario, args, tol, seed)
        report = {"command": args.command, "seed": seed, "tolerances": tol.as_dict()}
        if env_echo is not None:
            report["env_tol_override"] = _Exact(env_echo)
        _emit({**report, **body}, csv_text, args.out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - invariant violations exit 3
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
