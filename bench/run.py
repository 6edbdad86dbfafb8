"""udmlab benchmark: one workload, one process, one thread, closed loop.

    python3 bench/run.py --workload certify --seed 1 --seconds 15 --trace 0

Builds one round of seeded operations (see workloads.py), warms up, then
repeats the round until --seconds of wall time have passed, always
finishing the round. Each operation is timed alone; its result is then
checked against references computed without udmlab, with the clock
stopped. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (setup_s, ops_per_s,
latency_p50_ms, peak_rss_mb); with --trace 1 the rounds alternate
untraced and traced, and the metrics are the per-layer ones read from the
traced rounds plus the tracing overhead.

udmlab is imported from src/ next to this directory, never from an
installed copy; without it the benchmark exits with code 2 and prints no
result.
"""
from __future__ import annotations

import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads: BLAS threads make small kernels swing
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
SETUP_SAMPLES = 5  # fresh processes whose set-up time is measured; the median is reported
WORKLOAD_NAMES = ("certify", "trajectory", "qft_audit", "cli")


def import_udmlab():
    """Import udmlab (and its cli) from the checkout; return it and the time taken."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    try:
        import udmlab
        import udmlab.cli  # noqa: F401 - part of what a command-line user pays
    except ImportError as exc:
        sys.exit(f"cannot import udmlab from {SRC}: {exc}")
    import_s = time.perf_counter() - t0
    if not Path(udmlab.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"udmlab was imported from {udmlab.__file__}, not from {SRC}")
    return udmlab, import_s


def set_up(workload: str, seed: int, tmp: Path):
    """Inputs from the seed, then warm-up: one operation of each kind, and on
    cli every operation (its outputs are the byte-identity references)."""
    import numpy as np  # after udmlab, so that import_s covers numpy and scipy
    import workloads

    ops = workloads.WORKLOADS[workload](np.random.default_rng(seed), tmp)
    seen = set()
    for op in ops:
        if workload == "cli" or op.kind not in seen:
            seen.add(op.kind)
            op.attempt()
    return ops


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Set-up time (spawn to ready) and import time of fresh processes."""
    setup, imports = [], []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            setup.append(time.perf_counter() - t0)
            proc.stdout.read()
        if proc.returncode != 0 or not line:
            sys.exit(f"set-up process failed with code {proc.returncode}")
        imports.append(json.loads(line)["import_s"])
    return setup, imports


def environment_lines(udmlab) -> list[str]:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return [
        "# " + " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS),
        f"# python {sys.version.split()[0]}, numpy {np.__version__}, scipy {scipy.__version__}, "
        f"blas {blas.get('name')} {blas.get('version')}, nproc {os.cpu_count()}",
        f"# udmlab {udmlab.__version__} from {Path(udmlab.__file__).parent}",
    ]


def timed_loop(ops, seconds: float, tracer=None):
    """Whole rounds until the deadline; returns the operation times per round.
    With a tracer, odd rounds are traced."""
    rounds = {False: [], True: []}
    failed, unexpected = 0, []
    deadline = time.perf_counter() + seconds
    while True:
        traced = tracer is not None and len(rounds[False]) > len(rounds[True])
        if traced:
            tracer.install()
        times = []
        try:
            for op in ops:
                dt, why = op.attempt()
                times.append(dt)
                if why is not None:
                    failed += 1
                    if op.known_fault is None:
                        unexpected.append(f"{op.kind}: {why}")
        finally:
            if traced:
                tracer.uninstall()
        rounds[traced].append(times)
        if time.perf_counter() >= deadline and (tracer is None or rounds[True]):
            return rounds, failed, unexpected


def layer_metrics(tr, n_ops: int, imports: list[float], overhead_pct: float) -> dict:
    def per_op(x, scale=1.0):
        return x * scale / n_ops

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for span in ("cli.main", "maps.induced_map", "maps.is_cptp", "maps.kraus_decompose",
                 "maps.intermediate_map", "maps.udm_witness_subinterval",
                 "linalg.matexp_hermitian", "linalg.partial_trace", "linalg.pseudo_inverse",
                 "gates.gate_from_generator", "states.DensityMatrix", "states.negativity",
                 "dynamics.evolve_trajectory", "dynamics.entanglement_profile",
                 "circuits.run_circuit", "circuits.circuit_unitary"):
        m[f"{span}.self_ms"] = (per_op(tr.self_time.get(span, 0.0), 1e3), "ms")
    for span in ("maps.induced_map", "maps.choi", "linalg.matexp_hermitian",
                 "linalg.partial_trace", "states.DensityMatrix", "states.negativity"):
        m[f"{span}.calls"] = (per_op(tr.calls.get(span, 0)), "count")
    m["gates.matexp_per_gate"] = (
        ratio(tr.under.get(("gates", "linalg.matexp_hermitian"), 0), tr.calls.get("gates.Gate", 0)),
        "count")
    m["states.DensityMatrix.per_point"] = (
        ratio(tr.under.get(("dynamics", "states.DensityMatrix"), 0), tr.grid_points), "count")
    m["dynamics.points_per_s"] = (
        ratio(tr.grid_points, tr.inclusive.get("dynamics.evolve_trajectory", 0.0)), "1/s")
    m["circuits.gates_per_s"] = (
        ratio(tr.gates_applied, tr.inclusive.get("circuits.run_circuit", 0.0)
              + tr.inclusive.get("circuits.circuit_unitary", 0.0)), "1/s")
    m["import_s"] = (statistics.median(imports), "s")
    m["trace_overhead_pct"] = (overhead_pct, "%")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def write_trace(tr, path: Path, n_ops: int):
    spans = {name: {"calls": tr.calls[name], "self_s": tr.self_time[name],
                    "inclusive_s": tr.inclusive[name]} for name in sorted(tr.calls)}
    edges = [{"parent": p, "child": c, "calls": n} for (p, c), n in sorted(tr.edges.items())]
    path.write_text(json.dumps({"traced_ops": n_ops, "spans": spans, "edges": edges}, indent=1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the import time and exit (used to sample set-up time)")
    args = ap.parse_args()

    if not SRC.joinpath("udmlab", "__init__.py").is_file():
        print(f"no udmlab sources under {SRC}", file=sys.stderr)
        return 2
    udmlab, import_s = import_udmlab()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="tmp-") as tmp:
        if args.setup_only:
            set_up(args.workload, args.seed, Path(tmp))
            print(json.dumps({"import_s": import_s}), flush=True)
            return 0
        setup, imports = measure_setup(args.workload, args.seed)
        ops = set_up(args.workload, args.seed, Path(tmp))
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer(udmlab)
        rounds, failed, unexpected = timed_loop(ops, args.seconds, tracer)

    for line in environment_lines(udmlab):
        print(line)
    for why in unexpected[:20]:
        print(f"# FAILED {why}")
    all_times = [dt for rs in rounds.values() for r in rs for dt in r]
    result = {"correct": not unexpected, "attempted": len(all_times), "failed": failed}
    if tracer is None:
        result["metrics"] = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "ops_per_s": {"value": len(all_times) / sum(all_times), "unit": "1/s"},
            # each round's median, averaged: the machine's speed drifts over
            # tens of seconds, and a mean over rounds follows the share of
            # time spent fast or slow smoothly where one median jumps
            "latency_p50_ms": {
                "value": statistics.fmean(statistics.median(r) for r in rounds[False]) * 1e3,
                "unit": "ms"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
    else:
        plain, traced = ([dt for r in rounds[t] for dt in r] for t in (False, True))
        overhead = (statistics.fmean(traced) / statistics.fmean(plain) - 1.0) * 100.0
        result["metrics"] = layer_metrics(tracer, len(traced), imports, overhead)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        write_trace(tracer, path, len(traced))
        print(f"# span table: {path}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
