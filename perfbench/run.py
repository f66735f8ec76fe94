"""phaserep benchmark: drive the CLI in-process on one seeded workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload tomo-sweep --seed 1 --seconds 20 \
        --trace 0

One process, one closed-loop client: each CLI call (an op) starts after
the previous one returns.  The workload's fixed batch of ops is one
pass; passes repeat while the next one is expected to finish within
``--seconds`` (at least one pass runs).  Afterwards the artifacts are
checked against independent references, and op 0 is repeated into a
second directory to compare artifact bytes.

Times are reported at a nominal machine speed: a fixed reference burst
of work (``SpeedReference``) is timed between ops and set-up processes,
and every measured time is multiplied by ``REF_NOMINAL_S`` over the
burst's median.  On a shared machine whose speed drifts over tens of
seconds this cancels most of the drift; the raw times and the factor
are in the details line.

``--trace 0`` reports the end-to-end metrics (untraced).  ``--trace 1``
runs untraced passes, then traced passes, and reports per-layer metrics.
The last stdout line is the result object; the line before it holds the
details (machine, sample counts, percentiles, accuracy figures).
"""
from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_SAMPLES = 3
SETUP_CODE = """
import json, time
t0 = time.perf_counter()
import phaserep, phaserep.cli
t1 = time.perf_counter()
phaserep.tomo.default_design()
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "default_design_s": t2 - t1}))
"""

# share of each op's (and set-up's) time spent timing the speed reference
REF_SHARE = 0.1
# median reference burst time on the 2-vCPU Xeon VM the bounds were set on
REF_NOMINAL_S = 0.0065


class SpeedReference:
    """The machine's current speed, from a fixed burst of work.

    The burst mixes the three kinds of work phaserep does: a complex BLAS
    matrix-vector product, numpy array work with a compensated sum, and
    dict-of-tuple bookkeeping.  It calls nothing in phaserep, so a faster
    program leaves it unchanged.  Bursts run between ops and between
    set-up processes, outside every timed interval.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._matrix = (rng.standard_normal((1296, 256))
                        + 1j * rng.standard_normal((1296, 256)))
        self._vector = rng.standard_normal(256) + 0j
        self.samples: list[float] = []

    def measure(self, seconds: float) -> None:
        """Time bursts for about ``seconds``, at least one."""
        end = time.perf_counter() + seconds
        while True:
            start = time.perf_counter()
            for i in range(20):
                y = self._matrix @ self._vector
                math.fsum(np.cos(y.real * 1e-3 + i).tolist())
                table: dict[tuple, float] = {}
                for j in range(150):
                    table[(j, "a")] = table.get((j - 1, "a"), 0.0) + 0.5 * j
            now = time.perf_counter()
            self.samples.append(now - start)
            if now >= end:
                return

    def factor(self, start: int = 0, stop: int | None = None) -> float:
        """Scale from seconds to seconds at nominal speed.

        Uses the bursts ``samples[start:stop]``, all of them by default.
        """
        return REF_NOMINAL_S / statistics.median(self.samples[start:stop])


def _mle_note(result):
    return result.iterations, result.converged


# traced public functions; the value maps a return value to a span note
TRACE_TARGETS = {
    "cli.main": None,
    "tomo.experiment_pipeline": None,
    "tomo.simulate_counts": None,
    "tomo.TomographyDesign.probabilities": None,
    "tomo.mle_reconstruct": _mle_note,
    "tomo.monte_carlo_errors": None,
    "tomo.write_datasets_csv": None,
    "optics.sector_operators": None,
    "optics.effective_toffoli": None,
    "optics.replication_experiment_channel": None,
    "choi.choi_from_kraus": None,
    "choi.process_fidelity": None,
    "choi.process_matrix_to_json": None,
    "gates.fidelity_replicas": None,
    "gates.baseline_single_copy": None,
    "gates.twirled_mean_fidelity": None,
    "gates.optimal_cloner_fidelity": None,
    "gates.baseline_measure_prepare": None,
    "superrep.asymptotic_sweep": None,
    "superrep.worst_case_fidelity": None,
    "superrep.replication_fidelity": None,
    "superrep.phase_profile": None,
    "qmat.kron": None,
}
P50_TARGETS = ("tomo.mle_reconstruct", "optics.sector_operators",
               "superrep.replication_fidelity")


def measure_setup(reference: SpeedReference) -> list[dict]:
    """Import plus first default_design() in fresh processes.

    One discarded warm-up call fills the bytecode and file caches, which
    a user's repeated CLI runs also find warm.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        reference.measure(REF_SHARE * sum(samples[-1].values()))
    return samples[1:]


def blas_threads() -> dict[str, int]:
    """OpenBLAS thread count of every OpenBLAS library loaded here."""
    found = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return found
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(lib).name] = int(fn())
                break
    return found


def _read(path) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def machine_info() -> dict:
    import scipy

    cpuinfo = _read("/proc/cpuinfo") or ""
    models = [line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
              if line.startswith("model name")]
    # the last-level cache is the highest cache index level of cpu0
    caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
        "index*"), key=lambda p: int(_read(p / "level") or 0))
    llc = _read(caches[-1] / "size") if caches else None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": models[0] if models else platform.processor(),
        "llc_size": llc.strip() if llc else None,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def run_passes(cli, argvs: list[list[str]], seconds: float,
               reference: SpeedReference, tracer: Tracer | None = None):
    """Repeat the batch while the next pass should end within ``seconds``.

    Returns pass times, op times and the exit status of every op call.
    A pass time is the sum of its op times; the speed reference runs
    after each op.
    """
    pass_times, op_times, statuses = [], [], []
    start = time.perf_counter()
    while True:
        for k, argv in enumerate(argvs):
            if tracer is not None:
                tracer.op = k
            t_op = time.perf_counter()
            try:
                status = cli.main(argv)
            except Exception as exc:  # an op failure, not a harness failure
                status = f"{type(exc).__name__}: {exc}"
            op_times.append(time.perf_counter() - t_op)
            statuses.append(status)
            reference.measure(REF_SHARE * op_times[-1])
        pass_times.append(sum(op_times[-len(argvs):]))
        elapsed = time.perf_counter() - start
        if elapsed + (1.0 + REF_SHARE) * statistics.median(pass_times) \
                > seconds:
            return pass_times, op_times, statuses


def timing_stats(samples: list[float]) -> dict:
    """Median and the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    tail = None
    if n > 10:
        tail = {"percentile": 100.0 * (n - 10) / n, "value": ordered[n - 11]}
    return {"samples": n, "median": statistics.median(ordered),
            "tail": tail}


def check_op(op: workloads.Op, out_dir: Path, design
             ) -> tuple[list[str], float | None, float | None]:
    """Problems, MLE gap and oracle error of one op's artifacts."""
    missing = [a for a in op.artifacts if not (out_dir / a).is_file()]
    if missing:
        return [f"missing artifacts {missing}"], None, None
    if op.command == "tomo":
        problems, gap = checks.check_tomo(out_dir, design)
        return problems, gap, None
    if op.command == "replicate":
        problems, err = checks.check_replicate(out_dir)
    elif op.command == "optics-scan":
        ideal = workloads.SCAN_RANGES[op.config["parameter"]][0]
        problems, err = checks.check_optics_scan(out_dir, ideal)
    else:
        problems, err = checks.check_superrep(out_dir, op.config["alpha"])
    return problems, None, err


def layer_metrics(tracer: Tracer, passes: int, setup: list[dict],
                  artifact_bytes: int, mle_gap_max: float,
                  oracle_err_max: float, overhead_s: float
                  ) -> dict[str, tuple]:
    """Per-layer values per traced pass, as {name: (value, unit)}."""
    summary = tracer.summary()
    empty = {"calls": 0, "self_s": 0.0, "durations": [], "notes": []}
    out = {}
    for target in TRACE_TARGETS:
        entry = summary.get(target, empty)
        out[f"{target}.calls"] = (entry["calls"] / passes, "count")
        out[f"{target}.self_s"] = (entry["self_s"] / passes, "s")
        if target in P50_TARGETS:
            out[f"{target}.p50_ms"] = (1000.0 * statistics.median(
                entry["durations"]) if entry["durations"] else 0.0, "ms")
    mle = summary.get("tomo.mle_reconstruct", empty)
    iterations = sum(it for it, _ in mle["notes"])
    out["tomo.mle_reconstruct.iterations"] = (iterations / passes, "count")
    out["tomo.mle_reconstruct.ms_per_iter"] = (
        1000.0 * mle["self_s"] / iterations if iterations else 0.0, "ms")
    out["tomo.mle_reconstruct.converged_ratio"] = (
        sum(bool(c) for _, c in mle["notes"]) / len(mle["notes"])
        if mle["notes"] else 0.0, "ratio")
    out.update({
        "cli.artifact_bytes": (artifact_bytes, "B"),
        "setup.import_s": (statistics.median(
            s["import_s"] for s in setup), "s"),
        "setup.default_design_s": (statistics.median(
            s["default_design_s"] for s in setup), "s"),
        "trace.overhead_s": (overhead_s, "s"),
        "accuracy.mle_gap_max": (mle_gap_max, "1"),
        "accuracy.oracle_err_max": (oracle_err_max, "1"),
    })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "phaserep" / "cli.py").is_file():
        print(f"error: phaserep sources not found under {SRC}",
              file=sys.stderr)
        return 2
    ops = workloads.build(args.workload, args.seed)
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    out_dirs = [work / "out" / f"op{k:02d}" for k in range(len(ops))]
    argvs = []
    for k, (op, out_dir) in enumerate(zip(ops, out_dirs)):
        config_path = work / "config" / f"op{k:02d}.json"
        if op.config is not None:
            config_path.parent.mkdir(parents=True, exist_ok=True)
            config_path.write_text(json.dumps(op.config))
        argvs.append(op.argv(out_dir, config_path))

    reference = SpeedReference()
    setup = measure_setup(reference)
    sys.path.insert(0, str(SRC))
    import phaserep.cli as cli
    from phaserep import tomo
    design = tomo.default_design()
    machine = machine_info()
    problems = []
    if max(machine["blas_threads"].values(), default=0) > machine["nproc"]:
        problems.append(f"BLAS threads {machine['blas_threads']} exceed "
                        f"nproc {machine['nproc']}")

    # op 0 runs once before timing: it warms the code paths, and its
    # artifacts are the reference for the byte comparison below
    repeat_dir = work / "repeat" / "op00"
    repeat_status = cli.main(ops[0].argv(repeat_dir,
                                         work / "config" / "op00.json"))
    pass_times, op_times, statuses = run_passes(cli, argvs, args.seconds,
                                                reference)
    if args.trace:
        traced_from = len(reference.samples)
        tracer = Tracer()
        tracer.install(TRACE_TARGETS)
        try:
            traced_times, _, traced_statuses = run_passes(
                cli, argvs, args.seconds, reference, tracer)
        finally:
            tracer.uninstall()
        statuses += traced_statuses
        tracer.write(work / "spans.json")

    # every op call fails if its own status or its op's artifacts are bad
    bad_ops = set()
    gaps, oracle_errs = [], []
    for k, (op, out_dir) in enumerate(zip(ops, out_dirs)):
        found, gap, err = check_op(op, out_dir, design)
        problems += [f"op {k} ({op.command}): {p}" for p in found]
        if found:
            bad_ops.add(k)
        gaps += [gap] if gap is not None else []
        oracle_errs += [err] if err is not None else []
    failed = 0
    for i, status in enumerate(statuses):
        if status != 0:
            problems.append(f"op {i % len(ops)}: exit status {status}")
        failed += status != 0 or i % len(ops) in bad_ops

    differing = checks.same_bytes(out_dirs[0], repeat_dir, ops[0].artifacts)
    if repeat_status != 0 or differing:
        failed += 1
        problems.append(f"determinism: op 0 repeat exit {repeat_status}, "
                        f"differing artifacts {differing}")
    attempted = len(statuses) + 1

    artifact_bytes = sum((d / a).stat().st_size
                         for op, d in zip(ops, out_dirs)
                         for a in op.artifacts if (d / a).is_file())
    setup_total = [s["import_s"] + s["default_design_s"] for s in setup]
    speed = reference.factor()
    mle_gap_max = max(gaps, default=0.0)
    oracle_err_max = max(oracle_errs, default=0.0)
    if args.trace:
        # each phase at its own nominal speed, so machine drift between
        # the untraced and the traced passes does not count as overhead
        overhead_s = (
            statistics.median(traced_times) * reference.factor(traced_from)
            - statistics.median(pass_times) * reference.factor(0, traced_from))
        metrics = layer_metrics(tracer, len(traced_times), setup,
                                artifact_bytes, mle_gap_max, oracle_err_max,
                                overhead_s)
    else:
        metrics = {
            "wall_s": (statistics.median(pass_times) * speed, "s"),
            "setup_s": (statistics.median(setup_total) * speed, "s"),
            "peak_rss_mb": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": machine, "ops_per_pass": len(ops),
        "speed_factor": speed,
        "raw_reference_s": timing_stats(reference.samples),
        "raw_wall_s": timing_stats(pass_times),
        "raw_op_s": timing_stats(op_times),
        "raw_setup_s": timing_stats(setup_total),
        "error_rate": failed / attempted,
        "mle_gap_max": mle_gap_max, "oracle_err_max": oracle_err_max,
        "problems": problems[:50],
    }
    result = {
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (work / "result.json").write_text(json.dumps(
        {"detail": detail, "result": result}, indent=1))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
