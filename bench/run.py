"""examweight benchmark: one workload, one closed-loop client, oracle-checked.

    python3 bench/run.py --workload paper-9x53 --seed 0 --seconds 38 --trace 0

Set-up makes the workload's CSV inputs from the seed (bench/workloads.py),
computes the oracle answers (bench/oracle.py) and times ``import examweight``
in fresh interpreters.  It then starts bench/runner.py, which runs the ops in
a closed loop for ``--seconds``; every op's report is checked against the
oracle afterwards.  With ``--trace 1`` untraced and traced ops alternate and
the per-layer metrics are reported instead of the end-to-end ones.

The gated op time, ``op_s_p50_norm``, is the median over ops of each op's
wall time rescaled by the speed of a fixed reference kernel timed around it
(bench/hostspeed.py), so that the shared host's drifting speed cancels.  The
raw wall times and their median are kept in the provenance record.

Metric names and units come from BENCHMARK.json.  The last stdout line is
the result object; the line before it is the run's provenance record.
Everything the run writes goes under ``.bench_work/`` and is removed at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import hostspeed
import oracle

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Fresh interpreters timed for setup_s, after one untimed run that fills the
# bytecode and file caches; the median is reported.
SETUP_REPEATS = 5
# Every run ends well inside the 180 s a run may take.
RUN_DEADLINE_S = 165.0


def setup_seconds(env: dict) -> float:
    # No timeout: with one, subprocess polls the child in steps of up to
    # 50 ms, which would quantize a 0.3 s measurement.
    cmd = [sys.executable, "-c", "import examweight"]
    times = []
    for _ in range(SETUP_REPEATS + 1):
        start = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(perf_counter() - start)
    return statistics.median(times[1:])


def _blas_threads():
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        get = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            return get()
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "examweight").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(args, w) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": w.name,
        "seed": args.seed,
        "cohort": w.spec,
        "load_model": "closed loop, one client: each op starts when the previous one ends",
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def _tail(times: list[float]):
    """Highest whole percentile with at least ten samples beyond it."""
    if len(times) < 20:
        return None
    p = int(100 * (1 - 10 / len(times)))
    return {"percentile": p, "s": float(np.percentile(times, p))}


def normalized(op: dict) -> float:
    return hostspeed.normalized_seconds(op["s"], op["ref_before_s"], op["ref_after_s"])


def check_ops(ops: list[dict], expected: dict) -> tuple[int, list[str], dict[str, float]]:
    """Check every op's report against the oracle.

    Returns (failed ops, problems, worst relative error per oracle kind).  An
    op fails if it raised, exited nonzero or disagrees with the oracle.
    """
    failed, problems, worst = 0, [], {}
    for op in ops:
        op_problems = [op["error"]] if op["error"] else []
        if not op_problems:
            found, errors = oracle.check_report(Path(op["report"]), expected)
            op_problems += found
            for kind, err in errors.items():
                worst[kind] = max(worst.get(kind, 0.0), err)
        failed += bool(op_problems)
        problems += op_problems
    return failed, problems, worst


def layer_metrics(ops: list[dict], problems: list[str]) -> dict:
    """Per-op layer metrics from the traced ops: medians of times and shares,
    and counters, which must repeat exactly from op to op."""
    traced = [op for op in ops if op["traced"]]
    untraced = [normalized(op) for op in ops if not op["traced"]]
    names = set().union(*(op["layers"] for op in traced))
    out = {}
    for name in names:
        values = [op["layers"].get(name, 0.0) for op in traced]
        if name.endswith(".s"):
            out[name] = statistics.median(values)
        else:
            if len(set(values)) > 1:
                problems.append(f"counter {name} differs between ops: {values}")
            out[name] = values[0]
    for layer in ("linalg.svd", "solvers.fit.huber"):
        out[f"{layer}.share"] = statistics.median(
            op["layers"].get(f"{layer}.s", 0.0) / op["s"] for op in traced)
    traced_p50 = statistics.median(op["s"] for op in traced)
    out["trace.op_s_p50"] = traced_p50
    # On host-normalized times, so that host drift between the two kinds of
    # op does not read as tracing overhead.
    out["trace.overhead_ratio"] = (statistics.median(normalized(op) for op in traced)
                                   / statistics.median(untraced))
    out["trace.covered_share"] = statistics.median(op["covered_s"] / op["s"] for op in traced)
    return out


def main(argv=None) -> int:
    started = perf_counter()
    p = argparse.ArgumentParser(description="examweight benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=38.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "examweight" / "__init__.py").is_file():
        print(f"error: no examweight sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 64
    w = workloads.WORKLOADS[args.workload]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    work = ROOT / ".bench_work" / f"{w.name}-{args.seed}-{os.getpid()}"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    try:
        files = workloads.write_inputs(w, args.seed, work / "inputs")
        setup_s = setup_seconds(env)
        expected = oracle.expected_cells(files, w.approaches, w.scales, w.exclusions)
        cmd = [sys.executable, str(BENCH / "runner.py"), "--workload", w.name,
               "--inputs", str(work / "inputs"), "--out", str(work / "out"),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                                  timeout=RUN_DEADLINE_S - (perf_counter() - started))
        except subprocess.TimeoutExpired:
            print("error: the workload did not finish in time", file=sys.stderr)
            return 1
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        run = json.loads(proc.stdout.splitlines()[-1])
        failed, problems, worst = check_ops(run["ops"], expected)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    ops = run["ops"]
    untraced = [op for op in ops if not op["traced"]]
    times = [op["s"] for op in untraced]
    if args.trace:
        # Layers a workload never calls read 0.
        metrics = {m["name"]: 0.0 for m in wanted} | layer_metrics(ops, problems)
    else:
        metrics = {
            "setup_s": setup_s,
            "op_s_p50_norm": statistics.median(normalized(op) for op in untraced),
            "peak_rss_mb": run["peak_rss_mb"],
            "ok_ops_ratio": 1.0 - failed / len(ops),
        }
    record = provenance(args, w)
    record.update({
        "ops": len(ops),
        "untraced_op_s": times,
        "op_s_p50": statistics.median(times),
        "reference_s": [ops[0]["ref_before_s"], *(op["ref_after_s"] for op in ops)],
        "reference_nominal_s": hostspeed.NOMINAL_S,
        "tail": _tail(times),
        "failed_ops_ratio": failed / len(ops),
        "oracle_tolerance": {k: oracle.TOLERANCES[k] for k in worst},
        "oracle_worst_error": worst,
        "problems": problems[:20],
    })
    if args.trace:
        record["counters_vs_baseline"] = {
            name: {"now": metrics[name], "baseline": base}
            for name, base in w.baseline_counts.items()
        }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
