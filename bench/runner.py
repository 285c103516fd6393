"""The measured process: runs one workload's ops in a closed loop and prints
one JSON line with each op's wall time, the reference kernel's time right
before and right after it (bench/hostspeed.py), its report path and, for
traced ops, the tracer's layer totals.

It imports only examweight, numpy and the benchmark's own modules, so its
peak RSS is the program's; run.py does the checking, with scipy, in the
parent process.  run.py starts it with ``PYTHONPATH`` pointing at ``src``.

    python3 bench/runner.py --workload NAME --inputs DIR --out DIR --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import resource
import statistics
from pathlib import Path
from time import perf_counter

import hostspeed
import tracing
import workloads


def measure(w: workloads.Workload, files: dict[str, Path], out_dir: Path,
            seconds: float, trace: bool) -> list[dict]:
    """Run ops back to back for about ``seconds``.

    An op starts only if an op of the median length so far still fits in
    the time left; the first op always runs.  With ``trace``, untraced and traced ops
    alternate, starting untraced, and at least one of each runs.  The reference
    kernel runs once untimed to warm up, then before the first op and after
    every op; that time counts against ``seconds``.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    ops: list[dict] = []
    start = perf_counter()
    hostspeed.reference_seconds()
    ref_s = hostspeed.reference_seconds()
    kinds = itertools.cycle((False, True)) if trace else itertools.repeat(False)
    while True:
        traced = next(kinds)
        op = {"traced": traced, "report": str(out_dir / f"op{len(ops):04d}.csv"), "error": None}
        tracer = tracing.Tracer()
        if not traced and tracing.wrapped_layers():
            op["error"] = f"untraced op would run wrapped layers: {tracing.wrapped_layers()}"
        with tracer.installed() if traced else contextlib.nullcontext():
            t0 = perf_counter()
            try:
                workloads.run_op(w, files, Path(op["report"]))
            except Exception as exc:  # counted as a failed op, reported by run.py
                op["error"] = f"{type(exc).__name__}: {exc}"
            op["s"] = perf_counter() - t0
        op["ref_before_s"], ref_s = ref_s, hostspeed.reference_seconds()
        op["ref_after_s"] = ref_s
        if traced:
            op["layers"] = dict(tracer.values)
            op["covered_s"] = tracer.covered_s
        ops.append(op)
        both_kinds = not trace or len(ops) >= 2
        typical = statistics.median(op["s"] + op["ref_after_s"] for op in ops)
        if both_kinds and perf_counter() - start + typical > seconds:
            return ops


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--inputs", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    files = {name: args.inputs / f"{name}.csv" for name in ("scores", "questions", "components")}
    ops = measure(workloads.WORKLOADS[args.workload], files, args.out, args.seconds, bool(args.trace))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB
    print(json.dumps({"ops": ops, "peak_rss_mb": peak_mb}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
