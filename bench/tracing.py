"""Per-layer timings and work counters for the traced run.

The tracer wraps examweight's public entry points from outside the package:
it replaces module attributes that the package looks up at call time
(``experiment.loocv_fit``, ``linalg.svd``, ...) and the entries of
``solvers.FITTERS``, and restores them afterwards.  Work counters come from
public return values (``WeightSolution.iterations``,
``ApproachRecord.unconverged_folds``) and from argument shapes.
"""

from __future__ import annotations

import contextlib
import functools
import operator
from collections import defaultdict
from time import perf_counter

from examweight import cli, dataio, experiment, linalg, solvers
from examweight import gradebook as gb

_MARK = "_bench_layer"


def _count_svd(values, result, a, *args, **kwargs):
    rows, cols = a.shape
    values["linalg.svd.wide_calls"] += rows < cols
    values["linalg.svd.bytes_in"] += 8 * rows * cols  # computed, float64


def _count_huber(values, sol, s, a, cfg=solvers.DEFAULT_CONFIG):
    values["solvers.huber.iterations"] += sol.iterations
    values["solvers.huber.cap_hits"] += (
        not sol.converged and sol.iterations >= cfg.huber_max_iterations
    )


def _count_nnls(values, sol, *args, **kwargs):
    values["solvers.nnls.iterations"] += sol.iterations


def _count_evaluate(values, report, *args, **kwargs):
    values["solvers.huber.unconverged_folds"] += sum(
        len(rec.unconverged_folds) for rec in report.records if rec.approach == solvers.HUBER
    )


def _loocv_name(s, a, solver, *args, **kwargs):
    return f"experiment.loocv_fit.{solver}"


class Tracer:
    """Collects, per op, the busy seconds and call counts of each layer.

    ``values`` maps ``<layer>.s`` and ``<layer>.calls`` (plus the counters
    above) to totals; ``covered_s`` is the time spent inside any outermost
    layer, to set against the op's wall time.  A layer that calls itself
    (``linalg.svd`` transposes wide inputs and recurses through the module
    global) is counted and timed once, at its outermost call.
    """

    def __init__(self):
        self.values = defaultdict(float)
        self.covered_s = 0.0
        self._depth = 0

    def _wrap(self, name, fn, count=None):
        active = False

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nonlocal active
            if active:
                return fn(*args, **kwargs)
            layer = name(*args, **kwargs) if callable(name) else name
            active = True
            self._depth += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                active = False
                self._depth -= 1
                self.values[f"{layer}.s"] += elapsed
                if self._depth == 0:
                    self.covered_s += elapsed
            self.values[f"{layer}.calls"] += 1
            if count is not None:
                count(self.values, result, *args, **kwargs)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def _targets(self):
        """(container, key, getter, setter, wrapper factory) for every layer."""
        attr = (getattr, setattr)
        item = (operator.getitem, operator.setitem)
        yield cli, "main", *attr, lambda fn: self._wrap("cli.main", fn)
        yield dataio, "load_gradebook", *attr, lambda fn: self._wrap("dataio.load_gradebook", fn)
        yield dataio, "write_report", *attr, lambda fn: self._wrap("dataio.write_report", fn)
        yield gb, "ability", *attr, lambda fn: self._wrap("gradebook.ability", fn)
        yield experiment, "evaluate", *attr, lambda fn: self._wrap(
            "experiment.evaluate", fn, _count_evaluate)
        yield experiment, "loocv_fit", *attr, lambda fn: self._wrap(_loocv_name, fn)
        counters = {solvers.HUBER: _count_huber, solvers.NNLS: _count_nnls}
        for solver in solvers.FITTERS:
            yield solvers.FITTERS, solver, *item, lambda fn, s=solver: self._wrap(
                f"solvers.fit.{s}", fn, counters.get(s))
        yield linalg, "svd", *attr, lambda fn: self._wrap("linalg.svd", fn, _count_svd)
        yield linalg, "solve_min_norm", *attr, lambda fn: self._wrap("linalg.solve_min_norm", fn)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer for the duration of the block."""
        restore = []
        try:
            for container, key, get, put, make in self._targets():
                original = get(container, key)
                put(container, key, make(original))
                restore.append((container, key, put, original))
            yield self
        finally:
            for container, key, put, original in reversed(restore):
                put(container, key, original)


def wrapped_layers() -> list[str]:
    """Names of the package entry points that currently carry a tracer
    wrapper; empty whenever no traced op is running."""
    return [
        f"{getattr(container, '__name__', 'solvers.FITTERS')}.{key}"
        for container, key, get, _, _ in Tracer()._targets()
        if getattr(get(container, key), _MARK, False)
    ]
