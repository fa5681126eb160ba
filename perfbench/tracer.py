"""Per-layer tracing from outside the program.

The layers are utileval's modules.  ``install`` wraps the public functions
listed in ``SPANS`` and rebinds every reference the package holds to them:
``cli``, ``stats``, ``simstudy`` and ``learners`` use ``from … import``, so
patching only the defining module would leave their calls untraced and the
counts silently low.  A reference that survives the rebinding is an error.

Each wrapped call is a span.  Spans nest through a stack; a span's self time
is its duration minus the durations of the spans it directly contains, so the
self times of a call tree sum to the root's total.  Counts are computed from
each call's arguments and return value, after the call, so they never depend
on timing.  ``numpy.argsort`` is wrapped for counts only: its time stays in
the self time of the caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
import sys
import time
import types
from collections import defaultdict

import numpy as np

# module -> public functions traced as spans; "core.take" is LabeledScores.take
SPANS = {
    "dataio": ("read_scores", "read_features", "write_json", "write_csv"),
    "core": ("take",),
    "utility": ("utility_curve", "utility_at_thresholds"),
    "metrics": (
        "auc_rank",
        "roc_points",
        "calibration_curve",
        "ece",
        "brier",
        "accuracy",
        "net_trust",
    ),
    "ranking": ("preserves_ranking", "preserves_ranking_by_group"),
    "stats": ("bootstrap_ci", "paired_max_utility_test"),
    "simstudy": ("generate_realization", "run_study", "utility_threshold_curves"),
    "learners": ("tune_and_compare", "kfold_cv", "knn_scores"),
    "cli": ("main",),
}

# counters: name -> (unit, better)
COUNTERS = {
    "dataio.rows_read": ("count", "lower"),
    "dataio.bytes_written": ("B", "lower"),
    "core.take.rows": ("count", "lower"),
    "utility.thresholds_swept": ("count", "lower"),
    "utility.ctx_cells": ("count", "lower"),
    "stats.replicates": ("count", "lower"),
    "stats.redraws": ("count", "lower"),
    "stats.useful_ratio": ("ratio", "higher"),
    "simstudy.generate_per_realization": ("count", "lower"),
    "learners.knn_cells": ("count", "lower"),
    "numpy.argsort.calls": ("count", "lower"),
    "numpy.argsort.elements": ("count", "lower"),
}

OVERHEAD = "trace.overhead_s"
PACKAGE = "utileval"


def span_names() -> list[str]:
    return [f"{module}.{name}" for module, names in SPANS.items() for name in names]


def per_layer_metrics() -> list[dict]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    out = []
    for span in span_names():
        out.append({"name": f"{span}.calls", "unit": "count", "better": "lower"})
        out.append({"name": f"{span}.total_s", "unit": "s", "better": "lower"})
        out.append({"name": f"{span}.self_s", "unit": "s", "better": "lower"})
    for name, (unit, better) in COUNTERS.items():
        out.append({"name": name, "unit": unit, "better": better})
    out.append({"name": OVERHEAD, "unit": "s", "better": "lower"})
    return out


class TraceError(RuntimeError):
    """The tracer could not account for every reference to a wrapped function."""


class Tracer:
    """Aggregated spans and counts of one process."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(int)
        self._stack: list[list[float]] = []

    def span(self, name: str, fn, count=None):
        """Wrap ``fn`` so each call is a span named ``name``.

        ``count(tracer, result, arguments)`` runs after the span closes, with
        the call's bound arguments.
        """
        signature = inspect.signature(fn) if count else None
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                self.calls[name] += 1
                self.total[name] += duration
                self.self_time[name] += duration - children[0]
            if count:
                count(self, result, signature.bind(*args, **kwargs).arguments)
            return result

        return wrapper

    def counter(self, fn, count):
        """Wrap ``fn`` for counts only, without a span."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(self, result, signature.bind(*args, **kwargs).arguments)
            return result

        return wrapper

    def metrics(self) -> dict[str, float]:
        """Every span and counter metric; spans never called read 0."""
        out: dict[str, float] = {}
        for span in span_names():
            out[f"{span}.calls"] = self.calls.get(span, 0)
            out[f"{span}.total_s"] = self.total.get(span, 0.0)
            out[f"{span}.self_s"] = self.self_time.get(span, 0.0)
        counts = self.counts
        for name in COUNTERS:
            out[name] = counts.get(name, 0)
        drawn = counts.get("stats.drawn", 0)
        out["stats.useful_ratio"] = counts.get("stats.replicates", 0) / drawn if drawn else 0.0
        realizations = counts.get("simstudy.n_realizations", 0)
        out["simstudy.generate_per_realization"] = (
            self.calls.get("simstudy.generate_realization", 0) / realizations
            if realizations
            else 0.0
        )
        return out


# ---- counters, computed from arguments and return values ----------------


def _rows(features) -> int:
    n = getattr(features, "n", None)
    return int(n) if n is not None else int(np.asarray(features).shape[0])


def _count_read_scores(t, result, a):
    t.counts["dataio.rows_read"] += result.n


def _count_read_features(t, result, a):
    t.counts["dataio.rows_read"] += int(result.labels.size)


def _count_written(t, result, a):
    t.counts["dataio.bytes_written"] += os.path.getsize(a["path"])


def _count_take(t, result, a):
    t.counts["core.take.rows"] += int(np.size(a["indices"]))


def _count_sweep(t, data, coefficients, thresholds: int):
    t.counts["utility.thresholds_swept"] += thresholds
    if not coefficients.is_constant:
        t.counts["utility.ctx_cells"] += data.n * thresholds


def _count_utility_curve(t, result, a):
    _count_sweep(t, a["data"], a["coefficients"], int(result.thresholds.size))


def _count_utility_at_thresholds(t, result, a):
    _count_sweep(t, a["data"], a["coefficients"], int(np.size(a["thresholds"])))


def _count_bootstrap(t, result, a):
    t.counts["stats.replicates"] += result.replicates
    t.counts["stats.redraws"] += result.redraws
    t.counts["stats.drawn"] += result.replicates + result.redraws


def _count_paired(t, result, a):
    t.counts["stats.replicates"] += result.replicates
    t.counts["stats.drawn"] += result.replicates


def _count_realization(t, result, a):
    t.counts["simstudy.n_realizations"] = a["config"].n_realizations


def _count_kfold(t, result, a):
    n = int(np.size(a["labels"]))
    folds = np.array_split(np.arange(n), int(a["n_folds"]))
    t.counts["learners.knn_cells"] += sum(f.size * (n - f.size) for f in folds)


def _count_knn(t, result, a):
    t.counts["learners.knn_cells"] += _rows(a["train_features"]) * _rows(a["test_features"])


def _count_argsort(t, result, a):
    t.counts["numpy.argsort.calls"] += 1
    t.counts["numpy.argsort.elements"] += int(np.size(a["a"]))


COUNTS = {
    "dataio.read_scores": _count_read_scores,
    "dataio.read_features": _count_read_features,
    "dataio.write_json": _count_written,
    "dataio.write_csv": _count_written,
    "core.take": _count_take,
    "utility.utility_curve": _count_utility_curve,
    "utility.utility_at_thresholds": _count_utility_at_thresholds,
    "stats.bootstrap_ci": _count_bootstrap,
    "stats.paired_max_utility_test": _count_paired,
    "simstudy.generate_realization": _count_realization,
    "learners.kfold_cv": _count_kfold,
    "learners.knn_scores": _count_knn,
}


# ---- installation -------------------------------------------------------


def _package_modules() -> list[types.ModuleType]:
    root = importlib.import_module(PACKAGE)
    for info in pkgutil.walk_packages(root.__path__, PACKAGE + "."):
        importlib.import_module(info.name)
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def _references(modules, originals: dict[int, str]) -> list[str]:
    """Where the package still holds an original: module globals, values in
    module-level containers, class attributes and function defaults."""
    found = []

    def visit(where: str, value) -> None:
        if id(value) in originals:
            found.append(f"{where} -> {originals[id(value)]}")

    for module in modules:
        for key, value in vars(module).items():
            where = f"{module.__name__}.{key}"
            visit(where, value)
            if isinstance(value, dict):
                for k, v in value.items():
                    visit(f"{where}[{k!r}]", v)
            elif isinstance(value, (list, tuple, set, frozenset)):
                for v in value:
                    visit(f"{where}[…]", v)
            elif isinstance(value, type) and value.__module__ == module.__name__:
                for k, v in vars(value).items():
                    visit(f"{where}.{k}", v)
            if isinstance(value, types.FunctionType):
                for v in (value.__defaults__ or ()) + tuple((value.__kwdefaults__ or {}).values()):
                    visit(f"{where} default", v)
    return found


def install(tracer: Tracer) -> dict[str, list[str]]:
    """Wrap every traced function of utileval and rebind all references.

    Returns, per span, the module globals that were rebound.  Raises
    :class:`TraceError` when a listed function is missing or a reference to an
    original survives anywhere ``_references`` looks.
    """
    modules = _package_modules()
    wrappers: dict[int, object] = {}
    originals: dict[int, str] = {}
    rebound: dict[str, list[str]] = {}
    for module_name, names in SPANS.items():
        module = sys.modules.get(f"{PACKAGE}.{module_name}")
        if module is None:
            raise TraceError(f"{PACKAGE}.{module_name} is not a module")
        for name in names:
            span = f"{module_name}.{name}"
            if span == "core.take":
                owner = module.LabeledScores
                fn = owner.__dict__["take"]
                setattr(owner, "take", tracer.span(span, fn, COUNTS.get(span)))
                rebound[span] = [f"{module.__name__}.LabeledScores.take"]
                originals[id(fn)] = span
                continue
            fn = getattr(module, name, None)
            if not callable(fn):
                raise TraceError(f"{module.__name__}.{name} is not a function")
            wrappers[id(fn)] = tracer.span(span, fn, COUNTS.get(span))
            originals[id(fn)] = span
            rebound[span] = []
    for module in modules:
        for key, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                setattr(module, key, wrapper)
                rebound[originals[id(value)]].append(f"{module.__name__}.{key}")
    original_argsort = np.argsort
    np.argsort = tracer.counter(original_argsort, _count_argsort)
    originals[id(original_argsort)] = "numpy.argsort"
    left = _references(modules, originals)
    if left:
        raise TraceError("references not rebound: " + "; ".join(left))
    return rebound
