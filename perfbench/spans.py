"""Per-layer spans recorded from outside the program.

:class:`Tracer` swaps chosen ``ordreg`` functions for timing wrappers at the
names their callers look up (``ordreg.harness.loss_and_gradient``,
``ordreg.cli.read_records_csv``, ...), and puts the originals back when the
traced round ends. Spans stay in memory until the run writes them out.

Calls the model makes into ``losses`` go through the module object
``losses_mod``; the tracer hands ``model`` and ``harness`` a copy of that
module with wrapped functions, so the metric suite's own use of
``ce_soft_loss`` is not counted as training work.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import time
import types
from array import array
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Optional

import numpy as np


def _n_rows(x) -> int:
    return int(np.atleast_2d(np.asarray(x)).shape[0])


# (module whose global is replaced, attribute, span name, work measure, work count, tag)
# The work count sees (args, result); the tag splits a span's time by an argument.
_SITES: tuple = (
    ("ordreg.harness", "loss_and_gradient", "model.loss_and_gradient", "examples",
     lambda a, r: len(a[1]), lambda a: a[2]),
    ("ordreg.harness", "adam_step", "model.adam_step", None, None, None),
    ("ordreg.harness", "forward", "model.forward", "rows", lambda a, r: _n_rows(a[1]), None),
    ("ordreg.harness", "init_params", "model.init_params", None, None, None),
    ("ordreg.model", "sord_soft_label", "core.sord_soft_label", None, None, None),
    ("ordreg.harness", "class_distribution_from_tasks", "core.class_distribution_from_tasks",
     None, None, None),
    ("ordreg.harness", "train_one", "harness.train_one", None, None, None),
    ("ordreg.harness", "predict_prob_matrix", "harness.predict_prob_matrix", "rows",
     lambda a, r: _n_rows(a[2]), None),
    ("ordreg.harness", "decode_distribution", "harness.decode_distribution", None, None, None),
    ("ordreg.cli", "run_cv", "harness.run_cv", None, None, None),
    ("ordreg.harness", "records_csv_text", "harness.records_csv_text", None, None, None),
    ("ordreg.cli", "write_experiment_result", "harness.write_experiment_result", None, None, None),
    ("ordreg.cli", "read_records_csv", "harness.read_records_csv", "rows",
     lambda a, r: len(r), None),
    ("ordreg.harness", "eval_record", "metrics.eval_record", None, None, None),
    ("ordreg.harness", "compute_metric_report", "metrics.compute_metric_report", "records",
     lambda a, r: len(a[0]), None),
    ("ordreg.cli", "compute_metric_report", "metrics.compute_metric_report", "records",
     lambda a, r: len(a[0]), None),
    *(("ordreg.metrics", name, f"metrics.{name}", None, None, None) for name in (
        "mae", "accuracy", "qwk", "any_rater_accuracy", "ece", "aurc", "brier",
        "cross_entropy_metric", "coverage_error", "auroc_macro", "spearman", "missing_classes")),
    *(("ordreg.cli", name, f"metrics.{name}", None, None, None)
      for name in ("calibration_curve", "risk_coverage", "confusion_matrix")),
    ("ordreg.cli", "load_csv", "data.load_csv", "rows", lambda a, r: len(r), None),
    ("ordreg.harness", "stratified_k_fold", "data.stratified_k_fold", None, None, None),
    ("ordreg.harness", "resolve_ties", "data.resolve_ties", None, None, None),
    ("ordreg.harness", "atomic_write_text", "ioutil.atomic_write_text", "bytes",
     lambda a, r: len(a[1].encode("utf-8")), None),
    ("ordreg.cli", "atomic_write_text", "ioutil.atomic_write_text", "bytes",
     lambda a, r: len(a[1].encode("utf-8")), None),
)

_LOSS_FUNCTIONS = ("or_cnn_loss", "or_soft_loss", "ce_loss", "ce_soft_loss", "corn_loss",
                   "corn_unconditional")
_LOSS_CALLERS = ("ordreg.model", "ordreg.harness")

LOSS_KINDS = ("ce", "ce_soft", "or_cnn", "or_soft", "corn", "sord_ae", "sord_se")

# the per-layer metrics a traced run reports: (name, unit)
PER_LAYER: tuple[tuple[str, str], ...] = (
    *((f"model.loss_and_gradient.{m}", u) for m, u in
      (("calls", "count"), ("examples", "count"), ("s", "s"), ("self_s", "s"))),
    *((f"model.loss_and_gradient.{kind}.s", "s") for kind in LOSS_KINDS),
    ("model.adam_step.calls", "count"), ("model.adam_step.s", "s"),
    ("model.forward.calls", "count"), ("model.forward.rows", "count"), ("model.forward.s", "s"),
    ("model.init_params.s", "s"),
    *((f"losses.{fn}.{m}", u) for fn in _LOSS_FUNCTIONS for m, u in (("calls", "count"), ("s", "s"))),
    ("core.sord_soft_label.calls", "count"), ("core.sord_soft_label.s", "s"),
    ("core.class_distribution_from_tasks.calls", "count"),
    ("core.class_distribution_from_tasks.s", "s"),
    ("harness.train_one.calls", "count"), ("harness.train_one.s", "s"),
    ("harness.train_one.self_s", "s"),
    ("harness.predict_prob_matrix.calls", "count"), ("harness.predict_prob_matrix.rows", "count"),
    ("harness.predict_prob_matrix.s", "s"), ("harness.predict_prob_matrix.self_s", "s"),
    ("harness.decode_distribution.calls", "count"), ("harness.decode_distribution.s", "s"),
    ("harness.run_cv.s", "s"),
    ("harness.records_csv_text.calls", "count"), ("harness.records_csv_text.s", "s"),
    ("harness.write_experiment_result.s", "s"),
    ("harness.read_records_csv.rows", "count"), ("harness.read_records_csv.s", "s"),
    ("metrics.eval_record.calls", "count"), ("metrics.eval_record.s", "s"),
    ("metrics.compute_metric_report.calls", "count"),
    ("metrics.compute_metric_report.records", "count"),
    ("metrics.compute_metric_report.s", "s"), ("metrics.compute_metric_report.self_s", "s"),
    *((f"metrics.{name}.s", "s") for name in (
        "mae", "accuracy", "qwk", "any_rater_accuracy", "ece", "aurc", "brier",
        "cross_entropy_metric", "coverage_error", "auroc_macro", "spearman", "missing_classes",
        "calibration_curve", "risk_coverage", "confusion_matrix")),
    ("data.load_csv.rows", "count"), ("data.load_csv.s", "s"),
    ("data.stratified_k_fold.calls", "count"), ("data.stratified_k_fold.s", "s"),
    ("data.resolve_ties.calls", "count"), ("data.resolve_ties.s", "s"),
    ("ioutil.atomic_write_text.calls", "count"), ("ioutil.atomic_write_text.bytes", "bytes"),
    ("ioutil.atomic_write_text.s", "s"),
    ("trace.jobs", "count"), ("trace.overhead_s", "s"),
)


class Tracer:
    """Spans of the traced rounds, one list per field, indexed by span id."""

    def __init__(self) -> None:
        self.name: list[str] = []
        self.tag: list[Optional[str]] = []
        self.parent = array("q")  # -1 for a root span
        self.round = array("q")
        self.start = array("q")  # perf_counter_ns
        self.end = array("q")
        self.work = array("q")
        self._stack: list[int] = []
        self._round = 0

    def _wrap(self, fn: Callable, name: str, work: Optional[Callable],
              tag: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(self.name)
            self.name.append(name)
            self.tag.append(tag(args) if tag else None)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.round.append(self._round)
            self.end.append(0)
            self.work.append(0)
            self._stack.append(span)
            self.start.append(time.perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[span] = time.perf_counter_ns()
                self._stack.pop()
            if work:
                self.work[span] = work(args, result)
            return result

        return traced

    @contextmanager
    def round_traced(self, round_id: int):
        """Install the wrappers for one round; the program is unpatched outside it."""
        self._round = round_id
        saved = []
        try:
            for module_name, attr, name, _, work, tag in _SITES:
                module = importlib.import_module(module_name)
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self._wrap(getattr(module, attr), name, work, tag))
            losses = importlib.import_module("ordreg.losses")
            proxy = types.ModuleType(losses.__name__, losses.__doc__)
            proxy.__dict__.update(vars(losses))
            for fn in _LOSS_FUNCTIONS:
                setattr(proxy, fn, self._wrap(getattr(losses, fn), f"losses.{fn}", None, None))
            for module_name in _LOSS_CALLERS:
                module = importlib.import_module(module_name)
                saved.append((module, "losses_mod", module.losses_mod))
                module.losses_mod = proxy
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def round_metrics(self, round_id: int) -> dict[str, float]:
        """Per-layer totals of one round: calls, s, self_s, work counts, per-tag s."""
        ids = [i for i, r in enumerate(self.round) if r == round_id]
        dur = {i: (self.end[i] - self.start[i]) * 1e-9 for i in ids}
        child = defaultdict(float)
        for i in ids:
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        out: dict[str, float] = defaultdict(float)
        for i in ids:
            name = self.name[i]
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += dur[i]
            out[f"{name}.self_s"] += dur[i] - child[i]
            if self.work[i]:
                out[f"{name}.{_WORK_MEASURE[name]}"] += self.work[i]
            if self.tag[i] is not None:
                out[f"{name}.{self.tag[i]}.s"] += dur[i]
        return dict(out)

    def write(self, path) -> None:
        """All spans as gzipped CSV: id, round, parent, name, tag, start_ns, end_ns, work."""
        with gzip.open(path, "wt", encoding="utf-8", newline="", compresslevel=1) as fh:
            fh.write("id,round,parent,name,tag,start_ns,end_ns,work\n")
            for i in range(len(self.name)):
                fh.write(f"{i},{self.round[i]},{self.parent[i]},{self.name[i]},"
                         f"{self.tag[i] or ''},{self.start[i]},{self.end[i]},{self.work[i]}\n")


_WORK_MEASURE = {name: measure for _, _, name, measure, _, _ in _SITES if measure}
