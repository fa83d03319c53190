"""Output checks for the benchmark workloads, computed apart from the program.

Nothing here imports ``ordreg``. The metric suite is re-derived with NumPy
from the definitions in the program's README and docstrings, and the cv
checks decide from the vote counts the benchmark wrote which examples must
reach evaluation, and with which labels.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

TOL = 1e-9
LOG_EPS = 1e-12  # the documented clamp of the cross-entropy metric
NUM_BINS = 10

SOFTMAX_HEAD_METHODS = ("ce", "ce_soft", "sord_ae", "sord_se")
TASK_HEAD_METHODS = ("or_cnn", "or_soft", "coral", "coral_soft", "corn")

METRIC_NAMES = (
    "mae_uw", "qwk_uw", "accuracy_uw", "accuracy_ar", "ece", "aurc", "brier",
    "cross_entropy", "coverage_error", "auroc_macro", "spearman", "mae", "qwk", "accuracy",
)


class CheckError(AssertionError):
    """A program output disagrees with the independent computation."""


# ===== the metric suite =====


def average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks, tied values sharing the mean of their positions."""
    values, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    first = np.cumsum(counts) - counts  # 0-based position of each group's first member
    return (first + (counts + 1) / 2.0)[inverse]


def kappa(a: np.ndarray, b: np.ndarray, k: int, weights: np.ndarray) -> Optional[float]:
    """Quadratic weighted kappa from a weighted k x k contingency table; None if undefined."""
    table = np.bincount((a - 1) * k + (b - 1), weights=weights, minlength=k * k).reshape(k, k)
    idx = np.arange(k, dtype=np.float64)
    penalty = (idx[:, None] - idx[None, :]) ** 2
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / table.sum()
    s_exp = float((penalty * expected).sum())
    if s_exp == 0.0:
        return None
    return 1.0 - float((penalty * table).sum()) / s_exp


def bin_index(conf: np.ndarray, num_bins: int) -> np.ndarray:
    """Equal-width bins over (0, 1]; a value on an edge belongs to the lower bin."""
    uppers = np.linspace(0.0, 1.0, num_bins + 1)[1:]
    return np.minimum((conf[:, None] > uppers[None, :]).sum(axis=1), num_bins - 1)


def aurc_risks(conf: np.ndarray, weight: np.ndarray, correct: np.ndarray) -> np.ndarray:
    """Weighted error among the n most confident records, for n = 1..N (stable ties)."""
    order = np.argsort(-conf, kind="stable")
    w = weight[order]
    return 1.0 - np.cumsum(w * correct[order]) / np.cumsum(w)


def metric_suite(soft: np.ndarray, pred: np.ndarray, pred_hard: np.ndarray,
                 num_bins: int = NUM_BINS) -> dict:
    """All 14 report metrics plus ``missing_classes``, from the record columns."""
    n, k = soft.shape
    hard = np.argmax(soft, axis=1) + 1
    w = soft.max(axis=1)
    rows = np.arange(n)
    err = np.abs(pred_hard - hard).astype(np.float64)
    correct = (pred_hard == hard).astype(np.float64)
    conf = pred.max(axis=1)
    true_acc = soft[rows, pred_hard - 1]

    bins = bin_index(conf, num_bins)
    ece = 0.0
    for b in range(num_bins):
        members = bins == b
        if members.any():
            ece += members.sum() / n * abs(conf[members].mean() - true_acc[members].mean())

    # rank of class c: classes with higher probability, then equal ones below c, come first
    higher = (pred[:, None, :] > pred[:, :, None]).sum(axis=2)
    lower_ties = np.tril(np.ones((k, k), dtype=bool), -1)[None] & (pred[:, None, :] == pred[:, :, None])
    rank = 1 + higher + lower_ties.sum(axis=2)
    coverage = np.where(soft > 0.0, rank, 0).max(axis=1)

    aucs = []
    for c in range(1, k + 1):
        pos = hard == c
        n_pos, n_neg = int(pos.sum()), int((~pos).sum())
        if n_pos and n_neg:
            ranks = average_ranks(pred[:, c - 1])
            aucs.append((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))

    spearman = None
    if np.ptp(pred_hard) > 0 and np.ptp(hard) > 0:
        ra = average_ranks(pred_hard.astype(np.float64))
        rb = average_ranks(hard.astype(np.float64))
        spearman = float(np.corrcoef(ra, rb)[0, 1])

    values = {
        "mae_uw": float((w * err).sum() / w.sum()),
        "qwk_uw": kappa(hard, pred_hard, k, w),
        "accuracy_uw": float((w * correct).sum() / w.sum()),
        "accuracy_ar": float((true_acc > 0.0).mean()),
        "ece": float(ece),
        "aurc": float(aurc_risks(conf, w, correct).mean()),
        "brier": float(((pred - soft) ** 2).sum(axis=1).mean()),
        "cross_entropy": float(
            -(soft * np.log(np.clip(pred, LOG_EPS, 1.0 - LOG_EPS))).sum(axis=1).mean()
        ),
        "coverage_error": float(coverage.mean()),
        "auroc_macro": float(np.mean(aucs)) if aucs else None,
        "spearman": spearman,
        "mae": float(err.mean()),
        "qwk": kappa(hard, pred_hard, k, np.ones(n)),
        "accuracy": float(correct.mean()),
    }
    present = set(hard.tolist())
    return {"metrics": values, "num_records": n,
            "missing_classes": [c for c in range(1, k + 1) if c not in present]}


def compare_report(report: dict, expected: dict, where: str) -> None:
    """A metrics.json document against :func:`metric_suite` output."""
    for name in METRIC_NAMES:
        got, want = report["metrics"].get(name), expected["metrics"][name]
        if (got is None) != (want is None) or (
            want is not None and not abs(got - want) <= TOL
        ):
            raise CheckError(f"{where}: metric {name} is {got!r}, recomputed {want!r}")
    if report["num_records"] != expected["num_records"]:
        raise CheckError(f"{where}: num_records {report['num_records']} != {expected['num_records']}")
    if list(report["missing_classes"]) != expected["missing_classes"]:
        raise CheckError(f"{where}: missing_classes {report['missing_classes']!r}")
    undefined = [n for n in METRIC_NAMES if expected["metrics"][n] is None]
    if sorted(report["undefined"]) != sorted(undefined):
        raise CheckError(f"{where}: undefined {report['undefined']!r}, expected {undefined!r}")


# ===== records.csv =====


class Records:
    """The columns of one records.csv, parsed here without the program."""

    def __init__(self, path: Path):
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], [r for r in rows[1:] if r]
        col = {name: i for i, name in enumerate(header)}
        k = sum(1 for name in header if name.startswith("soft_"))
        self.ids = [r[col["id"]] for r in body]
        self.hard = np.array([int(r[col["hard"]]) for r in body])
        self.pred_hard = np.array([int(r[col["pred_hard"]]) for r in body])
        self.weight = np.array([float(r[col["weight"]]) for r in body])
        self.soft = np.array([[float(r[col[f"soft_{c}"]]) for c in range(1, k + 1)] for r in body])
        self.pred = np.array([[float(r[col[f"pred_{c}"]]) for c in range(1, k + 1)] for r in body])


def decode(pred: np.ndarray, method: str) -> tuple[np.ndarray, np.ndarray]:
    """The method's decode of each row, and a mask of rows too close to a boundary to judge.

    Softmax heads take the argmax, lowest class on ties. Task heads count the
    tail masses sum_{j>k} pred_j above 0.5.
    """
    if method in SOFTMAX_HEAD_METHODS:
        return np.argmax(pred, axis=1) + 1, np.zeros(len(pred), dtype=bool)
    tails = np.cumsum(pred[:, ::-1], axis=1)[:, ::-1][:, 1:]
    return 1 + (tails > 0.5).sum(axis=1), (np.abs(tails - 0.5) < 1e-12).any(axis=1)


# ===== cv workloads =====


def check_cv(out: Path, ids: Sequence[str], counts: np.ndarray, methods: Sequence[str],
             folds: int) -> None:
    """Every (method, fold) output of one ``ordreg cv`` run.

    ``counts`` holds the (N, K) vote counts the benchmark wrote for the
    examples ``ids``. Raises :class:`CheckError` on the first disagreement.
    """
    soft_of = dict(zip(ids, counts / counts.sum(axis=1, keepdims=True)))
    modal = counts == counts.max(axis=1, keepdims=True)
    untied = {i for i, m in zip(ids, modal) if m.sum() == 1}
    label_of = dict(zip(ids, np.argmax(counts, axis=1) + 1))  # lowest modal class
    summary = json.loads((out / "summary.json").read_text())

    for method in methods:
        block = summary["methods"].get(method)
        if block is None:
            raise CheckError(f"{method}: missing from summary.json")
        statuses = {f["fold"]: f["status"] for f in block["folds"]}
        if statuses != {f: "ok" for f in range(1, folds + 1)}:
            raise CheckError(f"{method}: fold statuses {statuses}")
        seen: set[str] = set()
        per_fold = []
        for fold in range(1, folds + 1):
            where = f"{method}/fold_{fold}"
            fold_dir = out / method / f"fold_{fold}"
            if not (fold_dir / "records.csv").is_file() or not (fold_dir / "metrics.json").is_file():
                raise CheckError(f"{where}: records.csv or metrics.json missing")
            rec = Records(fold_dir / "records.csv")
            if seen.intersection(rec.ids) or len(set(rec.ids)) != len(rec.ids):
                raise CheckError(f"{where}: a record id repeats within or across folds")
            seen.update(rec.ids)
            unknown = set(rec.ids) - set(soft_of)
            if unknown:
                raise CheckError(f"{where}: unknown record ids {sorted(unknown)[:3]}")
            tied = set(rec.ids) - untied
            if tied:
                raise CheckError(f"{where}: tie-excluded examples in records: {sorted(tied)[:3]}")
            want_soft = np.array([soft_of[i] for i in rec.ids])
            if not np.array_equal(rec.soft, want_soft):
                raise CheckError(f"{where}: soft_k differs from the written vote fractions")
            if not np.array_equal(rec.weight, want_soft.max(axis=1)):
                raise CheckError(f"{where}: weight is not the soft label's maximum")
            if not np.array_equal(rec.hard, np.array([label_of[i] for i in rec.ids])):
                raise CheckError(f"{where}: hard is not the lowest modal class")
            if (rec.pred < 0.0).any() or (np.abs(rec.pred.sum(axis=1) - 1.0) > TOL).any():
                raise CheckError(f"{where}: a pred_* row is not a distribution")
            decoded, unsure = decode(rec.pred, method)
            wrong = (decoded != rec.pred_hard) & ~unsure
            if wrong.any():
                raise CheckError(f"{where}: pred_hard breaks the decode rule on row {int(np.argmax(wrong)) + 2}")
            expected = metric_suite(rec.soft, rec.pred, rec.pred_hard)
            compare_report(json.loads((fold_dir / "metrics.json").read_text()), expected, where)
            per_fold.append((rec, expected["metrics"]))
        if seen != untied:
            raise CheckError(f"{method}: {len(untied - seen)} examples with a unique mode"
                             " are in no fold's records")
        for name in METRIC_NAMES:
            values = [m[name] for _, m in per_fold if m[name] is not None]
            mean = block["mean"][name]
            if values and (mean is None or not abs(mean - math.fsum(values) / len(values)) <= TOL):
                raise CheckError(f"{method}: summary mean of {name} is {mean!r}")
        # predicting the majority class of the examples outside the test fold
        baseline = []
        for rec, _ in per_fold:
            rest = [label_of[i] for i in untied - set(rec.ids)]
            majority = int(np.argmax(np.bincount(rest)))  # lowest class on ties
            baseline.append((rec.weight * np.abs(rec.hard - majority)).sum() / rec.weight.sum())
        if not block["mean"]["mae_uw"] < np.mean(baseline):
            raise CheckError(
                f"{method}: mean mae_uw {block['mean']['mae_uw']:.4f} does not beat the"
                f" majority-class baseline {np.mean(baseline):.4f}"
            )


# ===== evaluate-records workload =====


def check_evaluate(report_path: Path, curves_dir: Path, soft: np.ndarray, pred: np.ndarray,
                   pred_hard: np.ndarray) -> None:
    """``ordreg evaluate`` and ``ordreg curves`` outputs for the written records."""
    expected = metric_suite(soft, pred, pred_hard)
    compare_report(json.loads(report_path.read_text()), expected, "evaluate")

    k = soft.shape[1]
    hard = np.argmax(soft, axis=1) + 1
    table = np.bincount((hard - 1) * k + (pred_hard - 1), minlength=k * k).reshape(k, k)
    confusion = np.loadtxt(curves_dir / "confusion.csv", delimiter=",", ndmin=2)
    if not np.array_equal(confusion, table):
        raise CheckError("curves: confusion.csv counts differ from the records")
    sums = table.sum(axis=1, keepdims=True)
    normalized = np.divide(table, sums, out=np.zeros((k, k)), where=sums > 0)
    got = np.loadtxt(curves_dir / "confusion_row_normalized.csv", delimiter=",", ndmin=2)
    if not np.allclose(got, normalized, rtol=0.0, atol=TOL):
        raise CheckError("curves: confusion_row_normalized.csv differs from the records")

    with open(curves_dir / "calibration.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    bins = bin_index(pred.max(axis=1), NUM_BINS)
    want_counts = np.bincount(bins, minlength=NUM_BINS)
    if [int(r["count"]) for r in rows] != want_counts.tolist():
        raise CheckError("curves: calibration.csv bin counts differ from the records")
    conf = pred.max(axis=1)
    for b, row in enumerate(rows):
        if want_counts[b] and not abs(float(row["mean_confidence"]) - conf[bins == b].mean()) <= TOL:
            raise CheckError(f"curves: calibration.csv bin {b + 1} mean confidence differs")

    correct = (pred_hard == hard).astype(np.float64)
    risks = aurc_risks(conf, soft.max(axis=1), correct)
    area = float((curves_dir / "aurc.txt").read_text())
    if not abs(area - risks.mean()) <= TOL:
        raise CheckError(f"curves: aurc.txt is {area!r}, recomputed {risks.mean()!r}")
    points = np.loadtxt(curves_dir / "risk_coverage.csv", delimiter=",", skiprows=1, ndmin=2)
    if points.shape != (len(risks), 2) or not np.allclose(points[:, 1], risks, rtol=0.0, atol=TOL):
        raise CheckError("curves: risk_coverage.csv differs from the records")
