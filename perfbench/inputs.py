"""Seeded inputs for the benchmark workloads, written without the program's help.

Every input is a function of the workload seed alone. The label model is the
latent-threshold one the paper's synthetic experiments use: one latent
severity per example, features a noisy linear embedding of it, and each rater
voting after adding independent noise, so disagreement gathers near the class
boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# equal-mass thresholds of a standard normal latent
QUARTILES = (-0.6744897501960817, 0.0, 0.6744897501960817)
QUINTILES = (-0.8416212335729143, -0.2533471031357997, 0.2533471031357997, 0.8416212335729143)

# one RNG stream per drawn quantity, so sizes can change without reshuffling the rest
_STREAM_LATENT, _STREAM_PROJECTION, _STREAM_FEATURES, _STREAM_RATERS, _STREAM_MISSING = range(5)
_STREAM_PRED = 5


@dataclass(frozen=True)
class VoteTable:
    """Examples with features and per-class vote counts (missing raters dropped)."""

    ids: tuple[str, ...]
    latent: np.ndarray  # (N,) the severity the raters observe with noise
    features: np.ndarray  # (N, d)
    votes: np.ndarray  # (N, R) ints in 1..K, 0 = missing rater
    num_classes: int

    @property
    def counts(self) -> np.ndarray:
        """(N, K) votes per class."""
        k = self.num_classes
        return np.stack([(self.votes == c).sum(axis=1) for c in range(1, k + 1)], axis=1)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


def vote_table(
    seed: int,
    n: int,
    thresholds: tuple[float, ...],
    n_raters: int,
    rater_noise_sd: float,
    missing_rate: float = 0.0,
    n_features: int = 4,
    feature_noise_sd: float = 0.1,
) -> VoteTable:
    """Latent-threshold examples; each example keeps at least one rater."""
    th = np.asarray(thresholds)
    latent = _rng(seed, _STREAM_LATENT).standard_normal(n)
    projection = _rng(seed, _STREAM_PROJECTION).standard_normal(n_features)
    features = latent[:, None] * projection + feature_noise_sd * _rng(
        seed, _STREAM_FEATURES
    ).standard_normal((n, n_features))
    observed = latent[:, None] + rater_noise_sd * _rng(seed, _STREAM_RATERS).standard_normal(
        (n, n_raters)
    )
    votes = 1 + (observed[:, :, None] > th).sum(axis=2)
    if missing_rate > 0.0:
        missing = _rng(seed, _STREAM_MISSING).random((n, n_raters)) < missing_rate
        missing[missing.all(axis=1), 0] = False
        votes[missing] = 0
    width = len(str(n))
    ids = tuple(f"x{i + 1:0{width}d}" for i in range(n))
    return VoteTable(ids, latent, features, votes, len(th) + 1)


def _write_lines(path, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_counts_csv(table: VoteTable, path) -> None:
    """``id, f_*, c_1..c_K`` layout."""
    d = table.features.shape[1]
    k = table.num_classes
    header = ["id"] + [f"f_{j + 1}" for j in range(d)] + [f"c_{c}" for c in range(1, k + 1)]
    lines = [",".join(header)]
    for i, counts in enumerate(table.counts):
        fields = [table.ids[i]] + [repr(float(x)) for x in table.features[i]]
        lines.append(",".join(fields + [str(int(c)) for c in counts]))
    _write_lines(path, lines)


def write_raters_csv(table: VoteTable, path) -> None:
    """``id, f_*, r_1..r_R`` layout; a missing rater is a blank cell."""
    d = table.features.shape[1]
    r = table.votes.shape[1]
    header = ["id"] + [f"f_{j + 1}" for j in range(d)] + [f"r_{j + 1}" for j in range(r)]
    lines = [",".join(header)]
    for i, votes in enumerate(table.votes):
        fields = [table.ids[i]] + [repr(float(x)) for x in table.features[i]]
        lines.append(",".join(fields + [str(int(v)) if v else "" for v in votes]))
    _write_lines(path, lines)


@dataclass(frozen=True)
class RecordTable:
    """Columns of a records.csv: ids, soft labels, predicted distributions, decodes."""

    ids: tuple[str, ...]
    soft: np.ndarray  # (N, K) vote fractions
    pred: np.ndarray  # (N, K) predicted distributions
    pred_hard: np.ndarray  # (N,) 1-based

    @property
    def hard(self) -> np.ndarray:
        return np.argmax(self.soft, axis=1) + 1  # lowest class on ties

    @property
    def weight(self) -> np.ndarray:
        return self.soft.max(axis=1)


def record_table(seed: int, n: int, thresholds: tuple[float, ...], n_raters: int) -> RecordTable:
    """Evaluation records of a plausible, imperfect predictor.

    Soft labels are vote fractions of untied latent-threshold examples. The
    predicted distribution is a softmax around a noisy latent estimate, so
    confidence, correctness and calibration all vary from row to row. The
    decode is argmax, lowest class on ties.
    """
    # draw extra examples, then keep the first n with a unique mode
    table = vote_table(seed, 2 * n + 100, thresholds, n_raters, rater_noise_sd=0.6)
    counts = table.counts
    unique_mode = (counts == counts.max(axis=1, keepdims=True)).sum(axis=1) == 1
    keep = np.flatnonzero(unique_mode)[:n]
    if keep.size < n:
        raise RuntimeError(f"only {keep.size} untied examples drawn, need {n}")
    soft = counts[keep] / counts[keep].sum(axis=1, keepdims=True)
    k = table.num_classes
    rng = _rng(seed, _STREAM_PRED)
    # a smooth class position: 1 plus a soft count of the thresholds passed
    noisy = table.latent[keep] + 0.4 * rng.standard_normal(n)
    estimate = 1.0 + (1.0 / (1.0 + np.exp(-(noisy[:, None] - np.asarray(thresholds)) / 0.25))).sum(axis=1)
    sharpness = rng.uniform(0.3, 3.0, size=n)
    logits = -sharpness[:, None] * (np.arange(1, k + 1)[None, :] - estimate[:, None]) ** 2
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    pred = e / e.sum(axis=1, keepdims=True)
    width = len(str(n))
    ids = tuple(f"r{i + 1:0{width}d}" for i in range(n))
    return RecordTable(ids, soft, pred, np.argmax(pred, axis=1) + 1)


def write_records_csv(records: RecordTable, path) -> None:
    """The program's records.csv layout, floats written round-trip exact."""
    k = records.soft.shape[1]
    header = (["id", "hard", "pred_hard", "weight"] + [f"soft_{c}" for c in range(1, k + 1)]
              + [f"pred_{c}" for c in range(1, k + 1)])
    lines = [",".join(header)]
    hard, weight = records.hard, records.weight
    for i in range(len(records.ids)):
        fields = [records.ids[i], str(int(hard[i])), str(int(records.pred_hard[i])),
                  repr(float(weight[i]))]
        fields += [repr(float(x)) for x in records.soft[i]]
        fields += [repr(float(x)) for x in records.pred[i]]
        lines.append(",".join(fields))
    _write_lines(path, lines)
