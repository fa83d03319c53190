"""Datasets for multi-rater ordinal labels: synthetic generation, CSV I/O, splits.

A :class:`Dataset` stores features plus the raw per-rater votes and keeps the
derived label views (soft distribution, mode, exceedance vector, tie flag)
precomputed and consistent with the votes. Examples whose vote distribution
has no unique mode are "tied"; policy for ties lives in :func:`resolve_ties`.

Every operation that draws randomness builds its own generator from
``numpy.random.default_rng([seed, stream])`` with a fixed per-operation
stream constant, so results depend only on the seed passed in, never on
call order or global state.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (
    InputError,
    ProblemSpec,
    Tie,
    check_class_index,
    exceedance_from_soft,
    modal_mask,
)

TIE_POLICY_RESAMPLE = "exclude_eval_resample_train"
TIE_POLICY_LOWEST = "lowest_class"
ALL_TIE_POLICIES = (TIE_POLICY_RESAMPLE, TIE_POLICY_LOWEST)

# RNG stream constants; each seeded operation owns one
_STREAM_LATENT = 21
_STREAM_PROJECTION = 22
_STREAM_FEATURE_NOISE = 23
_STREAM_RATER_NOISE = 24
_STREAM_FOLD_DEAL = 31
_STREAM_TRAIN_VAL = 32


@dataclass(frozen=True)
class Dataset:
    """Immutable feature/vote table with derived label views.

    ``hard`` holds each example's mode class, lowest class first on tied
    modes; ``tie_classes`` is None for untied examples and the Tie otherwise.
    Construct through :func:`dataset_from_votes`, which derives and checks
    the label views.
    """

    spec: ProblemSpec
    ids: tuple[str, ...]
    features: np.ndarray
    votes: tuple[tuple[int, ...], ...]
    soft: np.ndarray
    hard: np.ndarray
    tie_classes: tuple[Optional[Tie], ...]
    exceed: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.ids)
        if not (
            len(self.votes) == n
            and self.features.shape[0] == n
            and self.soft.shape == (n, self.spec.num_classes)
            and self.hard.shape == (n,)
            and len(self.tie_classes) == n
            and self.exceed.shape == (n, self.spec.num_classes - 1)
        ):
            raise InputError("dataset arrays disagree on the number of examples")
        for arr in (self.features, self.soft, self.hard, self.exceed):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def num_features(self) -> int:
        return int(self.features.shape[1])

    @property
    def tied_mask(self) -> np.ndarray:
        return np.asarray([t is not None for t in self.tie_classes])

    def subset(self, indices: Sequence[int]) -> "Dataset":
        idx = [int(i) for i in indices]
        return Dataset(
            spec=self.spec,
            ids=tuple(self.ids[i] for i in idx),
            features=self.features[idx].copy(),
            votes=tuple(self.votes[i] for i in idx),
            soft=self.soft[idx].copy(),
            hard=self.hard[idx].copy(),
            tie_classes=tuple(self.tie_classes[i] for i in idx),
            exceed=self.exceed[idx].copy(),
        )


def _vote_matrix(
    votes: Sequence[Sequence[int]], spec: ProblemSpec
) -> tuple[np.ndarray, tuple[tuple[int, ...], ...]]:
    """The (N, K) vote counts and the votes as int tuples.

    Integer votes in range are checked as one array. Anything else goes
    through the per-vote checks of :func:`soft_label_from_votes`, in example
    order, so the first bad example raises that function's message.
    """
    lengths = np.array([len(v) for v in votes], dtype=np.int64)
    try:
        flat = np.array([x for v in votes for x in v])
    except (OverflowError, TypeError, ValueError):
        flat = np.array([], dtype=object)
    if (
        flat.dtype.kind not in "iu" or not lengths.all()
        or flat.min() < 1 or flat.max() > spec.num_classes
    ):
        checked: list[int] = []
        for v in votes:
            if len(v) == 0:
                raise InputError("votes must be non-empty")
            checked.extend(check_class_index(x, spec) for x in v)
        flat = np.array(checked, dtype=np.int64)
    n, k = len(votes), spec.num_classes
    owner = np.repeat(np.arange(n), lengths)
    counts = np.bincount(owner * k + flat - 1, minlength=n * k).reshape(n, k)
    values = flat.tolist()
    ends = np.cumsum(lengths).tolist()
    clean = tuple(tuple(values[a:b]) for a, b in zip([0, *ends[:-1]], ends))
    return counts, clean


def dataset_from_votes(
    spec: ProblemSpec,
    features,
    votes: Sequence[Sequence[int]],
    ids: Optional[Sequence[str]] = None,
) -> Dataset:
    """Assemble a Dataset, deriving soft/hard/exceedance labels from the votes.

    The soft labels are the vote fractions. The mode is the lowest class of
    :func:`core.modal_mask`, the rule :func:`core.hard_label_from_soft` uses,
    and an example with more than one modal class is tied.
    """
    feats = np.array(features, dtype=np.float64)
    if feats.ndim != 2:
        raise InputError(f"features must be a 2-d array, got shape {feats.shape}")
    n = feats.shape[0]
    if len(votes) != n:
        raise InputError("features and votes disagree on the number of examples")
    if ids is None:
        ids = tuple(str(i + 1) for i in range(n))
    elif len(ids) != n:
        raise InputError("ids and features disagree on the number of examples")
    if len(set(ids)) != n:
        raise InputError("example ids must be unique")
    finite = np.isfinite(feats).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise InputError(f"example index {i} (id {ids[i]!r}) has a non-finite feature value")

    counts, clean_votes = _vote_matrix(votes, spec)
    soft = counts / counts.sum(axis=1, keepdims=True)
    top = modal_mask(soft)
    ties: list[Optional[Tie]] = [None] * n
    for i in np.flatnonzero(top.sum(axis=1) > 1).tolist():
        ties[i] = Tie(tuple((np.flatnonzero(top[i]) + 1).tolist()))
    k = spec.num_classes
    return Dataset(
        spec=spec,
        ids=tuple(str(s) for s in ids),
        features=feats,
        votes=clean_votes,
        soft=soft,
        hard=np.argmax(top, axis=1).astype(np.int64) + 1,
        tie_classes=tuple(ties),
        exceed=exceedance_from_soft(soft) if n else np.empty((0, k - 1)),
    )


@dataclass(frozen=True)
class SyntheticConfig:
    """Latent-threshold generator settings.

    One latent severity per example; the true class counts how many
    thresholds the latent exceeds, features are a noisy linear embedding of
    the latent, and each rater votes after observing the latent plus
    independent rater noise. Rater disagreement therefore concentrates near
    thresholds, the way borderline cases behave.
    """

    n_examples: int
    n_features: int
    num_classes: int
    n_raters: int
    thresholds: tuple[float, ...]
    feature_noise_sd: float
    rater_noise_sd: float
    seed: int

    def __post_init__(self) -> None:
        if min(self.n_examples, self.n_features, self.n_raters) < 1:
            raise InputError("n_examples, n_features, n_raters must all be >= 1")
        if self.num_classes < 2:
            raise InputError("num_classes must be >= 2")
        th = tuple(float(t) for t in self.thresholds)
        if len(th) != self.num_classes - 1:
            raise InputError(
                f"need {self.num_classes - 1} thresholds for {self.num_classes} classes, got {len(th)}"
            )
        if any(b <= a for a, b in zip(th, th[1:])):
            raise InputError("thresholds must be strictly increasing")
        if self.feature_noise_sd < 0 or self.rater_noise_sd < 0:
            raise InputError("noise standard deviations must be >= 0")
        object.__setattr__(self, "thresholds", th)

    def to_dict(self) -> dict:
        return {
            "n_examples": self.n_examples,
            "n_features": self.n_features,
            "num_classes": self.num_classes,
            "n_raters": self.n_raters,
            "thresholds": list(self.thresholds),
            "feature_noise_sd": self.feature_noise_sd,
            "rater_noise_sd": self.rater_noise_sd,
            "seed": self.seed,
        }

    @staticmethod
    def from_dict(doc: dict) -> "SyntheticConfig":
        try:
            return SyntheticConfig(
                n_examples=int(doc["n_examples"]),
                n_features=int(doc["n_features"]),
                num_classes=int(doc["num_classes"]),
                n_raters=int(doc["n_raters"]),
                thresholds=tuple(float(t) for t in doc["thresholds"]),
                feature_noise_sd=float(doc["feature_noise_sd"]),
                rater_noise_sd=float(doc["rater_noise_sd"]),
                seed=int(doc["seed"]),
            )
        except KeyError as missing:
            raise InputError(f"synthetic config is missing field {missing}") from None


def load_synthetic_config(path) -> SyntheticConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return SyntheticConfig.from_dict(json.load(fh))


def _classes_from_latent(latent: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    # class = 1 + number of thresholds strictly below the latent
    return 1 + (thresholds[None, :] < latent[:, None]).sum(axis=1)


def generate_synthetic(config: SyntheticConfig) -> Dataset:
    """Draw a Dataset from the latent-threshold model. Deterministic per seed."""
    n, d = config.n_examples, config.n_features
    th = np.asarray(config.thresholds)
    latent = np.random.default_rng([config.seed, _STREAM_LATENT]).standard_normal(n)
    projection = np.random.default_rng([config.seed, _STREAM_PROJECTION]).standard_normal(d)
    feature_noise = np.random.default_rng(
        [config.seed, _STREAM_FEATURE_NOISE]
    ).standard_normal((n, d))
    rater_noise = np.random.default_rng([config.seed, _STREAM_RATER_NOISE]).standard_normal(
        (n, config.n_raters)
    )
    features = latent[:, None] * projection[None, :] + config.feature_noise_sd * feature_noise
    observed = latent[:, None] + config.rater_noise_sd * rater_noise
    votes_mat = 1 + (th[None, None, :] < observed[:, :, None]).sum(axis=2)
    width = len(str(n))
    ids = tuple(f"ex{i + 1:0{width}d}" for i in range(n))
    spec = ProblemSpec(num_classes=config.num_classes)
    return dataset_from_votes(
        spec, features, [tuple(int(v) for v in row) for row in votes_mat], ids
    )


# ===== CSV ingestion / export =====
#
# Header columns: optional `id`, features `f_*` (order kept), then either
# vote columns `r_*` (ints in 1..K, blank = missing rater) or per-class count
# columns `c_1`..`c_K`. Line numbers in errors are 1-based including the header.


def _split_header(header: list[str], spec: ProblemSpec) -> tuple[Optional[int], list[int], list[int], list[int]]:
    id_col: Optional[int] = None
    f_cols: list[int] = []
    r_cols: list[int] = []
    c_cols: list[tuple[int, int]] = []
    for pos, name in enumerate(header):
        name = name.strip()
        if name == "id":
            if id_col is not None:
                raise InputError("line 1: duplicate id column")
            id_col = pos
        elif name.startswith("f_"):
            f_cols.append(pos)
        elif name.startswith("r_"):
            r_cols.append(pos)
        elif name.startswith("c_"):
            try:
                cls = int(name[2:])
            except ValueError:
                raise InputError(f"line 1: malformed count column {name!r}") from None
            c_cols.append((cls, pos))
        else:
            raise InputError(f"line 1: unrecognized column {name!r}")
    if not f_cols:
        raise InputError("line 1: no feature columns (prefix f_)")
    if bool(r_cols) == bool(c_cols):
        raise InputError("line 1: need vote columns (r_) or count columns (c_), not both or neither")
    if c_cols:
        classes = sorted(cls for cls, _ in c_cols)
        if classes != list(range(1, spec.num_classes + 1)):
            raise InputError(
                f"line 1: count columns must be exactly c_1..c_{spec.num_classes}"
            )
        c_positions = [pos for _, pos in sorted(c_cols)]
    else:
        c_positions = []
    return id_col, f_cols, r_cols, c_positions


def load_csv(path, spec: ProblemSpec) -> Dataset:
    """Parse a votes CSV into a Dataset. Errors carry 1-based line numbers."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError("line 1: empty file") from None
        id_col, f_cols, r_cols, c_cols = _split_header(header, spec)
        ids: list[str] = []
        features: list[list[float]] = []
        votes: list[tuple[int, ...]] = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise InputError(
                    f"line {line_no}: expected {len(header)} fields, got {len(row)}"
                )
            try:
                values = [float(row[p]) for p in f_cols]
            except ValueError:
                raise InputError(f"line {line_no}: malformed feature value") from None
            if not all(map(math.isfinite, values)):
                p = next(p for p, x in zip(f_cols, values) if not math.isfinite(x))
                raise InputError(
                    f"{path} line {line_no}: non-finite feature value {row[p].strip()!r}"
                    f" in column {header[p].strip()!r}"
                )
            features.append(values)
            row_votes: list[int] = []
            if r_cols:
                for p in r_cols:
                    field = row[p].strip()
                    if not field:
                        continue  # blank = missing rater
                    try:
                        v = int(field)
                    except ValueError:
                        raise InputError(
                            f"line {line_no}: malformed vote {field!r}"
                        ) from None
                    if not 1 <= v <= spec.num_classes:
                        raise InputError(
                            f"line {line_no}: vote {v} outside 1..{spec.num_classes}"
                        )
                    row_votes.append(v)
            else:
                for cls, p in enumerate(c_cols, start=1):
                    field = row[p].strip()
                    count = 0
                    if field:
                        try:
                            count = int(field)
                        except ValueError:
                            raise InputError(
                                f"line {line_no}: malformed count {field!r}"
                            ) from None
                    if count < 0:
                        raise InputError(f"line {line_no}: negative count {count}")
                    row_votes.extend([cls] * count)
            if not row_votes:
                raise InputError(f"line {line_no}: example has no votes")
            votes.append(tuple(row_votes))
            ids.append(row[id_col].strip() if id_col is not None else str(len(ids) + 1))
    try:
        return dataset_from_votes(spec, features, votes, ids)
    except InputError as err:
        raise InputError(f"{path}: {err}") from None


def save_csv(dataset: Dataset, path) -> None:
    """Write a Dataset as an id / f_* / r_* CSV that load_csv round-trips."""
    from .ioutil import atomic_write_text

    d = dataset.num_features
    max_votes = max(len(v) for v in dataset.votes)
    header = ["id"] + [f"f_{j + 1}" for j in range(d)] + [f"r_{j + 1}" for j in range(max_votes)]
    lines = [",".join(header)]
    for i in range(len(dataset)):
        fields = [dataset.ids[i]]
        fields += [repr(float(x)) for x in dataset.features[i]]  # round-trip exact
        row_votes = dataset.votes[i]
        fields += [str(v) for v in row_votes] + [""] * (max_votes - len(row_votes))
        lines.append(",".join(fields))
    atomic_write_text(path, "\n".join(lines) + "\n")


def combine_rater_sets(
    base_votes: Sequence[int], extra_votes: Sequence[int], replication_factor: int
) -> tuple[int, ...]:
    """Merge one example's original votes with votes from additional raters.

    A single-vote base is a consensus stand-in for several raters, so it is
    replicated ``replication_factor`` times before concatenation to keep the
    original opinion's weight comparable to the newcomers'. Multi-rater bases
    concatenate unchanged.
    """
    if replication_factor < 1:
        raise InputError("replication_factor must be >= 1")
    base = tuple(int(v) for v in base_votes)
    if len(base) == 0:
        raise InputError("base_votes must be non-empty")
    if len(base) == 1:
        base = base * replication_factor
    return base + tuple(int(v) for v in extra_votes)


@dataclass(frozen=True)
class TieResolution:
    """Per-example tie handling bound to one dataset.

    Under ``exclude_eval_resample_train`` tied examples are dropped from
    evaluation and, for hard-label training, get a fresh uniform draw among
    their tied classes each epoch. Under ``lowest_class`` ties resolve to the
    lowest tied class everywhere and nothing is excluded.
    """

    policy: str
    tied_indices: tuple[int, ...]
    hard: np.ndarray
    tie_classes: tuple[Optional[Tie], ...]

    def eval_mask(self) -> np.ndarray:
        """True for examples that evaluation should keep."""
        mask = np.ones(self.hard.shape[0], dtype=bool)
        if self.policy == TIE_POLICY_RESAMPLE:
            mask[list(self.tied_indices)] = False
        return mask

    def sample_hard_labels(self, rng: np.random.Generator) -> np.ndarray:
        """One epoch's hard labels; tied examples drawn uniformly when resampling.

        One ``rng.integers`` call draws for every tied example, in index order.
        It takes the same draws from ``rng``, and leaves it in the same state,
        as one call per tied example.
        """
        labels = self.hard.copy()
        if self.policy == TIE_POLICY_RESAMPLE and self.tied_indices:
            choices = [self.tie_classes[i].classes for i in self.tied_indices]
            picks = rng.integers([len(classes) for classes in choices])
            labels[list(self.tied_indices)] = [
                classes[p] for classes, p in zip(choices, picks.tolist())
            ]
        return labels


def resolve_ties(dataset: Dataset, policy: str) -> TieResolution:
    if policy not in ALL_TIE_POLICIES:
        raise InputError(f"tie policy must be one of {ALL_TIE_POLICIES}, got {policy!r}")
    tied = tuple(int(i) for i, t in enumerate(dataset.tie_classes) if t is not None)
    return TieResolution(
        policy=policy,
        tied_indices=tied,
        hard=dataset.hard.copy(),
        tie_classes=dataset.tie_classes,
    )


# ===== splits =====


@dataclass(frozen=True)
class Fold:
    test: tuple[int, ...]
    train: tuple[int, ...]
    val: tuple[int, ...]


@dataclass(frozen=True)
class FoldSplit:
    folds: tuple[Fold, ...]

    @property
    def k(self) -> int:
        return len(self.folds)


def _stratified_split(
    indices: np.ndarray, labels: np.ndarray, fraction: float, rng: np.random.Generator
) -> tuple[list[int], list[int]]:
    train: list[int] = []
    val: list[int] = []
    for cls in np.unique(labels):
        members = indices[labels == cls]
        members = members[rng.permutation(members.size)]
        # every class keeps at least one training example
        n_train = max(1, int(np.floor(fraction * members.size)))
        train.extend(int(i) for i in members[:n_train])
        val.extend(int(i) for i in members[n_train:])
    return sorted(train), sorted(val)


def train_val_split(
    indices: Sequence[int], hard_labels, fraction: float = 0.8, seed: int = 0
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Stratified train/validation split of the given indices.

    ``hard_labels`` is the full dataset's hard-label array; stratification
    uses the labels at ``indices``. Deterministic per seed.
    """
    if not 0.0 < fraction < 1.0:
        raise InputError(f"fraction must lie strictly between 0 and 1, got {fraction}")
    idx = np.asarray([int(i) for i in indices], dtype=np.int64)
    if idx.size == 0:
        raise InputError("cannot split an empty index set")
    labels = np.asarray(hard_labels)[idx]
    rng = np.random.default_rng([seed, _STREAM_TRAIN_VAL])
    train, val = _stratified_split(idx, labels, fraction, rng)
    if not val:
        raise InputError("validation split is empty; lower the fraction or add data")
    return tuple(train), tuple(val)


def stratified_k_fold(
    dataset: Dataset, k: int, seed: int, val_fraction: float = 0.8
) -> FoldSplit:
    """Stratified k-fold split with a per-fold stratified train/val partition.

    Per hard class, examples are shuffled by seed and dealt round-robin into
    the k test folds, so per-class test counts differ by at most one across
    folds. Each fold's remaining examples are split train/val stratified.
    """
    if k < 2:
        raise InputError(f"k must be >= 2, got {k}")
    n = len(dataset)
    if k > n:
        raise InputError(f"k={k} exceeds the {n} available examples")
    rng = np.random.default_rng([seed, _STREAM_FOLD_DEAL])
    test_sets: list[list[int]] = [[] for _ in range(k)]
    min_class_count = None
    for cls in np.unique(dataset.hard):
        members = np.flatnonzero(dataset.hard == cls)
        min_class_count = members.size if min_class_count is None else min(min_class_count, members.size)
        members = members[rng.permutation(members.size)]
        for pos, i in enumerate(members):
            test_sets[pos % k].append(int(i))
    if min_class_count is not None and k > min_class_count:
        warnings.warn(
            f"k={k} exceeds the smallest class count {min_class_count}; "
            "some folds will miss that class",
            stacklevel=2,
        )
    folds = []
    all_indices = set(range(n))
    for fold_idx, test in enumerate(test_sets):
        rest = np.asarray(sorted(all_indices - set(test)), dtype=np.int64)
        fold_rng = np.random.default_rng([seed, _STREAM_TRAIN_VAL, fold_idx])
        train, val = _stratified_split(rest, dataset.hard[rest], val_fraction, fold_rng)
        if not val:
            raise InputError("validation split is empty; lower val_fraction or add data")
        folds.append(Fold(test=tuple(sorted(test)), train=tuple(train), val=tuple(val)))
    return FoldSplit(folds=tuple(folds))


def mean_pairwise_rater_qwk(dataset: Dataset) -> Optional[float]:
    """Mean quadratic kappa over all rater-position pairs; None if undefined.

    A pair contributes when both positions voted on at least one shared
    example and its kappa is defined.
    """
    from .metrics import qwk_from_pairs

    max_votes = max(len(v) for v in dataset.votes)
    if max_votes < 2:
        return None
    values = []
    for a in range(max_votes):
        for b in range(a + 1, max_votes):
            la, lb = [], []
            for v in dataset.votes:
                if len(v) > b:
                    la.append(v[a])
                    lb.append(v[b])
            if not la:
                continue
            kappa = qwk_from_pairs(la, lb, dataset.spec.num_classes)
            if kappa is not None:
                values.append(kappa)
    if not values:
        return None
    return float(np.mean(values))
