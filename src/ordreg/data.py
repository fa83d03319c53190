"""Datasets for multi-rater ordinal labels: synthetic generation, CSV I/O, splits.

A :class:`Dataset` stores features, the votes per class and, where the raters
are known, each rater's vote; the label views (vote fractions, modal classes,
mode, exceedance vector, tie flag) derive from the counts. Examples whose vote
distribution has no unique mode are "tied"; policy for ties lives in
:func:`resolve_ties`.

Every operation that draws randomness builds its own generator from
``numpy.random.default_rng([seed, stream])`` with a fixed per-operation
stream constant, so results depend only on the seed passed in, never on
call order or global state.
"""

from __future__ import annotations

import itertools
import math
import warnings
from collections import Counter
from dataclasses import asdict, dataclass
from functools import cached_property, partial
from typing import Optional, Sequence

import numpy as np

from .core import (
    InputError,
    ProblemSpec,
    _argmax_rows,
    check_class_index,
    class_max,
    exceedance_from_soft,
)
from .ioutil import atomic_write_text, csv_field, csv_rows, json_number
from .metrics import _frozen, qwk_from_pairs

TIE_POLICY_RESAMPLE = "paper"
TIE_POLICY_LOWEST = "lowest"
ALL_TIE_POLICIES = (TIE_POLICY_RESAMPLE, TIE_POLICY_LOWEST)

# load_csv input bounds: the votes one count cell may hold, and the number of
# classes the highest vote may imply without an explicit num_classes
MAX_CELL_COUNT = 1000
MAX_INFERRED_CLASSES = 100
MAX_SYNTHETIC_CELLS = 1_000_000  # generator: n_examples x (n_features + n_raters)

# RNG stream constants; each seeded operation owns one
_STREAM_LATENT = 21
_STREAM_PROJECTION = 22
_STREAM_FEATURE_NOISE = 23
_STREAM_RATER_NOISE = 24
_STREAM_FOLD_DEAL = 31
_STREAM_TRAIN_VAL = 32


@dataclass(frozen=True)
class Dataset:
    """Immutable feature/label table; the label views derive from ``counts``.

    ``counts`` is the (N, K) int matrix of votes per class. ``votes`` is the
    (N, R) int matrix of each rater's vote, 0 where that rater did not vote;
    it is None for data read as per-class counts, which name no raters. The
    read-only views ``soft`` (the vote fractions), ``modal`` (the (N, K) mask
    of each example's modal classes), ``hard`` (the lowest modal class),
    ``exceed`` and ``tied_mask`` (more than one modal class) are computed on
    first use. Construct through :func:`dataset_from_votes`, :func:`load_csv`
    or :func:`generate_synthetic`.
    """

    spec: ProblemSpec
    ids: tuple[str, ...]
    features: np.ndarray
    counts: np.ndarray
    votes: Optional[np.ndarray]

    def __post_init__(self) -> None:
        for arr in (self.features, self.counts, self.votes):
            if arr is not None:
                arr.setflags(write=False)

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def num_features(self) -> int:
        return int(self.features.shape[1])

    @cached_property
    def soft(self) -> np.ndarray:
        return _frozen(self.counts / self.counts.sum(axis=1, keepdims=True), np.float64)

    @cached_property
    def modal(self) -> np.ndarray:
        # exact float equality on purpose: only true ties count as ties
        return _frozen(self.soft == class_max(self.soft)[:, None], bool)

    @cached_property
    def hard(self) -> np.ndarray:
        return _frozen(_argmax_rows(self.soft), np.int64)

    @cached_property
    def exceed(self) -> np.ndarray:
        k = self.spec.num_classes
        return _frozen(exceedance_from_soft(self.soft) if len(self) else np.empty((0, k - 1)),
                       np.float64)

    @cached_property
    def tied_mask(self) -> np.ndarray:
        return _frozen(self.modal.sum(axis=1) > 1, bool)


def _vote_matrix(votes: Sequence[Sequence[int]], spec: ProblemSpec) -> np.ndarray:
    """The (N, R) int matrix of per-example vote lists, R the longest list.

    Entry (i, j) is vote j of example i, and 0 past the end of a shorter list.
    Votes are checked in example order, so the first bad example raises its message:
    ``votes must be non-empty``, or that of :func:`core.check_class_index`.
    """
    matrix = np.zeros((len(votes), max(map(len, votes), default=0)), dtype=np.int64)
    for i, v in enumerate(votes):
        if len(v) == 0:
            raise InputError("votes must be non-empty")
        matrix[i, : len(v)] = [check_class_index(x, spec) for x in v]
    return matrix


def _class_counts(votes: np.ndarray, k: int) -> np.ndarray:
    """The (N, K) votes per class of an (N, R) vote matrix; a 0 is no vote."""
    n = len(votes)
    cells = np.arange(n)[:, None] * (k + 1) + votes
    return np.bincount(cells.ravel(), minlength=n * (k + 1)).reshape(n, k + 1)[:, 1:]


def _dataset(spec: ProblemSpec, features, ids, counts: np.ndarray,
             votes: Optional[np.ndarray]) -> Dataset:
    """The Dataset of checked labels, once its features and ids pass their checks."""
    feats = np.array(features, dtype=np.float64)
    if feats.ndim != 2:
        raise InputError(f"features must be a 2-d array, got shape {feats.shape}")
    n = feats.shape[0]
    if len(counts) != n:
        raise InputError("features and votes disagree on the number of examples")
    if ids is None:
        ids = range(1, n + 1)
    elif len(ids) != n:
        raise InputError("ids and features disagree on the number of examples")
    ids = tuple(map(str, ids))  # compared as stored: 1 and "1" are one id
    if len(set(ids)) != n:
        seen = Counter(ids)
        repeated = next(i for i in ids if seen[i] > 1)
        raise InputError(f"example ids must be unique; {repeated!r} repeats")
    padded = next((i for i in ids if i != i.strip()), None)
    if padded is not None:  # a CSV field is read stripped, so it would not load back
        raise InputError(f"example id {padded!r} has leading or trailing whitespace")
    finite = np.isfinite(feats).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise InputError(f"example index {i} (id {ids[i]!r}) has a non-finite feature value")
    return Dataset(spec=spec, ids=ids, features=feats, counts=counts, votes=votes)


def dataset_from_votes(
    spec: ProblemSpec,
    features,
    votes: Sequence[Sequence[int]],
    ids: Optional[Sequence[str]] = None,
) -> Dataset:
    """Assemble a Dataset whose soft labels are the vote fractions.

    Position j of each vote list is rater j; a shorter list leaves the later
    raters without a vote. The mode is the lowest modal class, the argmax
    rule of :func:`core.decode_argmax`, and an example with more than one
    modal class is tied.
    """
    matrix = _vote_matrix(votes, spec)
    return _dataset(spec, features, ids, _class_counts(matrix, spec.num_classes), matrix)


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
        if self.n_examples * (self.n_features + self.n_raters) > MAX_SYNTHETIC_CELLS:
            raise InputError(f"n_examples x (n_features + n_raters) exceeds {MAX_SYNTHETIC_CELLS}")
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
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")
        object.__setattr__(self, "thresholds", th)

    def to_dict(self) -> dict:
        return {**asdict(self), "thresholds": list(self.thresholds)}

    @staticmethod
    def from_dict(doc: dict) -> "SyntheticConfig":
        """A config from a parsed JSON object; an unknown, missing or mistyped field is named."""
        if not isinstance(doc, dict):
            raise InputError("synthetic config must be a JSON object")
        for name in doc:
            if name not in _SYNTHETIC_FIELDS:
                raise InputError(f"synthetic config has unknown field {name!r}")
        fields = {}
        for name, kind in _SYNTHETIC_FIELDS.items():
            if name not in doc:
                raise InputError(f"synthetic config is missing field {name!r}")
            try:
                fields[name] = kind(name, doc[name])
            except InputError as err:
                raise InputError(f"synthetic config {err}") from None
        return SyntheticConfig(**fields)


def _floats(name: str, values) -> tuple[float, ...]:
    if not isinstance(values, (list, tuple)):
        raise InputError(f"field {name!r}: expected a list of numbers, got {values!r}")
    return tuple(json_number(name, v) for v in values)


_int = partial(json_number, integer=True)
_SYNTHETIC_FIELDS = {
    "n_examples": _int, "n_features": _int, "num_classes": _int, "n_raters": _int,
    "thresholds": _floats, "feature_noise_sd": json_number, "rater_noise_sd": json_number,
    "seed": _int,
}


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
    return _dataset(spec, features, ids, _class_counts(votes_mat, config.num_classes), votes_mat)


# ===== CSV ingestion / export =====
#
# Header columns: optional `id`, features `f_*` (order kept), then either
# vote columns `r_*` (ints in 1..K, blank = missing rater) or per-class count
# columns `c_1`..`c_K`. Line numbers in errors are 1-based including the header.


def _split_header(header: list[str], num_classes: Optional[int]) -> tuple[Optional[int], list[int], list[int], list[int]]:
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
        k = num_classes or classes[-1]
        if classes != list(range(1, k + 1)):
            raise InputError(f"line 1: count columns must be exactly c_1..c_{k}")
        c_positions = [pos for _, pos in sorted(c_cols)]
    else:
        c_positions = []
    return id_col, f_cols, r_cols, c_positions


def load_csv(path, spec: Optional[ProblemSpec] = None) -> Dataset:
    """Parse a votes CSV into a Dataset. Errors start with the path; row errors name the line.

    Without ``spec``, the same pass infers the number of classes K: the count
    columns ``c_1..c_K`` give it, or else the highest vote does.
    """
    with csv_rows(path) as reader:
        try:
            return _dataset_from_rows(reader, spec)
        except InputError as err:
            raise InputError(f"{path}: {err}") from None


def _dataset_from_rows(reader, spec: Optional[ProblemSpec]) -> Dataset:
    top = spec.num_classes if spec is not None else None
    try:
        header = next(reader)
    except StopIteration:
        raise InputError("line 1: empty file") from None
    id_col, f_cols, r_cols, c_cols = _split_header(header, top)
    # each label cell holds an int in low..cap; a blank cell is 0, no vote or no votes
    if r_cols:
        cells, kind, low, cap = r_cols, "vote", 1, top or MAX_INFERRED_CLASSES
        hint = "" if top else " (set num_classes to allow more classes)"
    else:
        cells, kind, low, cap, hint = c_cols, "count", 0, MAX_CELL_COUNT, ""
    id_lines: dict[str, int] = {}  # each id read so far, in order, and its line
    features: list[list[float]] = []
    label_rows: list[list[int]] = []  # per line, the R votes or the K counts
    read = reader.line_num  # lines read so far; a quoted field may span lines
    for row in reader:
        line_no, read = read + 1, reader.line_num
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
                f"line {line_no}: non-finite feature value {row[p].strip()!r}"
                f" in column {header[p].strip()!r}"
            )
        features.append(values)
        labels: list[int] = []
        for p in cells:
            field = row[p].strip()
            try:
                value = int(field) if field else 0
            except ValueError:
                raise InputError(f"line {line_no}: malformed {kind} {field!r}") from None
            if field and not low <= value <= cap:
                raise InputError(f"line {line_no}: {kind} {value} in column"
                                 f" {header[p].strip()!r} outside {low}..{cap}{hint}")
            labels.append(value)
        if not any(labels):
            raise InputError(f"line {line_no}: example has no votes")
        label_rows.append(labels)
        example_id = row[id_col].strip() if id_col is not None else str(len(label_rows))
        if example_id in id_lines:
            raise InputError(f"line {line_no}: example id {example_id!r}"
                             f" repeats line {id_lines[example_id]}")
        id_lines[example_id] = line_no
    if not label_rows:
        raise InputError("no examples")
    table = np.array(label_rows, dtype=np.int64)
    votes = table if r_cols else None
    if spec is None:
        k = len(c_cols) or int(table.max())
        if k < 2:
            raise InputError("could not infer at least two classes")
        spec = ProblemSpec(k)
    counts = table if votes is None else _class_counts(votes, spec.num_classes)
    return _dataset(spec, features, list(id_lines), counts, votes)


def save_csv(dataset: Dataset, path) -> None:
    """Write a Dataset as a CSV that load_csv round-trips, each vote under its rater.

    The columns are id, f_*, then r_* (the votes), or c_* (the counts) for a
    Dataset without raters. A 0, no vote or no votes, is a blank cell, and a
    feature is written as its repr, which round-trips a float exactly.
    """
    table, prefix = (dataset.counts, "c") if dataset.votes is None else (dataset.votes, "r")
    header = ["id", *(f"f_{j + 1}" for j in range(dataset.num_features)),
              *(f"{prefix}_{j + 1}" for j in range(table.shape[1]))]
    lines = [",".join(header)] + [
        ",".join([csv_field(i), *map(repr, f), *(str(v) if v else "" for v in row)])
        for i, f, row in zip(dataset.ids, dataset.features.tolist(), table.tolist())
    ]
    atomic_write_text(path, "\n".join(lines) + "\n")


@dataclass(frozen=True)
class TieResolution:
    """Tie handling bound to one dataset.

    Under ``paper`` tied examples are dropped from evaluation and, for
    hard-label training, get a fresh uniform draw among their modal classes
    each epoch. Under ``lowest`` ties resolve to the lowest modal class
    everywhere and nothing is excluded.
    """

    policy: str
    dataset: Dataset

    def eval_mask(self) -> np.ndarray:
        """True for examples that evaluation should keep."""
        if self.policy == TIE_POLICY_RESAMPLE:
            return ~self.dataset.tied_mask
        return np.ones(len(self.dataset), dtype=bool)

    def sample_hard_labels(self, rng: np.random.Generator) -> np.ndarray:
        """One epoch's hard labels; tied examples drawn uniformly when resampling.

        One ``rng.integers`` call draws a position p among each tied example's
        modal classes, in index order, and the label is its p-th modal class.
        It takes the same draws from ``rng``, and leaves it in the same state,
        as one call per tied example.
        """
        labels = self.dataset.hard.copy()
        tied, rank = self._tied_ranks
        if self.policy == TIE_POLICY_RESAMPLE and tied.size:
            picks = rng.integers(rank[:, -1])
            labels[tied] = np.argmax(rank > picks[:, None], axis=1) + 1
        return labels

    @cached_property
    def _tied_ranks(self) -> tuple[np.ndarray, np.ndarray]:
        """The tied examples, and each one's running count of modal classes."""
        tied = np.flatnonzero(self.dataset.tied_mask)
        return tied, np.cumsum(self.dataset.modal[tied], axis=1)


def resolve_ties(dataset: Dataset, policy: str) -> TieResolution:
    if policy not in ALL_TIE_POLICIES:
        raise InputError(f"tie policy must be one of {ALL_TIE_POLICIES}, got {policy!r}")
    return TieResolution(policy=policy, dataset=dataset)


# ===== splits =====


@dataclass(frozen=True)
class Fold:
    test: tuple[int, ...]
    train: tuple[int, ...]
    val: tuple[int, ...]


@dataclass(frozen=True)
class FoldSplit:
    folds: tuple[Fold, ...]


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
    if seed < 0:  # numpy.random.default_rng takes non-negative integers only
        raise InputError(f"split seed must be >= 0, got {seed}")
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
    if seed < 0:
        raise InputError(f"split seed must be >= 0, got {seed}")
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
    """Mean quadratic kappa over all rater pairs; None if undefined or without raters.

    A pair contributes when both raters voted on at least one shared example
    and its kappa, over the examples both rated, is defined.
    """
    if dataset.votes is None:
        return None
    values = []
    for a, b in itertools.combinations(dataset.votes.T, 2):
        both = (a > 0) & (b > 0)
        if both.any():
            kappa = qwk_from_pairs(a[both], b[both], dataset.spec.num_classes)
            if kappa is not None:
                values.append(kappa)
    return float(np.mean(values)) if values else None
