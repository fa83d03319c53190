"""Stacked training against the one-model-at-a-time loop it replaced.

``_ref_train_one`` below is the earlier ``train_one``: one model, one
mini-batch and one Adam step at a time, validated once per epoch. Training
every (fold, seed) model as one stacked model must give exactly the same
bits for every model: parameters, histories, best epochs and test
probabilities, also when train sizes, last batches and validation sets
differ between the models, and when one model of a group diverges.
"""

import numpy as np
import pytest

from ordreg.core import ProblemSpec
from ordreg.data import (
    TIE_POLICY_LOWEST,
    TIE_POLICY_RESAMPLE,
    SyntheticConfig,
    dataset_from_votes,
    generate_synthetic,
    resolve_ties,
    stratified_k_fold,
)
from ordreg.harness import (
    METHODS,
    EpochStats,
    ModelJob,
    TrainConfig,
    TrainingDiverged,
    decode_distribution,
    predict_prob_matrix,
    run_cv,
    train_models,
    train_one,
)
from ordreg.losses import HARD_TARGET_LOSSES, LOSS_CE_SOFT, LOSS_OR_SOFT
from ordreg.model import (
    Batch,
    EncoderConfig,
    adam_step,
    init_adam_state,
    init_params,
    loss_and_gradient,
)

_STREAM_SHUFFLE = 41
_STREAM_TIE_RESAMPLE = 42


# ---- the one-model reference ----


def _ref_epoch_targets(dataset, config, indices, hard):
    kind = METHODS[config.method].loss_kind
    if kind == LOSS_CE_SOFT:
        return dataset.soft[indices]
    if kind == LOSS_OR_SOFT:
        return dataset.exceed[indices]
    return hard[indices]


def _ref_train_one(dataset, config, train_indices, val_indices, seed):
    """(params flat, history, best epoch), or the TrainingDiverged it raised."""
    method = METHODS[config.method]
    params = init_params(config.encoder, method.head_kind, dataset.spec, seed)
    adam = init_adam_state(params, lr=config.lr)
    ties = resolve_ties(dataset, config.tie_policy)
    mask = ties.eval_mask()
    val_keep = [i for i in val_indices if mask[i]]
    val_x = dataset.features[val_keep]
    val_w = dataset.soft[val_keep].max(axis=1)
    val_h = dataset.hard[val_keep].astype(np.float64)
    shuffle_rng = np.random.default_rng([int(seed), _STREAM_SHUFFLE])
    tie_rng = np.random.default_rng([int(seed), _STREAM_TIE_RESAMPLE])
    resampling = (method.loss_kind in HARD_TARGET_LOSSES
                  and config.tie_policy == TIE_POLICY_RESAMPLE)
    train_idx = np.asarray(train_indices, dtype=np.int64)
    n_train = len(train_idx)
    train_x = dataset.features[train_idx]
    best_mae, best_params, best_epoch, history = np.inf, params, 0, []
    for epoch in range(1, config.epochs + 1):
        hard = ties.sample_hard_labels(tie_rng) if resampling else dataset.hard
        targets = _ref_epoch_targets(dataset, config, train_idx, hard)
        perm = shuffle_rng.permutation(n_train)
        loss_sum = 0.0
        for start in range(0, n_train, config.batch_size):
            chunk = perm[start : start + config.batch_size]
            loss, grad = loss_and_gradient(params, Batch(train_x[chunk], targets[chunk]),
                                           method.loss_kind)
            if not np.isfinite(loss):
                return TrainingDiverged(
                    f"{config.method} seed {seed}: non-finite loss at epoch {epoch}")
            params, adam = adam_step(params, grad, adam)
            loss_sum += loss * len(chunk)
        probs = predict_prob_matrix(params, config.method, val_x)
        preds = decode_distribution(probs, config.effective_decode).astype(np.float64)
        val_mae = float((val_w * np.abs(preds - val_h)).sum() / val_w.sum())
        history.append(EpochStats(epoch, loss_sum / n_train, val_mae))
        if val_mae < best_mae:
            best_mae, best_params, best_epoch = val_mae, params, epoch
    return best_params, tuple(history), best_epoch


# ---- data ----

# noisy raters: many tied examples, so both tie policies matter
NOISY = generate_synthetic(SyntheticConfig(
    n_examples=73, n_features=3, num_classes=4, n_raters=4,
    thresholds=(-0.6, 0.0, 0.6), feature_noise_sd=0.2, rater_noise_sd=0.6, seed=17,
))

# hidden layers, activation, tie policy, batch size, and whether the decode
# rule is the other one than the method's default
SETTINGS = [
    pytest.param((16,), "relu", TIE_POLICY_RESAMPLE, 7, False, id="relu16-paper"),
    pytest.param((), "relu", TIE_POLICY_LOWEST, 5, False, id="linear-lowest"),
    pytest.param((8, 4), "tanh", TIE_POLICY_RESAMPLE, 6, False, id="tanh8x4-paper"),
    pytest.param((5,), "relu", TIE_POLICY_RESAMPLE, 9, True, id="relu5-other-decode"),
]


def _config(method, hidden, activation, ties, batch_size, other_decode=False, **kw):
    decode = None
    if other_decode:
        decode = "count" if METHODS[method].default_decode == "argmax" else "argmax"
    base = dict(method=method, encoder=EncoderConfig(3, hidden, activation), epochs=4,
                batch_size=batch_size, lr=0.02, seeds=(3, 8), tie_policy=ties, decode=decode)
    base.update(kw)
    return TrainConfig(**base)


def _assert_outcome(got, want):
    if isinstance(want, TrainingDiverged):
        assert isinstance(got, TrainingDiverged) and str(got) == str(want)
        return
    params, history, best_epoch = want
    assert np.array_equal(got.params.bundle.flat, params.bundle.flat)
    assert got.params.bundle.flat.shape == params.bundle.flat.shape
    assert got.history == history  # exact float equality, epoch by epoch
    assert got.best_epoch == best_epoch


def test_the_folds_have_ragged_train_sizes_and_last_batches():
    split = stratified_k_fold(NOISY, 3, seed=4)
    sizes = {len(f.train) for f in split.folds}
    assert len(sizes) > 1
    assert len({n % 7 for n in sizes}) > 1 and len({n % 5 for n in sizes}) > 1
    # tie exclusion leaves validation sets of different sizes
    mask = resolve_ties(NOISY, TIE_POLICY_RESAMPLE).eval_mask()
    assert len({int(mask[list(f.val)].sum()) for f in split.folds}) == 3
    assert NOISY.tied_mask.sum() >= 5


@pytest.mark.parametrize("hidden,activation,ties,batch_size,other_decode", SETTINGS)
@pytest.mark.parametrize("method", sorted(METHODS))
def test_stacked_models_equal_one_model_at_a_time(method, hidden, activation, ties, batch_size,
                                                  other_decode):
    cfg = _config(method, hidden, activation, ties, batch_size, other_decode)
    split = stratified_k_fold(NOISY, 3, seed=4, val_fraction=cfg.val_fraction)
    keys = [(fi, seed) for fi in range(3) for seed in cfg.seeds]
    jobs = [ModelJob(split.folds[fi].train, split.folds[fi].val, seed) for fi, seed in keys]
    want = [_ref_train_one(NOISY, cfg, job.train, job.val, job.seed) for job in jobs]
    for got, ref in zip(train_models(NOISY, cfg, jobs), want):
        _assert_outcome(got, ref)

    # run_cv: the same histories and best epochs, and the seed ensemble of the
    # reference models' test probabilities
    result = run_cv(NOISY, cfg, k=3, split_seed=4)
    mask = resolve_ties(NOISY, ties).eval_mask()
    for fi, fold in enumerate(split.folds):
        outcome = result.folds[fi]
        assert outcome.status == "ok"
        refs = [want[keys.index((fi, s))] for s in cfg.seeds]
        assert outcome.histories == {s: r[1] for s, r in zip(cfg.seeds, refs)}
        assert outcome.best_epochs == {s: r[2] for s, r in zip(cfg.seeds, refs)}
        test = np.asarray(fold.test)
        stack = [predict_prob_matrix(r[0], method, NOISY.features[test]) for r in refs]
        ensemble = np.mean(np.asarray(stack), axis=0)[mask[test]]
        assert np.array_equal(outcome.records.pred, ensemble)


@pytest.mark.parametrize("method", sorted(METHODS))
def test_train_one_is_the_one_model_case(method):
    cfg = _config(method, (5,), "relu", TIE_POLICY_RESAMPLE, 8, epochs=3)
    fold = stratified_k_fold(NOISY, 3, seed=1).folds[2]
    _assert_outcome(train_one(NOISY, cfg, fold.train, fold.val, 5),
                    _ref_train_one(NOISY, cfg, fold.train, fold.val, 5))


def _poisoned():
    """Forty ordinary examples plus one with features of 1e10.

    At a learning rate of 1e150 the first Adam step moves every weight to
    about 1e150. The ordinary examples then give logits near 1e301, which
    stay finite; the large one overflows to inf - inf, a NaN loss.
    """
    rng = np.random.default_rng(2)
    features = np.vstack([rng.normal(size=(40, 3)), np.full((1, 3), 1e10)])
    votes = [(int(c),) for c in rng.integers(1, 4, size=40)] + [(2,)]
    return dataset_from_votes(ProblemSpec(3), features, votes)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
@pytest.mark.parametrize("method", ["ce", "or_soft", "corn", "sord_se"])
def test_a_diverging_model_leaves_its_group_and_the_others_do_not_change(method):
    ds = _poisoned()
    rng = np.random.default_rng(5)
    jobs = []
    for j in range(4):
        rows = rng.permutation(40)
        train = sorted(rows[:30].tolist())
        if j == 2:
            train[0] = 40  # only this model trains on the poisoned example
        jobs.append(ModelJob(train, sorted(rows[30:].tolist()), seed=j))
    cfg = TrainConfig(method=method, encoder=EncoderConfig(3, (16,)), epochs=3, batch_size=8,
                      lr=1e150, seeds=(0,))
    want = [_ref_train_one(ds, cfg, job.train, job.val, job.seed) for job in jobs]
    assert [isinstance(w, TrainingDiverged) for w in want] == [False, False, True, False]
    got = train_models(ds, cfg, jobs)
    for g, w in zip(got, want):
        _assert_outcome(g, w)
    assert str(got[2]).startswith(f"{method} seed 2: non-finite loss at epoch ")
    with pytest.raises(TrainingDiverged, match="non-finite loss"):
        train_one(ds, cfg, jobs[2].train, jobs[2].val, 2)
