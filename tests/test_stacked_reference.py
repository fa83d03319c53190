"""Stacked training against the one-model-at-a-time loop it replaced.

``_ref_train_one`` below is the earlier ``train_one``: one model, one
mini-batch and one Adam step at a time, validated once per epoch. A short
last mini-batch steps min(batch_size, N) rows wide, padded with zero rows
and given its count of real rows. Training every (fold, seed) model as one
stacked model must give exactly the same bits for every model: parameters,
histories, best epochs and test probabilities, also when train sizes, last
batches and validation sets differ between the models, when a model has no
rows left at a batch start, and when one model of a group diverges.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordreg.harness as harness_mod
import ordreg.losses as losses_mod
import ordreg.model as model_mod
from ordreg.core import ProblemSpec, exceedance_from_soft, sord_soft_label
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
from ordreg.losses import (
    ALL_LOSS_KINDS,
    HARD_TARGET_LOSSES,
    LOSS_CE,
    LOSS_CE_SOFT,
    LOSS_CORN,
    LOSS_OR_CNN,
    LOSS_OR_SOFT,
    LOSS_SORD_AE,
    LOSS_SORD_SE,
)
from ordreg.model import (
    ALL_HEAD_KINDS,
    HEAD_SOFTMAX,
    AdamState,
    Batch,
    EncoderConfig,
    ParamBundle,
    adam_step,
    class_rows,
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
    hard_kind = method.loss_kind in HARD_TARGET_LOSSES
    resampling = hard_kind and config.tie_policy == TIE_POLICY_RESAMPLE
    train_idx = np.asarray(train_indices, dtype=np.int64)
    n_train = len(train_idx)
    train_x = dataset.features[train_idx]
    width = min(config.batch_size, len(dataset))
    best_mae, best_params, best_epoch, history = np.inf, params, 0, []
    for epoch in range(1, config.epochs + 1):
        hard = ties.sample_hard_labels(tie_rng) if resampling else dataset.hard
        targets = _ref_epoch_targets(dataset, config, train_idx, hard)
        perm = shuffle_rng.permutation(n_train)
        loss_sum = 0.0
        for start in range(0, n_train, config.batch_size):
            chunk = perm[start : start + config.batch_size]
            # a short last chunk steps W rows wide: zero pad rows, class 1 or a zero
            # target row, and its count of real rows
            pad = width - len(chunk)
            pad_targets = np.full((pad, *targets.shape[1:]), 1 if hard_kind else 0.0)
            batch = Batch(np.vstack([train_x[chunk], np.zeros((pad, train_x.shape[1]))]),
                          np.concatenate([targets[chunk], pad_targets]),
                          len(chunk) if pad else None)
            loss, grad = loss_and_gradient(params, batch, method.loss_kind)
            if not np.isfinite(loss):
                return TrainingDiverged(
                    f"{config.method} seed {seed}: non-finite loss at epoch {epoch}")
            params, adam = adam_step(params, grad, adam)
            loss_sum += loss * len(chunk)
        probs = predict_prob_matrix(params, config.method, val_x)
        if not np.isfinite(probs).all():
            return TrainingDiverged(
                f"{config.method} seed {seed}: non-finite validation prediction at epoch {epoch}")
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
    # train sizes 36, 38 and 39: the 36-row model is idle at the last batch start
    pytest.param((6,), "tanh", TIE_POLICY_LOWEST, 12, False, id="tanh6-lowest-idle"),
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


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
@pytest.mark.parametrize("method", sorted(METHODS))
def test_a_model_diverging_on_a_full_batch_mid_epoch_leaves_the_others_exact(method):
    # train sizes 30, 27, 30, 29 in batches of 8: three steps of every model,
    # then a ragged last batch of 6, 3, 6 and 5 rows
    ds = _poisoned()
    rng = np.random.default_rng(5)
    jobs = []
    for j, n in enumerate((30, 27, 30, 29)):
        rows = rng.permutation(40)
        train = rows[:n].tolist()
        if j == 2:
            # epoch 1 visits train[perm[p]] at its p-th example: put the large
            # example at p = 10, in the second batch
            perm = np.random.default_rng([j, _STREAM_SHUFFLE]).permutation(n)
            train[perm[10]] = 40
        jobs.append(ModelJob(train, sorted(rows[n:].tolist()), seed=j))
    # 8 hidden units: with 16, corn's loss on the large example stays finite
    cfg = TrainConfig(method=method, encoder=EncoderConfig(3, (8,)), epochs=3, batch_size=8,
                      lr=1e150, seeds=(0,))
    want = [_ref_train_one(ds, cfg, job.train, job.val, job.seed) for job in jobs]
    assert [isinstance(w, TrainingDiverged) for w in want] == [False, False, True, False]
    assert str(want[2]) == f"{method} seed 2: non-finite loss at epoch 1"
    for got, ref in zip(train_models(ds, cfg, jobs), want):
        _assert_outcome(got, ref)


@pytest.mark.parametrize("method", sorted(METHODS))
def test_the_public_step_functions_leave_their_inputs_unchanged(method):
    cfg = _config(method, (4,), "tanh", TIE_POLICY_LOWEST, 5)
    spec = METHODS[method]
    params = init_params(cfg.encoder, spec.head_kind, NOISY.spec, 0)
    params = params.with_flat(np.stack([params.bundle.flat + d for d in (0.0, 0.1, -0.2)]))
    idx = np.arange(15).reshape(3, 5)
    batch = Batch(NOISY.features[idx], _ref_epoch_targets(NOISY, cfg, idx, NOISY.hard))
    rng = np.random.default_rng(3)
    state = AdamState(rng.normal(size=params.bundle.flat.shape),
                      rng.random(params.bundle.flat.shape), np.array([0, 4, 4]), 0.01)
    inputs = (params.bundle.flat, batch.features, batch.targets, state.m, state.v, state.step)
    before = [a.copy() for a in inputs]

    _, grad = loss_and_gradient(params, batch, spec.loss_kind)
    grad_before = grad.flat.copy()
    new_params, new_state = adam_step(params, grad, state)
    for a, b in zip(inputs, before):
        assert np.array_equal(a, b)
    assert np.array_equal(grad.flat, grad_before)
    for fresh in (grad.flat, new_params.bundle.flat, new_state.m, new_state.v, new_state.step):
        assert not any(np.shares_memory(fresh, a) for a in inputs)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
@pytest.mark.parametrize("method", ["ce", "coral", "sord_se"])  # heads whose outputs turn NaN
def test_a_non_finite_validation_prediction_is_a_divergence(method):
    ds = _poisoned()
    rng = np.random.default_rng(5)
    jobs = []
    for j in range(4):
        rows = rng.permutation(40)
        val = sorted(rows[30:].tolist())
        if j == 2:
            val[0] = 40  # only this model validates on the large example
        jobs.append(ModelJob(sorted(rows[:30].tolist()), val, seed=j))
    cfg = TrainConfig(method=method, encoder=EncoderConfig(3, (16,)), epochs=3, batch_size=8,
                      lr=1e150, seeds=(0,))
    got = train_models(ds, cfg, jobs)
    assert str(got[2]).startswith(f"{method} seed 2: non-finite validation prediction at epoch ")
    others = [jobs[j] for j in (0, 1, 3)]
    for g, alone in zip([got[j] for j in (0, 1, 3)], train_models(ds, cfg, others)):
        _assert_outcome(g, (alone.params, alone.history, alone.best_epoch))
    with pytest.raises(TrainingDiverged, match="non-finite validation prediction"):
        train_one(ds, cfg, jobs[2].train, jobs[2].val, 2)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_a_non_finite_test_prediction_fails_its_fold_only():
    # one epoch in one batch: a model that trains on the large example steps
    # from a finite loss, and only predicting on it overflows
    ds = _poisoned()
    cfg = TrainConfig(method="ce", encoder=EncoderConfig(3, (16,)), epochs=1, batch_size=64,
                      lr=1e150, seeds=(0, 1))
    split = stratified_k_fold(ds, 5, seed=0)
    with pytest.warns(UserWarning, match="2 of 5 folds failed"):
        result = run_cv(ds, cfg, k=5, split_seed=0)
    where = ["test" if 40 in f.test else "val" if 40 in f.val else "train" for f in split.folds]
    assert sorted(where) == ["test", "train", "train", "train", "val"]
    for fold, place, outcome in zip(split.folds, where, result.folds):
        if place == "test":
            assert (outcome.status, outcome.error) == ("failed", "ce: non-finite ensemble test prediction")
            continue
        if place == "val":
            assert outcome.status == "failed"
            assert outcome.error == "ce seed 0: non-finite validation prediction at epoch 1"
            continue
        refs = [_ref_train_one(ds, cfg, fold.train, fold.val, s) for s in cfg.seeds]
        assert outcome.status == "ok"
        assert outcome.histories == {s: r[1] for s, r in zip(cfg.seeds, refs)}
        test = np.asarray(fold.test)
        stack = [predict_prob_matrix(r[0], "ce", ds.features[test]) for r in refs]
        assert np.array_equal(outcome.records.pred, np.mean(np.asarray(stack), axis=0))


# ---- generated cases ----


@st.composite
def _stacked_runs(draw):
    """A dataset, a config and one to five jobs drawn over every method and shape.

    The dataset is sixty ordinary examples plus the large one of
    :func:`_poisoned`, at index 60. No job, one job or every job trains on it
    (one job may validate on it instead) at a learning rate of 1e150. A job
    with more rows than a batch meets it after its first step, when its
    weights are near 1e150, so it mostly diverges mid-epoch. A poisoned run
    has a ReLU layer, since a linear or tanh model stays finite at such
    weights; with two, ordinary examples often overflow as well.
    """
    k = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    features = np.vstack([rng.normal(size=(60, 3)), np.full((1, 3), 1e10)])
    # one to four raters per example, so ties arise for every K; example 0 never ties
    votes = [(1,)] + [tuple(rng.integers(1, k + 1, size=rng.integers(1, 5)).tolist())
                      for _ in range(59)] + [(2,)]
    ds = dataset_from_votes(ProblemSpec(k), features, votes)
    ties = draw(st.sampled_from([TIE_POLICY_RESAMPLE, TIE_POLICY_LOWEST]))
    poison = draw(st.sampled_from(["none", "one", "every"]))
    if poison == "none":
        encoder = EncoderConfig(3, draw(st.sampled_from([(), (4,), (3, 5)])),
                                draw(st.sampled_from(["relu", "tanh"])))
    else:
        encoder = EncoderConfig(3, draw(st.sampled_from([(4,), (3, 5)])), "relu")
    n_jobs = draw(st.integers(1, 5))
    poisoned = {"none": set(), "one": {draw(st.integers(0, n_jobs - 1))},
                "every": set(range(n_jobs))}[poison]
    batch_size = draw(st.integers(1, 16))
    jobs = []
    for j in range(n_jobs):
        seed = draw(st.integers(0, 3))
        train = rng.choice(60, draw(st.integers(1, 40)), replace=False).tolist()
        val = rng.choice(60, draw(st.integers(1, 40)), replace=False).tolist()
        if ties == TIE_POLICY_RESAMPLE and ds.tied_mask[val].all():
            val[0] = 0
        if j in poisoned and poison == "one" and draw(st.booleans()):
            val[int(rng.integers(len(val)))] = 60
        elif j in poisoned:
            # epoch 1 visits train[perm[p]] at its p-th example
            perm = np.random.default_rng([seed, _STREAM_SHUFFLE]).permutation(len(train))
            first = batch_size if len(train) > batch_size else 0
            train[perm[int(rng.integers(first, len(train)))]] = 60
        jobs.append(ModelJob(train, val, seed=seed))
    cfg = TrainConfig(
        method=draw(st.sampled_from(sorted(METHODS))),
        encoder=encoder, epochs=draw(st.integers(1, 3)), batch_size=batch_size,
        lr=1e150 if poisoned else 0.05, tie_policy=ties,
        decode=draw(st.sampled_from([None, "count", "argmax"])),
    )
    return ds, cfg, jobs


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_stacked_runs())
def test_generated_stacks_equal_one_model_at_a_time(run):
    ds, cfg, jobs = run
    want = [_ref_train_one(ds, cfg, job.train, job.val, job.seed) for job in jobs]
    got = train_models(ds, cfg, jobs)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        _assert_outcome(g, w)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(method=st.sampled_from(sorted(METHODS)),
       hidden=st.sampled_from([(), (4,), (3, 5), (16,), (256,)]),
       activation=st.sampled_from(["relu", "tanh"]), k=st.integers(2, 6), d=st.integers(1, 8),
       n=st.integers(1, 200), m=st.integers(1, 200), seed=st.integers(0, 2**32 - 1))
def test_a_rows_prediction_does_not_depend_on_the_rows_beside_it(method, hidden, activation, k,
                                                                 d, n, m, seed):
    """Some rows of a set of n rows sit at other places among other rows in a set of m:
    each keeps its bits, and so does a row predicted alone or a set predicted as one
    model of a stack."""
    rng = np.random.default_rng(seed)
    params = init_params(EncoderConfig(d, hidden, activation), METHODS[method].head_kind,
                         ProblemSpec(k), seed)
    flat = params.bundle.flat + rng.normal(scale=0.2, size=params.bundle.flat.shape)
    params = params.with_flat(flat)  # non-zero biases too
    a, b = rng.normal(size=(n, d)) * 2.0, rng.normal(size=(m, d)) * 2.0
    shared = int(rng.integers(1, min(n, m) + 1))
    src, dst = rng.choice(n, shared, replace=False), rng.choice(m, shared, replace=False)
    b[dst] = a[src]
    in_a = predict_prob_matrix(params, method, a).view(np.int64)
    in_b = predict_prob_matrix(params, method, b).view(np.int64)
    assert np.array_equal(in_a[src], in_b[dst])
    alone = predict_prob_matrix(params, method, a[src[0]]).view(np.int64)
    assert np.array_equal(alone, in_a[src[:1]])
    stack = params.with_flat(np.stack([flat * 0.5, flat]))
    in_stack = predict_prob_matrix(stack, method, np.stack([rng.normal(size=(m, d)), b]))
    assert np.array_equal(in_stack[1].view(np.int64), in_b)


# ---- masked steps ----

# every loss kind on each head it fits
_KIND_HEADS = [(kind, head) for kind in ALL_LOSS_KINDS for head in ALL_HEAD_KINDS
               if (head == HEAD_SOFTMAX) == (kind not in (LOSS_OR_CNN, LOSS_OR_SOFT, LOSS_CORN))]


def _random_targets(rng, kind, k, shape):
    if kind == LOSS_CE_SOFT:
        return rng.dirichlet(np.ones(k), size=shape)
    if kind == LOSS_OR_SOFT:
        soft = rng.dirichlet(np.ones(k), size=math.prod(shape))
        return exceedance_from_soft(soft).reshape(*shape, k - 1)
    return rng.integers(1, k + 1, size=shape)


@pytest.mark.parametrize("kind,head", _KIND_HEADS)
def test_pad_rows_are_inert_and_a_model_means_over_its_real_rows(kind, head):
    """Model r of a stack has r real rows of B = 6, for r = 0..6. Whatever its pad
    rows hold, it gets the bits of zero pad rows, and the same bits as its W-row batch
    alone; it matches its r-row batch to rounding, and with r = 0 it gets 0."""
    rng = np.random.default_rng(ALL_LOSS_KINDS.index(kind) * 3 + ALL_HEAD_KINDS.index(head))
    k, d, b = 5, 3, 6
    params = init_params(EncoderConfig(d, (4,), "tanh"), head, ProblemSpec(k), 0)
    flat = params.bundle.flat + rng.normal(scale=0.3, size=(b + 1, params.bundle.flat.size))
    stack, rows = params.with_flat(flat), np.arange(b + 1)
    x, t = rng.normal(size=(b + 1, b, d)), _random_targets(rng, kind, k, (b + 1, b))
    real = np.arange(b) < rows[:, None]
    zero_x = np.where(real[..., None], x, 0.0)
    if kind in HARD_TARGET_LOSSES:
        zero_t = np.where(real, t, 1)
    else:
        zero_t = np.where(real[..., None], t, 0.0)

    loss, grad = loss_and_gradient(stack, Batch(x, t, rows), kind)
    zero_loss, zero_grad = loss_and_gradient(stack, Batch(zero_x, zero_t, rows), kind)
    assert np.array_equal(loss, zero_loss) and np.array_equal(grad.flat, zero_grad.flat)
    assert loss[0] == 0.0 and not grad.flat[0].any()
    for r in rows[1:]:
        one = params.with_flat(flat[r])
        alone, alone_grad = loss_and_gradient(one, Batch(zero_x[r], zero_t[r], r), kind)
        assert alone == loss[r] and np.array_equal(alone_grad.flat, grad.flat[r])
        plain, plain_grad = loss_and_gradient(one, Batch(x[r, :r], t[r, :r]), kind)
        assert loss[r] == pytest.approx(plain, rel=1e-12)
        error = np.linalg.norm(grad.flat[r] - plain_grad.flat)
        assert error <= 1e-12 * np.linalg.norm(plain_grad.flat)

    # the masked gradient against central finite differences, as in criterion 02
    one, batch = params.with_flat(flat[3]), Batch(x[3], t[3], 3)
    _, analytic = loss_and_gradient(one, batch, kind)
    fd = np.empty(flat.shape[1])
    for i in range(fd.size):
        step = np.zeros(fd.size)
        step[i] = 1e-5
        up, down = (loss_and_gradient(one.with_flat(flat[3] + s), batch, kind)[0]
                    for s in (step, -step))
        fd[i] = (up - down) / 2e-5
    assert np.linalg.norm(analytic.flat - fd) / np.linalg.norm(fd) < 1e-4


# ---- class rows ----


def _single_label_row(kind, y, k):
    if kind == LOSS_CE:
        return np.array([float(c == y) for c in range(1, k + 1)])
    if kind in (LOSS_SORD_AE, LOSS_SORD_SE):
        return sord_soft_label(y, ProblemSpec(k), "ae" if kind == LOSS_SORD_AE else "se").probs
    return np.array([float(y > j) for j in range(1, k)])


@pytest.mark.parametrize("k", range(2, 8))
@pytest.mark.parametrize("kind", HARD_TARGET_LOSSES)
def test_each_class_row_is_the_row_of_its_single_label(kind, k):
    table = class_rows(kind, k)
    assert table.dtype == np.float64 and table.shape == (k, k - (kind in (LOSS_OR_CNN, LOSS_CORN)))
    for y in range(1, k + 1):
        assert np.array_equal(table[y - 1], _single_label_row(kind, y, k))


def _no_label_work(*args, **kwargs):
    raise AssertionError("a step with out= turned labels into rows")


@pytest.mark.parametrize("k", range(2, 8))
@pytest.mark.parametrize("kind,head", [(kind, head) for kind, head in _KIND_HEADS
                                       if kind in HARD_TARGET_LOSSES])
def test_an_out_step_on_class_rows_equals_the_public_hard_label_call(kind, head, k, monkeypatch):
    """Model r of a stack has r real rows of W = 6, r = 0..6. The public call takes the
    labels, the out= step their class rows with a zero row at every pad; both give the
    same bits, and the out= step does no label work. The last model's labels are all 1,
    so its corn tasks 2..K-1 see no example."""
    rng = np.random.default_rng([k, ALL_LOSS_KINDS.index(kind), ALL_HEAD_KINDS.index(head)])
    w, d = 6, 3
    params = init_params(EncoderConfig(d, (4,), "tanh"), head, ProblemSpec(k), 0)
    flat = params.bundle.flat + rng.normal(scale=0.3, size=(w + 1, params.bundle.flat.size))
    stack, rows = params.with_flat(flat), np.arange(w + 1)
    x, labels = rng.normal(size=(w + 1, w, d)), rng.integers(1, k + 1, size=(w + 1, w))
    labels[-1] = 1
    real = np.arange(w) < rows[:, None]
    targets = np.where(real[..., None], class_rows(kind, k)[labels - 1], 0.0)

    loss, grad = loss_and_gradient(stack, Batch(x, labels, rows), kind)
    out = ParamBundle(np.empty(flat.shape), stack.bundle.layout)
    with monkeypatch.context() as patch:
        for name in ("sord_soft_label", "check_class_indices", "class_rows"):
            patch.setattr(model_mod, name, _no_label_work)
        patch.setattr(losses_mod, "label_rows", _no_label_work)
        out_loss, out_grad = loss_and_gradient(stack, Batch(x, targets, rows), kind, out=out)
    assert out_grad is out
    assert np.array_equal(out_loss, loss) and np.array_equal(out.flat, grad.flat)
    assert loss[0] == 0.0 and not grad.flat[0].any()


@pytest.mark.parametrize("method", sorted(METHODS))
def test_training_steps_on_float_target_rows_with_a_zero_pad_row(method, monkeypatch):
    """Every step of a run takes float target rows, zero on every pad row; a SORD run
    builds its rows once."""
    steps, sord_calls = [], []
    step, sord = harness_mod.loss_and_gradient, model_mod.sord_soft_label

    def spy_step(params, batch, kind, *, out=None):
        steps.append((np.array(batch.targets), np.array(batch.rows)))
        return step(params, batch, kind, out=out)

    def spy_sord(*args):
        sord_calls.append(args)
        return sord(*args)

    monkeypatch.setattr(harness_mod, "loss_and_gradient", spy_step)
    monkeypatch.setattr(model_mod, "sord_soft_label", spy_sord)
    cfg = _config(method, (4,), "tanh", TIE_POLICY_RESAMPLE, 7, epochs=2)
    split = stratified_k_fold(NOISY, 3, seed=4, val_fraction=cfg.val_fraction)
    jobs = [ModelJob(f.train, f.val, seed) for f in split.folds for seed in cfg.seeds]
    assert not any(isinstance(o, TrainingDiverged) for o in train_models(NOISY, cfg, jobs))
    n = NOISY.spec.num_classes - (METHODS[method].head_kind != HEAD_SOFTMAX)
    assert any((r < 7).any() for _, r in steps)
    for targets, r in steps:
        assert targets.dtype == np.float64 and targets.shape == (len(jobs), 7, n)
        assert not targets[np.arange(7) >= r[:, None]].any()
    assert len(sord_calls) == METHODS[method].loss_kind.startswith("sord")
