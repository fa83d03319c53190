import json
import re

import numpy as np
import pytest

from ordreg.core import InputError, ProblemSpec, RatingDistribution, exceedance_from_soft
from ordreg.losses import (
    ALL_LOSS_KINDS,
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
    AdamState,
    Batch,
    HEAD_INDEPENDENT,
    HEAD_SHARED_SLOPE_BIAS,
    HEAD_SOFTMAX,
    EncoderConfig,
    ModelParams,
    ParamBundle,
    adam_step,
    flatten_params,
    forward,
    init_adam_state,
    init_params,
    load_params,
    loss_and_gradient,
    replace_flat,
    save_params,
    sigmoid,
    softmax,
)

# every loss paired with every head that accepts it
PAIRINGS = [
    (loss, head)
    for loss in ALL_LOSS_KINDS
    for head in ALL_HEAD_KINDS
    if (head == HEAD_SOFTMAX) == (loss in (LOSS_CE, LOSS_CE_SOFT, LOSS_SORD_AE, LOSS_SORD_SE))
]


def _random_batch(rng, loss_kind, k, d, n):
    batch = []
    for _ in range(n):
        x = rng.normal(size=d)
        y = int(rng.integers(1, k + 1))
        if loss_kind == LOSS_CE_SOFT:
            raw = rng.uniform(0.05, 1.0, size=k)
            target = raw / raw.sum()
        elif loss_kind == LOSS_OR_SOFT:
            raw = rng.uniform(0.05, 1.0, size=k)
            target = exceedance_from_soft(RatingDistribution(raw / raw.sum()))
        else:
            target = y
        batch.append((x, target))
    return batch


def _fd_gradient(params, batch, loss_kind, h=1e-5):
    flat = flatten_params(params)
    grad = np.empty_like(flat)
    for i in range(flat.size):
        up = flat.copy()
        up[i] += h
        down = flat.copy()
        down[i] -= h
        lu, _ = loss_and_gradient(replace_flat(params, up), batch, loss_kind)
        ld, _ = loss_and_gradient(replace_flat(params, down), batch, loss_kind)
        grad[i] = (lu - ld) / (2 * h)
    return grad


def _flat_grad(params, bundle):
    return bundle.flat


def check_gradient(loss_kind, head_kind, seed, hidden=(4,), k=3, d=3, n=4):
    rng = np.random.default_rng(seed)
    spec = ProblemSpec(k)
    config = EncoderConfig(input_dim=d, hidden_dims=hidden, activation="tanh")
    params = init_params(config, head_kind, spec, seed)
    batch = _random_batch(rng, loss_kind, k, d, n)
    _, grad = loss_and_gradient(params, batch, loss_kind)
    analytic = _flat_grad(params, grad)
    numeric = _fd_gradient(params, batch, loss_kind)
    denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12)
    return np.linalg.norm(analytic - numeric) / denom


# ---- init ----


def test_init_is_deterministic_per_seed():
    cfg = EncoderConfig(3, (5, 4))
    a = init_params(cfg, HEAD_SOFTMAX, ProblemSpec(4), seed=9)
    b = init_params(cfg, HEAD_SOFTMAX, ProblemSpec(4), seed=9)
    for x, y in zip(a.bundle.arrays(), b.bundle.arrays()):
        np.testing.assert_array_equal(x, y)


def test_different_seeds_give_different_weights():
    cfg = EncoderConfig(3, (5,))
    a = init_params(cfg, HEAD_INDEPENDENT, ProblemSpec(4), seed=0)
    b = init_params(cfg, HEAD_INDEPENDENT, ProblemSpec(4), seed=1)
    assert not np.array_equal(a.bundle.head_w, b.bundle.head_w)


def test_empty_hidden_dims_is_a_single_affine_map():
    cfg = EncoderConfig(input_dim=6, hidden_dims=())
    params = init_params(cfg, HEAD_SOFTMAX, ProblemSpec(3), seed=0)
    assert params.bundle.encoder_w == ()
    assert params.bundle.head_w.shape == (3, 6)


def test_head_shapes_per_kind():
    cfg = EncoderConfig(4, (7,))
    k = 5
    ind = init_params(cfg, HEAD_INDEPENDENT, ProblemSpec(k), 0)
    assert ind.bundle.head_w.shape == (k - 1, 7) and ind.bundle.head_b.shape == (k - 1,)
    shared = init_params(cfg, HEAD_SHARED_SLOPE_BIAS, ProblemSpec(k), 0)
    assert shared.bundle.head_w.shape == (1, 7) and shared.bundle.head_b.shape == (k - 1,)
    soft = init_params(cfg, HEAD_SOFTMAX, ProblemSpec(k), 0)
    assert soft.bundle.head_w.shape == (k, 7) and soft.bundle.head_b.shape == (k,)


def test_an_unknown_head_kind_is_rejected():
    with pytest.raises(InputError, match="^unknown head kind 'ordinal'$"):
        init_params(EncoderConfig(3, ()), "ordinal", ProblemSpec(3), 0)


def test_a_param_bundle_of_the_wrong_size_is_rejected():
    layout = init_params(EncoderConfig(3, (4,)), HEAD_SOFTMAX, ProblemSpec(3), 0).bundle.layout
    for flat in (np.zeros(30), np.zeros((2, 30)), np.zeros((2, 2, 31))):
        with pytest.raises(InputError, match=re.escape(
                f"flat vector must have 31 entries, got {flat.shape}")):
            ParamBundle(flat, layout)


def test_encoder_config_validation():
    with pytest.raises(InputError):
        EncoderConfig(0, ())
    with pytest.raises(InputError):
        EncoderConfig(3, (4, 0))
    with pytest.raises(InputError):
        EncoderConfig(3, (), activation="gelu")


def test_encoder_sizes_must_be_integers_not_floats_or_bools():
    for args, field in (((3.5, ()), "input_dim"), ((True, ()), "input_dim"),
                        ((3, (2.7,)), r"hidden_dims\[0\]"), ((3, (4, False)), r"hidden_dims\[1\]")):
        with pytest.raises(InputError, match=f"^{field} must be an integer >= 1, got "):
            EncoderConfig(*args)
    config = EncoderConfig(np.int64(3), (np.int32(4),))  # NumPy integers are sizes too
    assert (config.input_dim, config.hidden_dims) == (3, (4,))
    assert type(config.input_dim) is int and type(config.hidden_dims[0]) is int


# ---- forward ----


def _zero_params(head_kind, k, d=3):
    cfg = EncoderConfig(d, ())
    params = init_params(cfg, head_kind, ProblemSpec(k), 0)
    zero = ParamBundle(np.zeros_like(params.bundle.flat), params.bundle.layout)
    return ModelParams(cfg, head_kind, k, zero)


def test_shared_head_with_decreasing_biases_gives_decreasing_probs():
    params = _zero_params(HEAD_SHARED_SLOPE_BIAS, 4)
    params.bundle.head_b[:] = [1.0, 0.0, -1.0]
    probs = sigmoid(forward(params, np.zeros(3)))
    np.testing.assert_allclose(
        probs, [0.7310585786300049, 0.5, 0.2689414213699951], atol=1e-15
    )
    assert np.all(np.diff(probs) < 0)


def test_zero_softmax_head_predicts_uniform():
    params = _zero_params(HEAD_SOFTMAX, 4)
    np.testing.assert_allclose(softmax(forward(params, np.ones(3))), [0.25] * 4, atol=1e-15)


def test_zero_independent_head_predicts_half_per_task():
    params = _zero_params(HEAD_INDEPENDENT, 4)
    np.testing.assert_allclose(sigmoid(forward(params, np.ones(3))), [0.5] * 3, atol=1e-15)


def test_forward_rejects_dimension_mismatch():
    params = _zero_params(HEAD_SOFTMAX, 3)
    with pytest.raises(InputError):
        forward(params, np.zeros(5))


def test_shared_head_probs_decrease_exactly_when_biases_decrease():
    rng = np.random.default_rng(3)
    cfg = EncoderConfig(2, ())
    for _ in range(200):
        params = init_params(cfg, HEAD_SHARED_SLOPE_BIAS, ProblemSpec(5), 0)
        params.bundle.head_b[:] = rng.uniform(-3, 3, size=4)
        probs = sigmoid(forward(params, rng.normal(size=2)))
        bias_decreasing = bool(np.all(np.diff(params.bundle.head_b) < 0))
        probs_decreasing = bool(np.all(np.diff(probs) < 0))
        assert bias_decreasing == probs_decreasing


# ---- loss_and_gradient ----


@pytest.mark.parametrize("loss_kind,head_kind", PAIRINGS)
def test_gradients_match_central_finite_differences(loss_kind, head_kind):
    assert check_gradient(loss_kind, head_kind, seed=17) < 1e-4
    assert check_gradient(loss_kind, head_kind, seed=18, hidden=()) < 1e-4


def test_loss_value_matches_the_loss_functions_on_forward_probabilities():
    from ordreg import losses as L

    rng = np.random.default_rng(5)
    spec = ProblemSpec(4)
    cfg = EncoderConfig(3, (4,))
    params = init_params(cfg, HEAD_INDEPENDENT, spec, 1)
    batch = _random_batch(rng, LOSS_OR_CNN, 4, 3, 5)
    loss, _ = loss_and_gradient(params, batch, LOSS_OR_CNN)
    probs = sigmoid(forward(params, np.asarray([x for x, _ in batch])))
    expected = np.mean([L.or_cnn_loss(probs[i], batch[i][1]) for i in range(5)])
    assert loss == pytest.approx(expected, abs=1e-12)


def test_saturated_correct_logits_have_near_zero_gradient():
    spec = ProblemSpec(3)
    cfg = EncoderConfig(2, ())
    params = _zero_params(HEAD_SOFTMAX, 3, d=2)
    # drive the correct class's logit to +20 via its bias: softmax saturates
    params.bundle.head_b[:] = [20.0, -20.0, -20.0]
    _, grad = loss_and_gradient(params, [(np.zeros(2), 1)], LOSS_CE)
    assert np.linalg.norm(_flat_grad(params, grad)) < 1e-3


def test_duplicating_the_batch_changes_nothing_under_mean_reduction():
    rng = np.random.default_rng(6)
    for loss_kind, head_kind in PAIRINGS:
        params = init_params(EncoderConfig(3, (4,)), head_kind, ProblemSpec(3), 2)
        batch = _random_batch(rng, loss_kind, 3, 3, 3)
        loss1, grad1 = loss_and_gradient(params, batch, loss_kind)
        loss2, grad2 = loss_and_gradient(params, batch + batch, loss_kind)
        assert loss2 == pytest.approx(loss1, abs=1e-12)
        np.testing.assert_allclose(
            _flat_grad(params, grad2), _flat_grad(params, grad1), atol=1e-12
        )


def test_task_losses_reject_the_softmax_head_and_vice_versa():
    params = init_params(EncoderConfig(3, ()), HEAD_SOFTMAX, ProblemSpec(3), 0)
    with pytest.raises(InputError):
        loss_and_gradient(params, [(np.zeros(3), 1)], LOSS_OR_CNN)
    task_params = init_params(EncoderConfig(3, ()), HEAD_INDEPENDENT, ProblemSpec(3), 0)
    with pytest.raises(InputError):
        loss_and_gradient(task_params, [(np.zeros(3), 1)], LOSS_CE)


def test_an_unknown_loss_kind_is_rejected_naming_the_valid_ones():
    params = init_params(EncoderConfig(3, ()), HEAD_SOFTMAX, ProblemSpec(3), 0)
    with pytest.raises(InputError, match=re.escape(
            f"loss_kind must be one of {ALL_LOSS_KINDS}, got 'hinge'")):
        loss_and_gradient(params, [(np.zeros(3), 1)], "hinge")


def test_ragged_batch_pairs_are_rejected():
    params = init_params(EncoderConfig(3, ()), HEAD_SOFTMAX, ProblemSpec(3), 0)
    with pytest.raises(InputError, match="^batch features must all have the same length$"):
        loss_and_gradient(params, [(np.zeros(3), 1), (np.zeros(2), 2)], LOSS_CE)
    with pytest.raises(InputError, match="^batch targets must all have the same length$"):
        loss_and_gradient(params, [(np.zeros(3), [0.5, 0.5, 0.0]), (np.zeros(3), [1.0, 0.0])],
                          LOSS_CE_SOFT)


def test_empty_batch_rejected():
    params = init_params(EncoderConfig(3, ()), HEAD_SOFTMAX, ProblemSpec(3), 0)
    with pytest.raises(InputError):
        loss_and_gradient(params, [], LOSS_CE)


@pytest.mark.parametrize("loss_kind,head_kind", PAIRINGS)
def test_batched_step_checks_its_arrays_once(loss_kind, head_kind):
    k = 4
    params = init_params(EncoderConfig(3, ()), head_kind, ProblemSpec(k), 0)
    x = np.zeros((3, 3))
    if loss_kind in (LOSS_OR_SOFT, LOSS_CE_SOFT):
        width = k - 1 if loss_kind == LOSS_OR_SOFT else k
        bad_targets = [np.full((3, width + 1), 0.2), np.full((2, width), 0.2)]
    else:
        bad_targets = [np.array([1, 2, k + 1]), np.array([0, 1, 2]), np.array([1, 2])]
    for targets in bad_targets:
        with pytest.raises(InputError):
            loss_and_gradient(params, Batch(x, targets), loss_kind)
    with pytest.raises(InputError):
        loss_and_gradient(params, Batch(np.zeros((3, 2)), np.array([1, 2, 3])), loss_kind)
    with pytest.raises(InputError):
        loss_and_gradient(params, Batch(np.zeros((0, 3)), np.zeros(0, dtype=np.int64)), loss_kind)


@pytest.mark.parametrize("loss_kind", [LOSS_CE, LOSS_OR_CNN, LOSS_CORN, LOSS_SORD_AE, LOSS_SORD_SE])
def test_a_hard_label_between_classes_is_rejected_not_truncated(loss_kind):
    head = HEAD_INDEPENDENT if loss_kind in (LOSS_OR_CNN, LOSS_CORN) else HEAD_SOFTMAX
    params = init_params(EncoderConfig(2, ()), head, ProblemSpec(3), 0)
    x = np.zeros((3, 2))
    for batch in ([(x[0], 1), (x[1], 2.5), (x[2], 3)], Batch(x, np.array([1.0, 2.5, 3.0]))):
        with pytest.raises(InputError, match=r"^class index 2\.5 outside 1\.\.3$"):
            loss_and_gradient(params, batch, loss_kind)
    # a whole number given as a float is its class
    loss, _ = loss_and_gradient(params, Batch(x, np.array([1.0, 2.0, 3.0])), loss_kind)
    assert loss == loss_and_gradient(params, Batch(x, np.array([1, 2, 3])), loss_kind)[0]


def test_a_batch_row_count_is_checked_where_it_enters_and_counts_real_examples():
    params = init_params(EncoderConfig(2, ()), HEAD_SOFTMAX, ProblemSpec(3), 0)
    stack = params.with_flat(np.stack([params.bundle.flat] * 2))
    x, y = np.zeros((2, 4, 2)), np.ones((2, 4), dtype=np.int64)
    assert len(Batch(x, y)) == 8 and len(Batch(x, y, np.array([4, 1]))) == 5
    assert len(Batch(x[0], y[0], 3)) == 3 and len(Batch(x[0], y[0])) == 4
    # a count of the wrong shape, outside 0..4, or not an integer
    bad = [(stack, Batch(x, y, rows)) for rows in (3, np.array([1, 2, 3]), np.array([5, 1]),
                                                   np.array([-1, 2]), np.array([1.0, 2.0]),
                                                   np.array([True, True]))]
    bad += [(params, Batch(x[0], y[0], np.array([2]))), (params, Batch(x[0], y[0], 5))]
    for model, batch in bad:
        with pytest.raises(InputError, match=r"^batch rows must be integer counts in 0\.\.4"):
            loss_and_gradient(model, batch, LOSS_CE)
    for model, batch in ((stack, Batch(x, y, np.array([0, 0]))), (params, Batch(x[0], y[0], 0))):
        with pytest.raises(InputError, match="^batch must be non-empty$"):
            loss_and_gradient(model, batch, LOSS_CE)


# ---- adam ----


def test_first_adam_step_moves_by_lr_times_sign():
    params = _zero_params(HEAD_INDEPENDENT, 3, d=2)
    state = init_adam_state(params, lr=1e-3)
    grad = ParamBundle(np.full_like(params.bundle.flat, 2.0), params.bundle.layout)
    new_params, new_state = adam_step(params, grad, state)
    for arr in new_params.bundle.arrays():
        np.testing.assert_allclose(arr, -1e-3 * np.ones_like(arr), rtol=1e-6)
    assert new_state.step == 1


def test_zero_gradient_leaves_params_unchanged():
    params = init_params(EncoderConfig(2, (3,)), HEAD_SOFTMAX, ProblemSpec(3), 4)
    state = init_adam_state(params)
    zero = ParamBundle(np.zeros_like(params.bundle.flat), params.bundle.layout)
    new_params, new_state = adam_step(params, zero, state)
    for a, b in zip(params.bundle.arrays(), new_params.bundle.arrays()):
        np.testing.assert_array_equal(a, b)
    assert new_state.step == 1


def test_two_adam_steps_match_the_recurrence_written_out_by_hand():
    lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
    rng = np.random.default_rng(7)
    params = init_params(EncoderConfig(3, (4,)), HEAD_SOFTMAX, ProblemSpec(3), 5)
    state = init_adam_state(params, lr=lr)
    g1 = ParamBundle(rng.normal(size=params.bundle.flat.shape), params.bundle.layout)
    g2 = ParamBundle(rng.normal(size=params.bundle.flat.shape), params.bundle.layout)

    p = flatten_params(params)
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, g_bundle in ((1, g1), (2, g2)):
        g = np.concatenate([a.ravel() for a in g_bundle.arrays()])
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        p = p - lr * m_hat / (np.sqrt(v_hat) + eps)

    params, state = adam_step(params, g1, state)
    params, state = adam_step(params, g2, state)
    np.testing.assert_allclose(flatten_params(params), p, atol=1e-12)
    assert state.step == 2


def test_a_stacked_adam_step_moves_each_model_as_it_moves_alone():
    rng = np.random.default_rng(9)
    one = init_params(EncoderConfig(3, (4,)), HEAD_SOFTMAX, ProblemSpec(3), 5)
    steps = [0, 6, 2999, 69999, 6]  # past the first table of bias corrections
    flat = one.bundle.flat + rng.normal(size=(len(steps), one.bundle.flat.size))
    m, v, g = rng.normal(size=flat.shape), rng.random(flat.shape), rng.normal(size=flat.shape)
    stacked = one.with_flat(flat)
    new, state = adam_step(stacked, ParamBundle(g, stacked.bundle.layout),
                           AdamState(m, v, np.array(steps), 1e-2))
    assert state.step.tolist() == [s + 1 for s in steps]
    for i, step in enumerate(steps):
        alone, _ = adam_step(one.with_flat(flat[i]), ParamBundle(g[i], one.bundle.layout),
                             AdamState(m[i], v[i], step, 1e-2))
        assert np.array_equal(new.bundle.flat[i], alone.bundle.flat)


# ---- checkpoints and determinism ----


@pytest.mark.parametrize("head_kind", ALL_HEAD_KINDS)
def test_checkpoint_round_trip_is_bit_exact(head_kind, tmp_path):
    params = init_params(EncoderConfig(3, (5, 2)), head_kind, ProblemSpec(4), 11)
    path = tmp_path / "params.json"
    save_params(params, path)
    loaded = load_params(path)
    assert loaded.head_kind == params.head_kind
    assert loaded.num_classes == params.num_classes
    for a, b in zip(params.bundle.arrays(), loaded.bundle.arrays()):
        np.testing.assert_array_equal(a, b)


def test_training_steps_are_deterministic():
    def run():
        rng = np.random.default_rng(12)
        params = init_params(EncoderConfig(3, (4,)), HEAD_SOFTMAX, ProblemSpec(3), 8)
        state = init_adam_state(params, lr=1e-2)
        for _ in range(20):
            batch = _random_batch(rng, LOSS_CE, 3, 3, 4)
            _, grad = loss_and_gradient(params, batch, LOSS_CE)
            params, state = adam_step(params, grad, state)
        return flatten_params(params)

    np.testing.assert_array_equal(run(), run())


def test_a_malformed_checkpoint_names_the_file_and_the_field(tmp_path):
    params = init_params(EncoderConfig(3, (4,)), HEAD_INDEPENDENT, ProblemSpec(4), 0)
    save_params(params, tmp_path / "good.json")
    doc = json.loads((tmp_path / "good.json").read_text())
    no_encoder = {key: value for key, value in doc.items() if key != "encoder"}
    cases = [
        (no_encoder, "missing field 'encoder'"),
        ([doc], "not a version-1 checkpoint"),
        ({**doc, "num_classes": 1}, "field 'num_classes': num_classes must be an integer >= 2"),
    ]
    for bad, message in cases:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(InputError, match=f"^{re.escape(f'{path}: {message}')}"):
            load_params(path)


def test_a_checkpoint_whose_tensors_do_not_fit_its_encoder_is_rejected(tmp_path):
    params = init_params(EncoderConfig(3, (4,)), HEAD_INDEPENDENT, ProblemSpec(4), 0)
    save_params(params, tmp_path / "good.json")
    doc = json.loads((tmp_path / "good.json").read_text())
    for bad in ({**doc, "head_w": doc["head_w"][:2]}, {**doc, "encoder_b": [[0.0] * 5]},
                {**doc, "num_classes": 5}):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(InputError, match=f"^{re.escape(str(path))}: parameter shapes do not"
                                             " match the encoder and head$"):
            load_params(path)
