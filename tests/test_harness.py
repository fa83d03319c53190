import json

import numpy as np
import pytest

from ordreg.core import ClassDistribution, InputError, ProblemSpec
from ordreg.data import (
    TIE_POLICY_LOWEST,
    SyntheticConfig,
    dataset_from_votes,
    generate_synthetic,
    stratified_k_fold,
)
from ordreg.harness import (
    DECODE_ARGMAX,
    DECODE_COUNT,
    METHODS,
    METRICS_FILE,
    RECORDS_FILE,
    Comparison,
    ExperimentResult,
    FoldOutcome,
    TrainConfig,
    TrainingDiverged,
    _aggregate,
    compare_methods,
    decode_distribution,
    predict_prob_matrix,
    read_records_csv,
    records_csv_text,
    render_experiment_result,
    run_cv,
    train_models,
    train_one,
    train_single,
    write_experiment_result,
)
from ordreg.losses import HARD_TARGET_LOSSES
from ordreg.metrics import MetricReport, _METRIC_NAMES, compute_metric_report
from ordreg.model import EncoderConfig, flatten_params, init_params

SMALL = generate_synthetic(
    SyntheticConfig(
        n_examples=48,
        n_features=2,
        num_classes=3,
        n_raters=3,
        thresholds=(-0.5, 0.5),
        feature_noise_sd=0.0,
        rater_noise_sd=0.0,
        seed=5,
    )
)


def small_config(method="or_soft", **kw):
    base = dict(
        method=method,
        encoder=EncoderConfig(input_dim=2, hidden_dims=(4,)),
        epochs=3,
        batch_size=8,
        lr=0.01,
        seeds=(0,),
    )
    base.update(kw)
    return TrainConfig(**base)


# ---- method table ----


def test_soft_target_methods_are_flagged():
    soft = {name for name, m in METHODS.items() if m.loss_kind not in HARD_TARGET_LOSSES}
    assert soft == {"ce_soft", "or_soft", "coral_soft"}


def test_head_and_decode_bindings():
    assert {m.head_kind for m in METHODS.values()} == {
        "softmax",
        "independent",
        "shared-slope-bias",
    }
    for name in ("ce", "ce_soft", "sord_ae", "sord_se"):
        assert METHODS[name].head_kind == "softmax"
        assert METHODS[name].default_decode == DECODE_ARGMAX
    for name in ("or_cnn", "or_soft", "corn"):
        assert METHODS[name].head_kind == "independent"
        assert METHODS[name].default_decode == DECODE_COUNT
    for name in ("coral", "coral_soft"):
        assert METHODS[name].head_kind == "shared-slope-bias"
        assert METHODS[name].default_decode == DECODE_COUNT
    assert METHODS["coral"].loss_kind == METHODS["or_cnn"].loss_kind
    assert METHODS["coral_soft"].loss_kind == METHODS["or_soft"].loss_kind


# ---- config validation ----


def test_unknown_method_error_lists_valid_names():
    with pytest.raises(InputError, match="coral_soft"):
        small_config(method="typo")


def test_config_rejects_bad_fields():
    with pytest.raises(InputError, match="lr"):
        small_config(lr=0.0)
    with pytest.raises(InputError, match="seeds"):
        small_config(seeds=(1, 1))
    with pytest.raises(InputError, match="seeds"):
        small_config(seeds=())
    with pytest.raises(InputError, match="val_fraction"):
        small_config(val_fraction=1.0)
    with pytest.raises(InputError, match="decode"):
        small_config(decode="nearest")
    with pytest.raises(InputError, match="tie_policy"):
        small_config(tie_policy="drop")


@pytest.mark.parametrize("field", ["epochs", "batch_size"])
def test_config_rejects_zero_epochs_or_batch_size(field):
    with pytest.raises(InputError, match="^epochs and batch_size must be >= 1$"):
        small_config(**{field: 0})


@pytest.mark.parametrize("field,value", [
    ("seeds", (0, -2)), ("lr", float("nan")), ("lr", float("inf"))])
def test_config_rejects_negative_seeds_and_a_non_finite_lr(field, value):
    with pytest.raises(InputError, match=field):
        small_config(**{field: value})


def test_decode_override_beats_the_method_default():
    assert small_config("or_soft").effective_decode == DECODE_COUNT
    assert small_config("or_soft", decode=DECODE_ARGMAX).effective_decode == DECODE_ARGMAX
    assert small_config("ce").effective_decode == DECODE_ARGMAX


# ---- prediction and decoding ----


@pytest.mark.parametrize("method", sorted(METHODS))
def test_predicted_distributions_are_valid(method):
    cfg = small_config(method)
    outcome = train_single(SMALL, cfg)[0]
    probs = predict_prob_matrix(outcome.params, method, SMALL.features[:10])
    assert probs.shape == (10, 3)
    assert np.all(probs >= 0)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)


@pytest.mark.parametrize("method", sorted(METHODS))
def test_zero_feature_rows_give_an_empty_prediction_for_every_head(method):
    params = init_params(EncoderConfig(input_dim=2, hidden_dims=(4,)), METHODS[method].head_kind,
                         ProblemSpec(4), 0)
    one = predict_prob_matrix(params, method, np.ones((0, 2)))
    stack = predict_prob_matrix(params.with_flat(np.stack([params.bundle.flat] * 3)), method,
                                np.ones((3, 0, 2)))
    assert (one.shape, stack.shape) == ((0, 4), (3, 0, 4))
    assert one.dtype == stack.dtype == np.float64


def test_decode_rules_disagree_on_a_bimodal_distribution():
    dist = ClassDistribution(np.array([0.4, 0.15, 0.01, 0.44]))
    assert decode_distribution(dist, DECODE_ARGMAX) == 4
    assert decode_distribution(dist, DECODE_COUNT) == 2
    with pytest.raises(InputError):
        decode_distribution(dist, "median")


# ---- train_one ----


def test_single_epoch_run_snapshots_that_epoch():
    split = stratified_k_fold(SMALL, 3, seed=0)
    fold = split.folds[0]
    out = train_one(SMALL, small_config(epochs=1), fold.train, fold.val, seed=0)
    assert len(out.history) == 1
    assert out.history[0].epoch == 1
    assert out.best_epoch == 1


def test_best_epoch_is_the_earliest_validation_minimum():
    split = stratified_k_fold(SMALL, 3, seed=0)
    fold = split.folds[0]
    out = train_one(SMALL, small_config(epochs=12), fold.train, fold.val, seed=1)
    maes = [h.val_uw_mae for h in out.history]
    assert out.best_epoch == int(np.argmin(maes)) + 1


def test_snapshot_equals_a_run_stopped_at_the_best_epoch():
    split = stratified_k_fold(SMALL, 3, seed=0)
    fold = split.folds[0]
    long = train_one(SMALL, small_config(epochs=12), fold.train, fold.val, seed=2)
    short = train_one(
        SMALL, small_config(epochs=long.best_epoch), fold.train, fold.val, seed=2
    )
    np.testing.assert_array_equal(flatten_params(long.params), flatten_params(short.params))


def test_training_is_deterministic_per_seed():
    split = stratified_k_fold(SMALL, 3, seed=0)
    fold = split.folds[0]
    cfg = small_config(epochs=5, method="ce")
    a = train_one(SMALL, cfg, fold.train, fold.val, seed=3)
    b = train_one(SMALL, cfg, fold.train, fold.val, seed=3)
    assert a.history == b.history
    np.testing.assert_array_equal(flatten_params(a.params), flatten_params(b.params))
    c = train_one(SMALL, cfg, fold.train, fold.val, seed=4)
    assert a.history != c.history


def test_runaway_learning_rate_raises_diverged():
    split = stratified_k_fold(SMALL, 3, seed=0)
    fold = split.folds[0]
    with pytest.raises(TrainingDiverged, match="epoch"):
        train_one(SMALL, small_config(method="ce", lr=1e200, epochs=5), fold.train, fold.val, 0)


def test_train_single_raises_the_first_seeds_divergence():
    with pytest.raises(TrainingDiverged, match="^ce seed 3: non-finite .* at epoch 1$"):
        train_single(SMALL, small_config(method="ce", lr=1e200, epochs=5, seeds=(3, 1)))


def test_training_no_models_gives_no_outcomes():
    assert train_models(SMALL, small_config(), []) == []


def test_empty_sets_rejected():
    with pytest.raises(InputError):
        train_one(SMALL, small_config(), [], [1], 0)
    with pytest.raises(InputError):
        train_one(SMALL, small_config(), [1], [], 0)


def test_all_tied_validation_set_rejected():
    votes = [(1, 2), (1,), (2,), (1,), (2,), (3,), (3,)]
    rng = np.random.default_rng(0)
    ds = dataset_from_votes(ProblemSpec(3), rng.normal(size=(7, 2)), votes)
    with pytest.raises(InputError, match="tie-excluded"):
        train_one(ds, small_config(), [1, 2, 5], [0], 0)


# ---- run_cv ----


def test_cv_with_one_seed_matches_a_direct_single_model_run():
    cfg = small_config(epochs=4, seeds=(1,))
    result = run_cv(SMALL, cfg, k=3, split_seed=7)
    split = stratified_k_fold(SMALL, 3, seed=7, val_fraction=cfg.val_fraction)
    for fold_outcome, fold in zip(result.folds, split.folds):
        assert fold_outcome.status == "ok"
        outcome = train_one(SMALL, cfg, fold.train, fold.val, seed=1)
        probs = predict_prob_matrix(outcome.params, cfg.method, SMALL.features[list(fold.test)])
        got = np.array([r.pred_dist.probs for r in fold_outcome.records])
        np.testing.assert_array_equal(got, probs)
        assert [r.example_id for r in fold_outcome.records] == [
            SMALL.ids[i] for i in fold.test
        ]


def test_cv_ensembles_per_seed_probability_rows():
    cfg = small_config(epochs=3, seeds=(0, 1))
    result = run_cv(SMALL, cfg, k=3, split_seed=2)
    split = stratified_k_fold(SMALL, 3, seed=2, val_fraction=cfg.val_fraction)
    fold = split.folds[0]
    stack = []
    for s in cfg.seeds:
        out = train_one(SMALL, cfg, fold.train, fold.val, s)
        stack.append(predict_prob_matrix(out.params, cfg.method, SMALL.features[list(fold.test)]))
    want = np.mean(stack, axis=0)
    got = np.array([r.pred_dist.probs for r in result.folds[0].records])
    np.testing.assert_array_equal(got, want)
    assert result.folds[0].best_epochs.keys() == {0, 1}


def test_cv_marks_diverged_folds_as_failed_and_flags_partial(monkeypatch):
    import ordreg.harness as hmod

    real = hmod.train_models
    split = stratified_k_fold(SMALL, 3, seed=0)
    poisoned = set(split.folds[1].test)

    def flaky(dataset, config, jobs):
        # the stacked trainer reports a diverged model as its entry, not by raising
        return [
            TrainingDiverged("synthetic blowup")
            if set(job.train) & poisoned == set() and job.seed == 0 else outcome
            for job, outcome in zip(jobs, real(dataset, config, jobs))
        ]

    monkeypatch.setattr(hmod, "train_models", flaky)
    with pytest.warns(UserWarning, match="failed"):
        result = run_cv(SMALL, small_config(epochs=2), k=3, split_seed=0)
    statuses = [f.status for f in result.folds]
    assert statuses.count("failed") == 1
    assert statuses.count("ok") == 2
    assert result.partial
    failed = next(f for f in result.folds if f.status == "failed")
    assert "synthetic blowup" in failed.error
    assert failed.report is None


@pytest.mark.parametrize("method", ["ce", "or_soft", "coral", "corn"])
def test_an_empty_test_fold_fails_only_its_fold(method):
    # three examples per class dealt over five folds leave folds 4 and 5 without a test example
    rng = np.random.default_rng(0)
    ds = dataset_from_votes(ProblemSpec(3), rng.normal(size=(9, 2)),
                            [(c,) for c in (1, 1, 1, 2, 2, 2, 3, 3, 3)])
    with pytest.warns(UserWarning):
        result = run_cv(ds, small_config(method), k=5)
    assert [f.status for f in result.folds] == ["ok"] * 3 + ["failed"] * 2
    assert {f.error for f in result.folds[3:]} == {"no evaluable test examples after tie exclusion"}


def test_cv_aggregates_only_completed_folds():
    result = run_cv(SMALL, small_config(epochs=2), k=3, split_seed=1)
    assert not result.partial
    reports = [f.report for f in result.folds]
    want_mean, want_std = _aggregate(reports)
    assert result.mean == want_mean
    assert result.std == want_std
    assert result.mean["mae_uw"] is not None


def test_aggregate_of_identical_reports_has_zero_std():
    values = {name: 0.5 for name in _METRIC_NAMES}
    report = MetricReport(values=values, num_records=4, missing_classes=())
    mean, std = _aggregate([report, report, report])
    assert mean["mae_uw"] == 0.5
    assert std["mae_uw"] == 0.0
    mean1, std1 = _aggregate([report])
    assert mean1["qwk"] == 0.5
    assert std1["qwk"] is None


def test_aggregate_skips_undefined_values():
    base = {name: 0.25 for name in _METRIC_NAMES}
    defined = MetricReport(values=base, num_records=4, missing_classes=())
    partial = MetricReport(values={**base, "spearman": None}, num_records=4, missing_classes=())
    mean, std = _aggregate([defined, partial])
    assert mean["spearman"] == 0.25
    assert std["spearman"] is None  # one defined value is not enough for a std
    assert std["mae_uw"] == 0.0


# ---- compare ----


def _fake_result(method, fold_values, metric="mae_uw"):
    folds = []
    for i, v in enumerate(fold_values):
        values = {name: 0.0 for name in _METRIC_NAMES}
        values[metric] = v
        folds.append(
            FoldOutcome(
                fold=i,
                status="ok",
                error="",
                report=MetricReport(values=values, num_records=1, missing_classes=()),
                records=(),
                best_epochs={0: 1},
                histories={0: ()},
            )
        )
    return ExperimentResult(method=method, folds=tuple(folds))


def test_identical_methods_compare_at_p_half():
    a = _fake_result("or_soft", [0.3, 0.4, 0.2, 0.5, 0.3])
    b = _fake_result("ce", [0.3, 0.4, 0.2, 0.5, 0.3])
    cmp = compare_methods(a, b, "mae_uw", "lower")
    assert cmp.p_value == 0.5
    assert not cmp.significant


def test_constant_advantage_is_significant():
    # offsets of exactly 0.25 keep every difference bit-identical
    a = _fake_result("or_soft", [0.25, 0.5, 0.375, 0.25, 0.5])
    b = _fake_result("ce", [0.5, 0.75, 0.625, 0.5, 0.75])
    cmp = compare_methods(a, b, "mae_uw", "lower")
    assert cmp.p_value == 0.0
    assert cmp.significant
    worse = compare_methods(b, a, "mae_uw", "lower")
    assert worse.p_value == 1.0 and not worse.significant


def test_compare_requires_matching_fold_sets():
    a = _fake_result("or_soft", [0.2, 0.3, 0.25])
    b = _fake_result("ce", [0.3, 0.4])
    with pytest.raises(InputError, match="folds"):
        compare_methods(a, b, "mae_uw", "lower")


def test_compare_rejects_undefined_metric_values():
    a = _fake_result("or_soft", [0.2, None, 0.25], metric="qwk_uw")
    b = _fake_result("ce", [0.3, 0.4, 0.35], metric="qwk_uw")
    with pytest.raises(InputError, match="undefined"):
        compare_methods(a, b, "qwk_uw", "higher")


def test_comparison_serializes_to_plain_json():
    a = _fake_result("or_soft", [0.2, 0.3, 0.25])
    b = _fake_result("ce", [0.3, 0.4, 0.35])
    doc = compare_methods(a, b, "mae_uw", "lower").to_dict()
    json.dumps(doc)
    assert doc["method_a"] == "or_soft"
    assert doc["significant"] is True
    assert doc["per_fold_a"] == [0.2, 0.3, 0.25]


def test_compare_rejects_an_unknown_metric_naming_the_valid_ones():
    a = _fake_result("or_soft", [0.2, 0.3, 0.25])
    b = _fake_result("ce", [0.3, 0.4, 0.35])
    with pytest.raises(InputError, match="unknown metric 'mae_w'; valid: mae_uw, qwk_uw, "):
        compare_methods(a, b, "mae_w", "lower")


def test_comparison_lists_the_completed_folds_it_paired():
    a = _fake_result("or_soft", [0.2, 0.3, 0.25, 0.3])
    b = _fake_result("ce", [0.3, 0.4, 0.35, 0.5])
    failed = FoldOutcome(fold=2, status="failed", error="diverged", report=None, records=(),
                         best_epochs={}, histories={})
    a, b = (ExperimentResult(method=r.method, folds=r.folds[:2] + (failed,) + r.folds[3:])
            for r in (a, b))
    doc = compare_methods(a, b, "mae_uw", "lower").to_dict()
    assert doc["folds"] == [0, 1, 3]
    assert doc["per_fold_a"] == [0.2, 0.3, 0.3]
    assert doc["per_fold_b"] == [0.3, 0.4, 0.5]


# ---- result files ----


def test_no_records_export_no_csv():
    with pytest.raises(InputError, match="^no records to export$"):
        records_csv_text([])


def test_records_csv_round_trips_bit_exact(tmp_path):
    result = run_cv(SMALL, small_config(epochs=2, seeds=(0, 1)), k=3, split_seed=0)
    records = result.folds[0].records
    path = tmp_path / "records.csv"
    path.write_text(records_csv_text(records))
    back = read_records_csv(path)
    assert records_csv_text(back) == records_csv_text(records)
    a = compute_metric_report(list(records)).to_dict()
    b = compute_metric_report(back).to_dict()
    assert a == b


AWKWARD_IDS = ("ex,5", 'say "hi"', "two\nlines", "cr\rlf", 'all ,"\n of them', "plain")


def test_ids_needing_quotes_round_trip_through_records_csv(tmp_path):
    from ordreg.metrics import eval_record

    rng = np.random.default_rng(0)
    soft = rng.dirichlet(np.ones(3), size=len(AWKWARD_IDS))
    pred = rng.dirichlet(np.ones(3), size=len(AWKWARD_IDS))
    table = eval_record(soft=soft, pred_dist=pred, example_id=AWKWARD_IDS)
    text = records_csv_text(table)
    # only the ids that need it are quoted; a plain id keeps its bytes
    assert '\n"ex,5",' in text and '\n"say ""hi""",' in text and "\nplain," in text
    path = tmp_path / "records.csv"
    path.write_bytes(text.encode("utf-8"))
    back = read_records_csv(path)
    assert back.ids == AWKWARD_IDS
    assert records_csv_text(back) == text
    assert np.array_equal(back.soft, table.soft) and np.array_equal(back.pred, table.pred)


def test_read_records_csv_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "id,hard,pred_hard,weight,soft_1,soft_2,pred_1,pred_2\n"
        "a,1,1,1.0,1.0,0.0,0.9,0.1\n"
        "b,1,9,1.0,1.0,0.0,0.9,0.1\n"
    )
    with pytest.raises(InputError, match="line 3"):
        read_records_csv(path)


def test_read_records_csv_names_the_line_a_row_starts_on_after_a_quoted_line_break(tmp_path):
    path = tmp_path / "ml.csv"
    path.write_bytes(
        b"id,hard,pred_hard,weight,soft_1,soft_2,pred_1,pred_2\n"
        b'"a\nb",1,1,1.0,1.0,0.0,0.9,0.1\n'
        b"c,1,1,1.0,1.0,0.0,0.9,0.1\n"
        b"d,1,1,0.5,1.0,0.0,0.9,0.1\n"
    )
    with pytest.raises(InputError) as err:
        read_records_csv(path)
    assert str(err.value) == f"{path}: line 5: weight must equal the soft label's maximum entry"


def test_result_directory_layout_and_metric_file_consistency(tmp_path):
    result = run_cv(SMALL, small_config(epochs=2), k=3, split_seed=0)
    write_experiment_result(tmp_path, render_experiment_result(result))
    for i in range(1, 4):
        fold_dir = tmp_path / "or_soft" / f"fold_{i}"
        assert (fold_dir / METRICS_FILE).exists()
        assert (fold_dir / RECORDS_FILE).exists()
        assert (fold_dir / "history.csv").exists()
        # metrics.json must be exactly what the records imply
        stored = (fold_dir / METRICS_FILE).read_bytes()
        report = compute_metric_report(read_records_csv(fold_dir / RECORDS_FILE))
        from ordreg.ioutil import canonical_json

        assert canonical_json(report.to_dict()).encode() == stored


def test_history_lengths_match_epochs():
    out = train_single(SMALL, small_config(epochs=4, seeds=(0, 2)))
    assert [o.seed for o in out] == [0, 2]
    assert all(len(o.history) == 4 for o in out)


def test_lowest_class_tie_policy_trains_on_every_example():
    votes = [(1, 2)] * 4 + [(1,), (2,), (3,), (1,), (2,), (3,)]
    rng = np.random.default_rng(3)
    ds = dataset_from_votes(ProblemSpec(3), rng.normal(size=(10, 2)), votes)
    cfg = small_config(epochs=2, tie_policy=TIE_POLICY_LOWEST)
    result = run_cv(ds, cfg, k=2, split_seed=0)
    n_records = sum(len(f.records) for f in result.folds)
    assert n_records == 10  # nothing excluded under the lowest-class policy
