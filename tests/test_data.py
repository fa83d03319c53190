import json

import numpy as np
import pytest

from ordreg.core import InputError, ProblemSpec
from ordreg.data import (
    MAX_CELL_COUNT,
    MAX_INFERRED_CLASSES,
    MAX_SYNTHETIC_CELLS,
    TIE_POLICY_LOWEST,
    TIE_POLICY_RESAMPLE,
    Dataset,
    SyntheticConfig,
    dataset_from_votes,
    generate_synthetic,
    load_csv,
    mean_pairwise_rater_qwk,
    resolve_ties,
    save_csv,
    stratified_k_fold,
    train_val_split,
)
from ordreg.ioutil import read_json

SPEC4 = ProblemSpec(num_classes=4)


def make_dataset(votes, spec=SPEC4, n_features=2, seed=0):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(len(votes), n_features))
    return dataset_from_votes(spec, features, votes)


NOISELESS = SyntheticConfig(
    n_examples=200,
    n_features=3,
    num_classes=4,
    n_raters=5,
    thresholds=(-0.6744897501960817, 0.0, 0.6744897501960817),
    feature_noise_sd=0.0,
    rater_noise_sd=0.0,
    seed=13,
)


# ---- dataset construction ----


def test_vote_counts_become_soft_label_fractions():
    ds = make_dataset([(2, 2, 3)])
    np.testing.assert_allclose(ds.soft[0], [0.0, 2 / 3, 1 / 3, 0.0])
    assert ds.hard[0] == 2
    np.testing.assert_array_equal(ds.modal, [[False, True, False, False]])
    assert not ds.tied_mask[0]


def test_split_vote_yields_tie_metadata():
    ds = make_dataset([(1, 3), (2, 2)])
    np.testing.assert_array_equal(ds.modal, [[True, False, True, False],
                                             [False, True, False, False]])
    assert ds.hard[0] == 1  # stored mode defaults to the lowest tied class
    np.testing.assert_array_equal(ds.tied_mask, [True, False])


def test_exceedance_matches_soft_label_tail_mass():
    ds = make_dataset([(2, 2, 3), (1, 1, 1, 4)])
    np.testing.assert_allclose(ds.exceed[0], [1.0, 1 / 3, 0.0])
    np.testing.assert_allclose(ds.exceed[1], [0.25, 0.25, 0.25])


def test_duplicate_ids_rejected():
    rng = np.random.default_rng(0)
    with pytest.raises(InputError, match="unique"):
        dataset_from_votes(SPEC4, rng.normal(size=(2, 2)), [(1,), (2,)], ids=("a", "a"))


def test_vote_outside_class_range_rejected():
    with pytest.raises(InputError):
        make_dataset([(1, 5)])


def test_a_numpy_vote_outside_the_range_is_named_as_a_plain_number():
    rng = np.random.default_rng(0)
    with pytest.raises(InputError, match=r"^class index 5 outside 1\.\.4$"):
        dataset_from_votes(SPEC4, rng.normal(size=(1, 2)), [(np.int64(5),)])


def test_arrays_are_read_only():
    ds = make_dataset([(1,), (2,)])
    with pytest.raises(ValueError):
        ds.features[0, 0] = 9.0
    with pytest.raises(ValueError):
        ds.soft[0, 0] = 0.5
    with pytest.raises(ValueError):
        ds.modal[0, 0] = False
    with pytest.raises(ValueError):
        ds.hard[0] = 3
    with pytest.raises(ValueError):
        ds.exceed[0, 0] = 0.5
    with pytest.raises(ValueError):
        ds.tied_mask[0] = True


# ---- synthetic generation ----


def test_noiseless_generator_yields_unanimous_raters():
    ds = generate_synthetic(NOISELESS)
    assert len(ds) == 200
    # zero rater noise: every vote equals the true class, soft labels one-hot
    assert ds.votes.shape == (200, 5) and (ds.votes == ds.hard[:, None]).all()
    assert np.all(np.isclose(ds.soft.max(axis=1), 1.0))
    assert not ds.tied_mask.any()
    assert mean_pairwise_rater_qwk(ds) == pytest.approx(1.0)


def test_noiseless_features_determine_the_class_exactly():
    ds = generate_synthetic(NOISELESS)
    # features = latent * projection with no noise, so projecting back on any
    # nonzero coordinate recovers the latent and hence the threshold rule
    proj = np.random.default_rng([NOISELESS.seed, 22]).standard_normal(3)
    latent = ds.features[:, 0] / proj[0]
    th = np.asarray(NOISELESS.thresholds)
    recovered = 1 + (th[None, :] < latent[:, None]).sum(axis=1)
    np.testing.assert_array_equal(recovered, ds.hard)


def test_generator_is_deterministic_per_seed():
    a = generate_synthetic(NOISELESS)
    b = generate_synthetic(NOISELESS)
    np.testing.assert_array_equal(a.features, b.features)
    assert np.array_equal(a.votes, b.votes) and np.array_equal(a.counts, b.counts)
    c = generate_synthetic(SyntheticConfig.from_dict({**NOISELESS.to_dict(), "seed": 14}))
    assert not np.array_equal(a.features, c.features)


def test_ids_are_unique_and_zero_padded():
    ds = generate_synthetic(NOISELESS)
    assert ds.ids[0] == "ex001"
    assert ds.ids[-1] == "ex200"
    assert len(set(ds.ids)) == len(ds)


def test_rater_agreement_decreases_with_rater_noise():
    kappas = []
    for sd in (0.0, 0.4, 1.0, 2.5):
        cfg = SyntheticConfig.from_dict({**NOISELESS.to_dict(), "rater_noise_sd": sd})
        vals = []
        for seed in range(5):
            ds = generate_synthetic(SyntheticConfig.from_dict({**cfg.to_dict(), "seed": seed}))
            vals.append(mean_pairwise_rater_qwk(ds))
        kappas.append(np.mean(vals))
    assert all(a > b for a, b in zip(kappas, kappas[1:]))
    assert kappas[0] == pytest.approx(1.0)


def test_config_round_trips_through_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(NOISELESS.to_dict()))
    assert SyntheticConfig.from_dict(read_json(path)) == NOISELESS


def test_config_validation():
    base = NOISELESS.to_dict()
    with pytest.raises(InputError, match="thresholds"):
        SyntheticConfig.from_dict({**base, "thresholds": [0.0]})
    with pytest.raises(InputError, match="increasing"):
        SyntheticConfig.from_dict({**base, "thresholds": [0.5, 0.0, 1.0]})
    with pytest.raises(InputError):
        SyntheticConfig.from_dict({**base, "rater_noise_sd": -0.1})
    with pytest.raises(InputError, match="missing"):
        SyntheticConfig.from_dict({k: v for k, v in base.items() if k != "seed"})
    with pytest.raises(InputError, match="unknown field 'n_rater'$"):
        SyntheticConfig.from_dict({**base, "n_rater": 9})


def test_a_generator_block_too_large_to_hold_exits_before_drawing():
    base = NOISELESS.to_dict()
    width = base["n_features"] + base["n_raters"]
    SyntheticConfig.from_dict({**base, "n_examples": MAX_SYNTHETIC_CELLS // width})
    for field, value in (("n_examples", 4016706901.0), ("n_raters", MAX_SYNTHETIC_CELLS)):
        with pytest.raises(InputError, match=f"exceeds {MAX_SYNTHETIC_CELLS}$"):
            SyntheticConfig.from_dict({**base, field: value})


# ---- CSV ----


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_csv_vote_columns(tmp_path):
    path = write_csv(
        tmp_path,
        "id,f_1,f_2,r_1,r_2,r_3\n"
        "a,0.5,-1.0,2,2,3\n"
        "b,1.5,0.25,1,,\n",
    )
    ds = load_csv(path, SPEC4)
    assert ds.ids == ("a", "b")
    np.testing.assert_allclose(ds.soft[0], [0.0, 2 / 3, 1 / 3, 0.0])
    assert ds.votes.tolist() == [[2, 2, 3], [1, 0, 0]]  # blank rater cells are missing votes
    np.testing.assert_array_equal(ds.features, [[0.5, -1.0], [1.5, 0.25]])


def test_load_csv_count_columns(tmp_path):
    path = write_csv(
        tmp_path,
        "f_1,c_1,c_2,c_3,c_4\n"
        "0.0,0,2,1,0\n"
        "1.0,3,,,\n",
    )
    ds = load_csv(path, SPEC4)
    assert ds.votes is None  # counts name no raters
    assert ds.counts.tolist() == [[0, 2, 1, 0], [3, 0, 0, 0]]
    assert ds.ids == ("1", "2")  # generated when no id column exists


def test_load_csv_rejects_out_of_range_vote_with_line_number(tmp_path):
    path = write_csv(tmp_path, "f_1,r_1\n0.0,2\n1.0,5\n")
    with pytest.raises(InputError, match="line 3.*vote 5"):
        load_csv(path, SPEC4)


def test_load_csv_header_errors(tmp_path):
    with pytest.raises(InputError, match="not both"):
        load_csv(write_csv(tmp_path, "f_1,r_1,c_1,c_2,c_3,c_4\n0,1,1,0,0,0\n", "both.csv"), SPEC4)
    with pytest.raises(InputError):
        load_csv(write_csv(tmp_path, "f_1\n0.0\n", "neither.csv"), SPEC4)
    with pytest.raises(InputError, match="c_1"):
        load_csv(write_csv(tmp_path, "f_1,c_1,c_2\n0,1,0\n", "short.csv"), SPEC4)


def test_load_csv_empty_file_and_empty_example(tmp_path):
    with pytest.raises(InputError, match="line 1"):
        load_csv(write_csv(tmp_path, "", "empty.csv"), SPEC4)
    with pytest.raises(InputError, match="line 2.*no votes"):
        load_csv(write_csv(tmp_path, "f_1,r_1,r_2\n0.0,,\n", "novote.csv"), SPEC4)


@pytest.mark.parametrize("spec", [None, ProblemSpec(3)])
def test_load_csv_of_a_header_alone_has_no_examples(tmp_path, spec):
    path = write_csv(tmp_path, "f_1,r_1\n", "header.csv")
    with pytest.raises(InputError) as err:
        load_csv(path, spec)
    assert str(err.value) == f"{path}: no examples"


def test_load_csv_malformed_fields(tmp_path):
    with pytest.raises(InputError, match="line 2.*feature"):
        load_csv(write_csv(tmp_path, "f_1,r_1\nabc,1\n", "badf.csv"), SPEC4)
    with pytest.raises(InputError, match="line 3.*vote"):
        load_csv(write_csv(tmp_path, "f_1,r_1\n0.0,1\n0.0,x\n", "badv.csv"), SPEC4)
    with pytest.raises(InputError, match="line 2"):
        load_csv(write_csv(tmp_path, "f_1,r_1\n0.0\n", "width.csv"), SPEC4)


def test_load_csv_names_the_line_a_row_starts_on_after_a_quoted_line_break(tmp_path):
    path = write_csv(tmp_path, 'id,f_1,r_1\n"a\nb",0.0,1\nc,0.0,1\nd,x,1\n', "ml.csv")
    with pytest.raises(InputError) as err:
        load_csv(path, SPEC4)
    assert str(err.value) == f"{path}: line 5: malformed feature value"


def test_load_csv_skips_a_blank_line_and_counts_it_in_later_line_numbers(tmp_path):
    ds = load_csv(write_csv(tmp_path, "id,f_1,r_1\na,0.0,1\n\nb,1.0,2\n", "gap.csv"), SPEC4)
    assert ds.ids == ("a", "b") and ds.votes.tolist() == [[1], [2]]
    path = write_csv(tmp_path, "id,f_1,r_1\na,0.0,1\n\nb,x,2\n", "gapbad.csv")
    with pytest.raises(InputError) as err:
        load_csv(path, SPEC4)
    assert str(err.value) == f"{path}: line 4: malformed feature value"


def test_load_csv_names_a_repeated_id_and_both_of_its_lines(tmp_path):
    path = write_csv(tmp_path, 'id,f_1,r_1\na,0.0,1\n"b\nc",0.0,2\n a ,1.0,2\nd,1.0,1\n', "rep.csv")
    with pytest.raises(InputError) as err:
        load_csv(path, SPEC4)
    assert str(err.value) == f"{path}: line 5: example id 'a' repeats line 2"
    rng = np.random.default_rng(0)
    with pytest.raises(InputError, match="^example ids must be unique; 'b' repeats$"):
        dataset_from_votes(SPEC4, rng.normal(size=(4, 1)), [(1,)] * 4, ids=("a", "b", "c", "b"))
    with pytest.raises(InputError, match="^example ids must be unique; '1' repeats$"):
        dataset_from_votes(SPEC4, rng.normal(size=(2, 1)), [(1,)] * 2, ids=(1, "1"))  # as stored


@pytest.mark.parametrize("data", [
    pytest.param(b"", id="empty-file"),
    pytest.param(b"id,id,f_1,r_1\n", id="duplicate-id-column"),
    pytest.param(b"f_1,c_x\n", id="malformed-count-column"),
    pytest.param(b"f_1,z_1\n", id="unrecognized-column"),
    pytest.param(b"r_1\n1\n", id="no-feature-columns"),
    pytest.param(b"f_1,r_1,c_1\n0,1,1\n", id="votes-and-counts"),
    pytest.param(b"f_1,c_1,c_3\n0,1,1\n", id="count-column-gap"),
    pytest.param(b"f_1,r_1\nabc,1\n", id="malformed-feature"),
    pytest.param(b"f_1,r_1\ninf,1\n", id="non-finite-feature"),
    pytest.param(b"f_1,r_1\n0.0,1\n0.0\n", id="field-count"),
    pytest.param(b"f_1,r_1\n0.0,1\n0.0,x\n", id="malformed-vote"),
    pytest.param(b"f_1,r_1\n0.0,1\n0.0,%d\n" % (MAX_INFERRED_CLASSES + 1), id="vote-cap"),
    pytest.param(b"f_1,c_1,c_2\n0.0,x,1\n", id="malformed-count"),
    pytest.param(b"f_1,c_1,c_2\n0.0,%d,1\n" % (MAX_CELL_COUNT + 1), id="count-cap"),
    pytest.param(b"f_1,r_1,r_2\n0.0,1,\n0.0,,\n", id="no-votes"),
    pytest.param(b"f_1,r_1\n", id="header-only"),
    pytest.param(b"f_1,r_1\n0.0,1\n1.0,1\n", id="one-class"),
    pytest.param(b"id,f_1,r_1\na,0.0,1\na,1.0,2\n", id="duplicate-ids"),
    pytest.param(b"f_1,r_1\n0.0,\xe9\n", id="not-utf8"),
    pytest.param(b"f_1,r_1\n" + b"1" * 140_000 + b",1\n", id="field-limit"),
])
def test_every_load_csv_error_starts_with_the_path_once(tmp_path, data):
    path = tmp_path / "data.csv"
    path.write_bytes(data)
    with pytest.raises(InputError) as err:
        load_csv(path)
    message = str(err.value)
    assert message.startswith(str(path)) and message.count(str(path)) == 1


def test_load_csv_infers_the_class_count_from_count_columns(tmp_path):
    path = write_csv(tmp_path, "f_1,c_1,c_2,c_3,c_4,c_5\n0.0,0,2,1,0,0\n1.0,3,,,,\n")
    ds = load_csv(path)
    assert ds.spec.num_classes == 5  # from the columns, though no vote is above 3
    assert ds.votes is None and ds.counts.tolist() == [[0, 2, 1, 0, 0], [3, 0, 0, 0, 0]]


def test_load_csv_infers_the_class_count_from_the_highest_vote(tmp_path):
    path = write_csv(tmp_path, "id,f_1,r_1,r_2,r_3\na,0.5,2,,3\nb,1.5,,1,\nc,0.0,,,2\n")
    ds = load_csv(path)
    assert ds.spec.num_classes == 3
    assert ds.votes.tolist() == [[2, 0, 3], [0, 1, 0], [0, 0, 2]]
    assert load_csv(path, SPEC4).spec.num_classes == 4  # a given spec wins


def test_load_csv_without_a_spec_rejects_a_single_class(tmp_path):
    for text, name in (("f_1,r_1,r_2\n0.0,1,1\n1.0,1,\n", "votes.csv"),
                       ("f_1,c_1\n0.0,2\n", "counts.csv")):
        path = write_csv(tmp_path, text, name)
        with pytest.raises(InputError, match="at least two classes") as err:
            load_csv(path)
        assert str(path) in str(err.value)


def test_load_csv_without_a_spec_still_checks_each_line(tmp_path):
    with pytest.raises(InputError, match="line 3.*vote 0"):
        load_csv(write_csv(tmp_path, "f_1,r_1\n0.0,2\n1.0,0\n", "zero.csv"))
    with pytest.raises(InputError, match="line 1.*c_1..c_3"):
        load_csv(write_csv(tmp_path, "f_1,c_1,c_3\n0.0,1,1\n", "gap.csv"))


def test_load_csv_caps_a_count_cell_and_an_inferred_class_count(tmp_path):
    at_cap = load_csv(write_csv(tmp_path, f"f_1,c_1,c_2\n0.0,{MAX_CELL_COUNT},1\n", "c.csv"))
    assert at_cap.counts.tolist() == [[MAX_CELL_COUNT, 1]]
    top = load_csv(write_csv(tmp_path, f"f_1,r_1\n0.0,1\n1.0,{MAX_INFERRED_CLASSES}\n", "v.csv"))
    assert top.spec.num_classes == MAX_INFERRED_CLASSES
    for text, match in (
        (f"f_1,c_1,c_2\n0.0,1,1\n1.0,1,{MAX_CELL_COUNT + 1}\n", f"count {MAX_CELL_COUNT + 1}"),
        (f"f_1,r_1\n0.0,1\n1.0,{MAX_INFERRED_CLASSES + 1}\n", "num_classes"),
    ):
        path = write_csv(tmp_path, text, "over.csv")
        with pytest.raises(InputError, match=f"line 3: .*{match}") as err:
            load_csv(path)
        assert str(path) in str(err.value)
    # an explicit class count lifts the vote cap
    above = MAX_INFERRED_CLASSES + 1
    wide = write_csv(tmp_path, f"f_1,r_1\n0.0,1\n1.0,{above}\n", "wide.csv")
    assert load_csv(wide, ProblemSpec(above)).votes.tolist() == [[1], [above]]


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN"])
def test_load_csv_rejects_non_finite_feature_naming_file_and_line(tmp_path, bad):
    path = write_csv(tmp_path, f"id,f_1,f_2,r_1\na,0.0,1.0,1\nb,0.5,{bad},2\nc,1.0,0.0,3\n")
    with pytest.raises(InputError) as err:
        load_csv(path, SPEC4)
    message = str(err.value)
    assert str(path) in message
    assert "line 3" in message and "f_2" in message and "non-finite" in message


def test_dataset_from_votes_rejects_non_finite_features_naming_the_example():
    features = np.zeros((3, 2))
    features[2, 1] = np.nan
    with pytest.raises(InputError, match="example index 2.*non-finite"):
        dataset_from_votes(SPEC4, features, [(1,), (2,), (3,)])
    features[2, 1] = -np.inf
    with pytest.raises(InputError, match="example index 2"):
        dataset_from_votes(SPEC4, features, [(1,), (2,), (3,)])


def test_save_then_load_round_trips_exactly(tmp_path):
    cfg = SyntheticConfig.from_dict({**NOISELESS.to_dict(), "rater_noise_sd": 0.8, "n_examples": 40})
    ds = generate_synthetic(cfg)
    # ids the writer must quote: a comma, a double quote, line breaks, all three at once
    ids = ["ex,1", 'say "hi"', "two\nlines", "crlf\r\nend", 'a, "b"\nc']
    quoted = dataset_from_votes(ds.spec, ds.features[:5], ds.votes[:5], ids)
    for i, data in enumerate((ds, quoted)):
        path = tmp_path / f"out{i}.csv"
        save_csv(data, path)
        back = load_csv(path, ProblemSpec(num_classes=4))
        assert back.ids == data.ids
        np.testing.assert_array_equal(back.features, data.features)  # repr round-trip, bit exact
        assert np.array_equal(back.votes, data.votes)
        np.testing.assert_array_equal(back.soft, data.soft)



def test_an_id_with_outer_whitespace_is_rejected_naming_it():
    # a CSV field is read stripped, so such an id would not survive save_csv -> load_csv
    rng = np.random.default_rng(0)
    for ids, bad in (([" a", "a"], " a"), (["a", "b "], "b "), (["a", "\tc"], "\tc")):
        with pytest.raises(InputError) as err:
            dataset_from_votes(SPEC4, rng.normal(size=(2, 1)), [(1,), (2,)], ids=ids)
        assert str(err.value) == f"example id {bad!r} has leading or trailing whitespace"
    assert dataset_from_votes(SPEC4, rng.normal(size=(1, 1)), [(1,)], ids=["a b"]).ids == ("a b",)


def test_blank_rater_cells_keep_each_vote_at_its_rater_through_save_and_load(tmp_path):
    text = ("id,f_1,r_1,r_2,r_3\n"
            "a,0.5,,2,3\n"
            "b,1.5,1,,4\n"
            "c,-1.0,2,3,\n"
            "d,0.0,,,1\n")
    ds = load_csv(write_csv(tmp_path, text), SPEC4)
    assert ds.votes.tolist() == [[0, 2, 3], [1, 0, 4], [2, 3, 0], [0, 0, 1]]
    assert ds.counts.tolist() == [[0, 1, 1, 0], [1, 0, 0, 1], [0, 1, 1, 0], [1, 0, 0, 0]]
    save_csv(ds, tmp_path / "out.csv")
    assert (tmp_path / "out.csv").read_text() == text
    back = load_csv(tmp_path / "out.csv", SPEC4)
    assert np.array_equal(back.votes, ds.votes) and np.array_equal(back.soft, ds.soft)


def _ref_rater_qwk(votes, k):
    """Per rater pair, qwk over the examples both rated (0 = no vote); the mean of those defined."""
    from ordreg.metrics import qwk_from_pairs

    kappas = []
    r = len(votes[0])
    for a in range(r):
        for b in range(a + 1, r):
            pairs = [(row[a], row[b]) for row in votes if row[a] and row[b]]
            if pairs:
                kappa = qwk_from_pairs([x for x, _ in pairs], [y for _, y in pairs], k)
                kappas += [] if kappa is None else [kappa]
    return sum(kappas) / len(kappas)


def test_rater_kappa_pairs_the_votes_of_each_rater_pair(tmp_path):
    cfg = SyntheticConfig.from_dict({**NOISELESS.to_dict(), "n_examples": 300, "n_raters": 3,
                                     "rater_noise_sd": 0.68, "feature_noise_sd": 0.1})
    full = generate_synthetic(cfg)
    votes = full.votes.tolist()
    assert mean_pairwise_rater_qwk(full) == pytest.approx(_ref_rater_qwk(votes, 4), abs=1e-12)
    blank = np.random.default_rng(5).random(len(full)) < 0.3  # about 30% of r_1
    assert 60 < blank.sum() < 120
    for row, gone in zip(votes, blank):
        row[0] = 0 if gone else row[0]
    lines = ["id,f_1,r_1,r_2,r_3"] + [f"{i},0.0," + ",".join(str(v or "") for v in row)
                                      for i, row in zip(full.ids, votes)]
    ds = load_csv(write_csv(tmp_path, "\n".join(lines) + "\n"), ProblemSpec(4))
    assert ds.votes.tolist() == votes
    want = _ref_rater_qwk(votes, 4)
    assert mean_pairwise_rater_qwk(ds) == pytest.approx(want, abs=1e-12)
    assert abs(want - _ref_rater_qwk(full.votes.tolist(), 4)) > 1e-3  # the blanks matter


def test_count_data_has_no_raters_and_saves_as_count_columns(tmp_path):
    text = ("id,f_1,c_1,c_2,c_3\n"
            "a,0.5,0,2,1\n"
            "b,1.5,3,,\n")
    ds = load_csv(write_csv(tmp_path, text))
    assert ds.votes is None and ds.spec.num_classes == 3
    assert ds.counts.tolist() == [[0, 2, 1], [3, 0, 0]]
    assert mean_pairwise_rater_qwk(ds) is None
    save_csv(ds, tmp_path / "out.csv")
    assert (tmp_path / "out.csv").read_text() == text.replace(",0,2,1", ",,2,1")
    back = load_csv(tmp_path / "out.csv")
    assert back.votes is None and np.array_equal(back.counts, ds.counts)
    assert np.array_equal(back.soft, ds.soft)


# ---- tie resolution ----


def test_resample_policy_excludes_ties_from_evaluation():
    ds = make_dataset([(1, 3), (2, 2), (4,)])
    res = resolve_ties(ds, TIE_POLICY_RESAMPLE)
    np.testing.assert_array_equal(res.eval_mask(), [False, True, True])


def test_lowest_policy_keeps_everything_with_lowest_class_mode():
    ds = make_dataset([(1, 3), (2, 2)])
    res = resolve_ties(ds, TIE_POLICY_LOWEST)
    np.testing.assert_array_equal(res.eval_mask(), [True, True])
    labels = res.sample_hard_labels(np.random.default_rng(0))
    np.testing.assert_array_equal(labels, [1, 2])


def test_resampled_labels_stay_within_the_tied_classes():
    ds = make_dataset([(1, 3), (2, 2), (2, 4)])
    res = resolve_ties(ds, TIE_POLICY_RESAMPLE)
    rng = np.random.default_rng(1)
    for _ in range(50):
        labels = res.sample_hard_labels(rng)
        assert labels[0] in (1, 3)
        assert labels[1] == 2
        assert labels[2] in (2, 4)


def test_resampling_is_uniform_over_tied_classes():
    ds = make_dataset([(1, 3)])
    res = resolve_ties(ds, TIE_POLICY_RESAMPLE)
    rng = np.random.default_rng(2)
    draws = [res.sample_hard_labels(rng)[0] for _ in range(2000)]
    freq = draws.count(1) / 2000
    assert abs(freq - 0.5) < 0.035


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_tie_draws_match_one_draw_per_tied_example(k):
    # 2-way ties everywhere, 3-way ties from K = 3, between untied examples
    votes = [(1, 2), (k,), (1, k), (k - 1, k), (1, 1, 2)]
    if k >= 3:
        votes += [(1, 2, 3), (2,), (1, 2, k), (k - 2, k - 1, k)]
    ds = make_dataset(votes, spec=ProblemSpec(k), seed=k)
    res = resolve_ties(ds, TIE_POLICY_RESAMPLE)
    tied = np.flatnonzero(ds.tied_mask).tolist()
    assert len(tied) >= 3
    for seed in range(6):
        batched = np.random.default_rng([seed, 42])
        looped = np.random.default_rng([seed, 42])
        for _ in range(4):
            expected = ds.hard.copy()
            for i in tied:
                classes = np.flatnonzero(ds.modal[i]) + 1
                expected[i] = classes[looped.integers(len(classes))]
            np.testing.assert_array_equal(res.sample_hard_labels(batched), expected)
        assert batched.bit_generator.state == looped.bit_generator.state
        assert batched.integers(1 << 40) == looped.integers(1 << 40)


def test_tie_free_dataset_resolves_to_identity():
    ds = make_dataset([(1,), (2, 2, 3)])
    for policy in (TIE_POLICY_RESAMPLE, TIE_POLICY_LOWEST):
        res = resolve_ties(ds, policy)
        assert not ds.tied_mask.any()
        np.testing.assert_array_equal(res.sample_hard_labels(np.random.default_rng(0)), ds.hard)
        assert res.eval_mask().all()


def test_unknown_tie_policy_rejected():
    with pytest.raises(InputError, match="tie policy"):
        resolve_ties(make_dataset([(1,)]), "coin_flip")


# ---- splits ----


def _labels_dataset(counts):
    votes = []
    for cls, n in enumerate(counts, start=1):
        votes.extend([(cls,)] * n)
    return make_dataset(votes, spec=ProblemSpec(num_classes=len(counts)))


def test_k_fold_balances_each_class_across_folds():
    ds = _labels_dataset([10, 10, 5])
    split = stratified_k_fold(ds, k=5, seed=3)
    assert len(split.folds) == 5
    for fold in split.folds:
        test_labels = ds.hard[list(fold.test)]
        assert (test_labels == 1).sum() == 2
        assert (test_labels == 2).sum() == 2
        assert (test_labels == 3).sum() == 1


def test_k_fold_test_sets_partition_the_dataset():
    ds = _labels_dataset([7, 9, 4])
    split = stratified_k_fold(ds, k=4, seed=0)
    seen = [i for fold in split.folds for i in fold.test]
    assert sorted(seen) == list(range(len(ds)))
    for fold in split.folds:
        assert set(fold.train).isdisjoint(fold.test)
        assert set(fold.val).isdisjoint(fold.test)
        assert set(fold.train).isdisjoint(fold.val)
        assert sorted(fold.train + fold.val + fold.test) == list(range(len(ds)))


def test_k_fold_per_class_test_counts_differ_by_at_most_one():
    ds = _labels_dataset([11, 6, 9])
    split = stratified_k_fold(ds, k=4, seed=5)
    for cls in (1, 2, 3):
        counts = [(ds.hard[list(f.test)] == cls).sum() for f in split.folds]
        assert max(counts) - min(counts) <= 1


def test_k_fold_is_deterministic_and_seed_sensitive():
    ds = _labels_dataset([8, 8, 8])
    assert stratified_k_fold(ds, 4, seed=1) == stratified_k_fold(ds, 4, seed=1)
    assert stratified_k_fold(ds, 4, seed=1) != stratified_k_fold(ds, 4, seed=2)


def test_k_fold_rejects_degenerate_k():
    ds = _labels_dataset([4, 4])
    with pytest.raises(InputError, match="k must be >= 2"):
        stratified_k_fold(ds, 1, seed=0)
    with pytest.raises(InputError, match="exceeds"):
        stratified_k_fold(ds, 9, seed=0)


def test_splits_reject_a_negative_seed():
    ds = _labels_dataset([4, 4])
    with pytest.raises(InputError, match="seed must be >= 0"):
        stratified_k_fold(ds, 2, seed=-1)
    with pytest.raises(InputError, match="seed must be >= 0"):
        train_val_split(range(len(ds)), ds.hard, seed=-1)


def test_k_fold_warns_when_a_class_is_rarer_than_k():
    ds = _labels_dataset([6, 6, 2])
    with pytest.warns(UserWarning, match="smallest class"):
        stratified_k_fold(ds, 4, seed=0)


def test_train_val_split_follows_the_fraction_per_class():
    ds = _labels_dataset([10, 5])
    train, val = train_val_split(range(len(ds)), ds.hard, fraction=0.8, seed=0)
    train_labels = ds.hard[list(train)]
    assert (train_labels == 1).sum() == 8
    assert (train_labels == 2).sum() == 4
    assert len(val) == 3
    assert set(train).isdisjoint(val)
    assert sorted(train + val) == list(range(15))


def test_train_val_split_rejects_fraction_bounds():
    ds = _labels_dataset([4, 4])
    for bad in (0.0, 1.0, 1.5):
        with pytest.raises(InputError, match="fraction"):
            train_val_split(range(len(ds)), ds.hard, fraction=bad)
    with pytest.raises(InputError, match="empty"):
        train_val_split([], ds.hard)


def test_train_val_split_keeps_one_training_example_per_tiny_class():
    ds = _labels_dataset([1, 9])
    train, val = train_val_split(range(10), ds.hard, fraction=0.8, seed=0)
    assert (ds.hard[list(train)] == 1).sum() == 1  # floor(0.8) would give 0


# ---- property: dataset_from_votes consistency ----


def test_soft_labels_always_sum_to_one_and_match_vote_counts():
    rng = np.random.default_rng(20)
    for _ in range(30):
        n = int(rng.integers(1, 15))
        votes = [
            tuple(int(v) for v in rng.integers(1, 5, size=rng.integers(1, 6)))
            for _ in range(n)
        ]
        ds = make_dataset(votes, seed=int(rng.integers(1000)))
        np.testing.assert_allclose(ds.soft.sum(axis=1), 1.0)
        for i, row in enumerate(votes):
            for cls in range(1, 5):
                assert ds.soft[i, cls - 1] == pytest.approx(row.count(cls) / len(row))
            assert ds.hard[i] == min(
                c for c in range(1, 5) if row.count(c) == max(row.count(x) for x in range(1, 5))
            )


# ---- dataset_from_votes against the per-example derivation it replaced ----


def _ref_soft_label(votes, spec):
    """The earlier per-example vote-fraction rule: entry k is the fraction of votes for class k."""
    from ordreg.core import RatingDistribution, check_class_index

    if len(votes) == 0:
        raise InputError("votes must be non-empty")
    counts = np.zeros(spec.num_classes, dtype=np.float64)
    for v in votes:
        counts[check_class_index(v, spec) - 1] += 1.0
    return RatingDistribution(counts / len(votes))


def _ref_label_views(votes, spec):
    """The earlier per-example loop: soft, hard, modal classes, exceed and the int votes."""
    from ordreg.core import exceedance_from_soft

    n, k = len(votes), spec.num_classes
    soft, hard, exceed = np.empty((n, k)), np.empty(n, dtype=np.int64), np.empty((n, k - 1))
    modal, clean = [], []
    for i, v in enumerate(votes):
        dist = _ref_soft_label(list(v), spec)
        clean.append(tuple(int(x) for x in v))
        soft[i] = dist.probs
        top = np.flatnonzero(dist.probs == dist.probs.max())
        hard[i] = int(top[0]) + 1
        modal.append(tuple(int(c) + 1 for c in top))
        exceed[i] = exceedance_from_soft(dist).exceed
    return soft, hard, tuple(modal), exceed, tuple(clean)


def _padded(clean):
    """Vote tuples as rows of the rater matrix: 0 past the end of a shorter tuple."""
    width = max(map(len, clean))
    return [list(v) + [0] * (width - len(v)) for v in clean]


def _ref_error(votes, spec):
    try:
        _ref_label_views(votes, spec)
    except Exception as err:  # the exception the per-example loop raised, if any
        return type(err), str(err)
    return None


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_label_views_are_the_bits_of_the_per_example_derivation(k):
    rng = np.random.default_rng(k)
    votes = [tuple(int(v) for v in rng.integers(1, k + 1, size=int(rng.integers(1, 8))))
             for _ in range(300)]
    votes += [(1, k), (k, 1, 1, k), tuple(range(1, k + 1)), (2,) * 9]  # 2-way and k-way ties
    ds = dataset_from_votes(ProblemSpec(k), np.zeros((len(votes), 1)), votes)
    soft, hard, modal, exceed, clean = _ref_label_views(votes, ProblemSpec(k))
    for got, want in ((ds.soft, soft), (ds.hard, hard), (ds.exceed, exceed)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert ds.modal.dtype == bool
    assert [tuple((np.flatnonzero(row) + 1).tolist()) for row in ds.modal] == list(modal)
    np.testing.assert_array_equal(ds.tied_mask, [len(m) > 1 for m in modal])
    assert ds.votes.tolist() == _padded(clean)
    assert any(len(m) == k for m in modal)


@pytest.mark.parametrize("votes", [
    [(1, 2), (5,), (0,)],             # out of range above, first
    [(1, 2), (2, 0, 9), ()],          # out of range below, before an empty example
    [(1,), (), (7,)],                 # empty before a bad vote
    [(1,), (2.5,)],                   # not an integer
    [(1,), ("3",)],                   # a string
    [(1,), (True, False)],            # booleans: True is 1, False is 0
    [(2.0, 3), (4, 1.0)],             # integral floats are accepted
    [(np.int64(2),), (np.uint8(4),)],
])
def test_vote_errors_and_conversions_follow_the_per_example_checks(votes):
    spec = ProblemSpec(4)
    want = _ref_error(votes, spec)
    try:
        ds = dataset_from_votes(spec, np.zeros((len(votes), 1)), votes)
    except Exception as err:
        assert (type(err), str(err)) == want
    else:
        assert want is None
        soft, hard, modal, exceed, clean = _ref_label_views(votes, spec)
        assert np.array_equal(ds.soft, soft) and np.array_equal(ds.hard, hard)
        assert ds.votes.tolist() == _padded(clean) and ds.votes.dtype == np.int64
