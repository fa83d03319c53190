"""End-to-end command tests, run in process through ordreg.cli.run."""

import json
import os
import re
import select
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from ordreg.cli import run
from ordreg.core import ProblemSpec
from ordreg.data import MAX_CELL_COUNT, MAX_INFERRED_CLASSES, dataset_from_votes, save_csv
from ordreg.harness import METHODS
from ordreg.ioutil import canonical_json
from ordreg.metrics import MAX_NUM_BINS

SYNTH = {
    "n_examples": 60,
    "n_features": 2,
    "num_classes": 3,
    "n_raters": 3,
    "thresholds": [-0.6, 0.6],
    "feature_noise_sd": 0.05,
    "rater_noise_sd": 0.5,
    "seed": 11,
}

EXP = {
    "methods": ["or_soft", "ce"],
    "folds": 2,
    "seeds": [0, 1],
    "epochs": 3,
    "batch_size": 8,
    "lr": 0.01,
    "hidden_dims": [4],
}


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """One generated CSV plus one finished cv run, shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    synth = write_json(root / "synth.json", SYNTH)
    data = root / "data.csv"
    assert run(["generate", "--config", synth, "--out", str(data)]) == 0
    results = root / "results"
    exp = write_json(root / "exp.json", {**EXP, "data": str(data), "out": str(results)})
    assert run(["cv", "--config", exp]) == 0
    return SimpleNamespace(root=root, synth=synth, data=data, exp=exp, results=results)


# ---- generate ----

def test_generate_is_deterministic_and_seed_sensitive(tmp_path):
    synth = write_json(tmp_path / "synth.json", SYNTH)
    a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    assert run(["generate", "--config", synth, "--out", str(a)]) == 0
    assert run(["generate", "--config", synth, "--out", str(b)]) == 0
    assert run(["generate", "--config", synth, "--out", str(c), "--seed", "99"]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header == "id,f_1,f_2,r_1,r_2,r_3"


def test_generate_missing_config_exits_one(tmp_path, capsys):
    rc = run(["generate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_generate_a_stray_config_key_exits_one_naming_it(tmp_path, capsys):
    synth = write_json(tmp_path / "synth.json", {**SYNTH, "n_rater": 9})
    out = tmp_path / "x.csv"
    assert run(["generate", "--config", synth, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: synthetic config has unknown field 'n_rater'\n"
    assert not out.exists()


# ---- cv ----

def test_cv_writes_summary_and_per_fold_files(ws):
    assert (ws.results / "summary.json").exists()
    for method in ("or_soft", "ce"):
        for fold in (1, 2):
            fold_dir = ws.results / method / f"fold_{fold}"
            assert (fold_dir / "metrics.json").exists()
            assert (fold_dir / "records.csv").exists()
            assert (fold_dir / "history.csv").exists()


def test_summary_structure_and_config_echo(ws):
    doc = json.loads((ws.results / "summary.json").read_text())
    assert set(doc) == {"meta", "config", "dataset", "methods"}
    assert set(doc["methods"]) == {"or_soft", "ce"}
    assert doc["dataset"]["num_classes"] == 3  # inferred from the vote columns
    assert doc["dataset"]["num_examples"] == 60
    assert doc["config"]["seeds"] == [0, 1]
    assert doc["config"]["folds"] == 2
    # volatile facts stay inside meta so reruns stay byte-comparable
    assert "out" not in doc["config"] and "jobs" not in doc["config"]
    assert set(doc["meta"]) == {"created_at", "argv", "jobs", "out", "version"}
    for method in ("or_soft", "ce"):
        block = doc["methods"][method]
        assert set(block) == {"folds", "mean", "std", "partial"}
        assert [f["fold"] for f in block["folds"]] == [1, 2]
        assert all(f["status"] == "ok" for f in block["folds"])
        assert set(block["folds"][0]["best_epochs"]) == {"0", "1"}
        assert block["partial"] is False


def test_cv_without_out_exits_one(ws, tmp_path, capsys):
    cfg = write_json(tmp_path / "noout.json", {**EXP, "data": str(ws.data)})
    assert run(["cv", "--config", cfg]) == 1
    assert "out" in capsys.readouterr().err


def test_unknown_method_exits_one_and_lists_valid_names(ws, tmp_path, capsys):
    assert run(["cv", "--config", ws.exp, "--methods", "typo",
                "--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    assert "typo" in err
    assert "coral_soft" in err  # the message enumerates the valid table


def test_a_method_listed_twice_exits_one_naming_it(ws, tmp_path, capsys):
    out = tmp_path / "r"
    assert run(["cv", "--config", ws.exp, "--methods", "ce,ce,or_soft", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "'methods'" in err and "'ce'" in err
    assert not out.exists()


def test_unknown_config_key_exits_one_and_names_it(ws, tmp_path, capsys):
    cfg = write_json(tmp_path / "bad.json", {**EXP, "data": str(ws.data),
                                             "out": str(tmp_path / "r"), "leaning_rate": 5})
    assert run(["cv", "--config", cfg]) == 1
    assert "leaning_rate" in capsys.readouterr().err


def test_an_unknown_synthetic_key_exits_one_naming_it(tmp_path, capsys):
    out = tmp_path / "r"
    cfg = write_json(tmp_path / "bad.json",
                     {**EXP, "out": str(out), "synthetic": {**SYNTH, "n_rater": 9}})
    assert run(["cv", "--config", cfg]) == 1
    assert capsys.readouterr().err == "error: synthetic config has unknown field 'n_rater'\n"
    assert not out.exists()


def test_folds_flag_zero_is_not_ignored(ws, tmp_path, capsys):
    out = tmp_path / "r"
    cfg = write_json(tmp_path / "exp.json",
                     {**EXP, "folds": 3, "data": str(ws.data), "out": str(out)})
    assert run(["cv", "--config", cfg, "--folds", "0"]) == 1
    assert "folds" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("field,value", [
    ("epochs", "abc"),          # int field
    ("lr", "fast"),             # float field
    ("seeds", [0, "one"]),      # list-of-int field
    ("hidden_dims", 4),         # list-of-int field given a scalar
    ("epochs", float("inf")),   # JSON Infinity overflows int()
    ("methods", "ce"),          # list-of-name field given a string
    ("ties", ["paper"]),        # string field given a list
    ("seeds", [-2]),            # numpy seeds must be non-negative
    ("split_seed", -1),
    ("epochs", 2.5),            # an integer field takes a whole number, not a truncated one
    ("batch_size", True),       # a bool is not a number
    ("hidden_dims", [4.6]),
    ("seeds", [0, 1.5]),
])
def test_config_type_errors_exit_one_naming_the_field(ws, tmp_path, capsys, field, value):
    cfg = write_json(tmp_path / "exp.json", {**EXP, "data": str(ws.data),
                                             "out": str(tmp_path / "r"), field: value})
    assert run(["cv", "--config", cfg]) == 1
    assert f"field '{field}'" in capsys.readouterr().err


@pytest.mark.parametrize("lr", [float("nan"), float("inf")])
def test_a_non_finite_lr_exits_one_naming_lr_before_any_training(ws, tmp_path, capsys, lr):
    out = tmp_path / "r"
    cfg = write_json(tmp_path / "exp.json", {**EXP, "data": str(ws.data), "out": str(out),
                                             "lr": lr})
    assert run(["cv", "--config", cfg]) == 1
    assert "error: lr must be a finite number" in capsys.readouterr().err
    assert not out.exists()


def _bad_config_json(ws, tmp_path):
    path = tmp_path / "exp.json"
    path.write_text('{"methods": ["ce"],')
    return ["cv", "--config", str(path)], str(path)


def _generate_with(doc):
    def case(ws, tmp_path):
        return ["generate", "--config", write_json(tmp_path / "synth.json", doc),
                "--out", str(tmp_path / "x.csv")], None
    return case


def _cv_on_data(content: bytes):
    def case(ws, tmp_path):
        data = tmp_path / "data.csv"
        data.write_bytes(content)
        cfg = write_json(tmp_path / "exp.json",
                         {**EXP, "data": str(data), "out": str(tmp_path / "r")})
        return ["cv", "--config", cfg], str(data)
    return case


def _thresholds_not_a_list(ws, tmp_path):
    cfg = write_json(tmp_path / "exp.json", {**EXP, "out": str(tmp_path / "r"),
                                             "synthetic": {**SYNTH, "thresholds": 5}})
    return ["cv", "--config", cfg], None


def _records_field_over_the_limit(ws, tmp_path):
    lines = (ws.results / "ce" / "fold_1" / "records.csv").read_text().splitlines()
    lines[1] = '"' + "x" * 140_000 + '"' + lines[1][lines[1].index(","):]
    path = tmp_path / "records.csv"
    path.write_text("\n".join(lines) + "\n")
    return ["evaluate", "--data", str(path)], str(path)


def _compare_with_metrics(text: str):
    def case(ws, tmp_path):
        broken = tmp_path / "ce"
        for fold in (1, 2):
            (broken / f"fold_{fold}").mkdir(parents=True)
            src = ws.results / "ce" / f"fold_{fold}" / "metrics.json"
            (broken / f"fold_{fold}" / "metrics.json").write_bytes(src.read_bytes())
        path = broken / "fold_2" / "metrics.json"
        path.write_text(text(path.read_text()))
        return ["compare", str(ws.results / "or_soft"), str(broken),
                "--metric", "mae_uw", "--direction", "lower"], str(path)
    return case


def _cv_with_jobs(jobs: str):
    def case(ws, tmp_path):
        cfg = write_json(tmp_path / "exp.json",
                         {**EXP, "data": str(ws.data), "out": str(tmp_path / "r")})
        return ["cv", "--config", cfg, "--jobs", jobs], None
    return case


def _cv_with_ties(ws, tmp_path):
    cfg = write_json(tmp_path / "exp.json", {**EXP, "data": str(ws.data), "ties": "highest",
                                             "out": str(tmp_path / "r")})
    return ["cv", "--config", cfg], None


def _cv_without_data(ws, tmp_path):
    return ["cv", "--config", write_json(tmp_path / "exp.json",
                                         {**EXP, "out": str(tmp_path / "r")})], None


def _compare_without_folds(ws, tmp_path):
    (tmp_path / "empty" / "fold_1").mkdir(parents=True)
    return (["compare", str(ws.results / "ce"), str(tmp_path / "empty"), "--metric", "mae_uw",
             "--direction", "lower"], str(tmp_path / "empty"))


_ROW = b"a,0.5,1,2\n"


@pytest.mark.parametrize("case,named", [
    (_bad_config_json, "malformed JSON"),
    (_generate_with({**SYNTH, "n_examples": "abc"}), "'n_examples'"),
    (_generate_with([SYNTH]), "JSON object"),
    (_generate_with({**SYNTH, "n_examples": 60.5}), "'n_examples'"),
    (_thresholds_not_a_list, "'thresholds'"),
    (_cv_on_data(b"id,f_1,r_1,r_2\n" + _ROW + b"b\xe9,1.0,2,2\n"), "not UTF-8"),
    (_cv_on_data(b"id,f_1,r_1,r_2\n" + _ROW + b"b," + b"1" * 140_000 + b",1,2\n"),
     "line 3: field larger than field limit"),
    (_records_field_over_the_limit, "line 2: field larger than field limit"),
    (_cv_on_data(b"id,f_1,c_1,c_2\na,0.5,1,2\nb,1.0,%d,0\n" % (MAX_CELL_COUNT + 1)),
     f"line 3: count {MAX_CELL_COUNT + 1}"),
    (_cv_on_data(b"id,f_1,r_1,r_2\n" + _ROW + b"b,1.0,%d,2\n" % (MAX_INFERRED_CLASSES + 1)),
     f"line 3: vote {MAX_INFERRED_CLASSES + 1}"),
    (_compare_with_metrics(lambda text: text[:-5]), "malformed JSON"),
    (_compare_with_metrics(lambda text: text.replace('"mae_uw"', '"mae_w"')), "'mae_uw'"),
    (_compare_with_metrics(lambda text: re.sub(r'"num_records": \d+', '"num_records": 12.5', text)),
     "'num_records'"),
    (_compare_with_metrics(lambda text: re.sub(r'"num_records": \d+', '"num_records": 0', text)),
     "'num_records'"),
    (_compare_with_metrics(lambda text: re.sub(r'"mae_uw": [^,\n]+', '"mae_uw": NaN', text)),
     "'mae_uw'"),
    (_compare_with_metrics(lambda text: re.sub(r'"mae_uw": [^,\n]+', '"mae_uw": Infinity', text)),
     "'mae_uw'"),
    (_cv_with_jobs("-3"), "--jobs"),
    (_cv_with_jobs("0"), "--jobs"),
    (_cv_with_ties, "field 'ties': must be 'paper' or 'lowest', got 'highest'"),
    (_cv_without_data, "field 'data': a data CSV (--data) or a synthetic block is required"),
    (_compare_without_folds, ": no fold_*/metrics.json files"),
], ids=["config-json", "generate-field-type", "generate-json-list", "generate-fractional-count",
        "thresholds-scalar", "data-not-utf8", "data-field-limit", "records-field-limit",
        "count-over-cap", "vote-over-inferred-class-cap", "metrics-json",
        "metrics-missing-metric", "metrics-fractional-count", "metrics-zero-count",
        "metrics-nan", "metrics-infinity", "jobs-negative", "jobs-zero", "ties-unknown",
        "no-data-source", "compare-no-folds"])
def test_bad_input_files_exit_one_naming_the_file_or_field(ws, tmp_path, capsys, case, named):
    args, path = case(ws, tmp_path)
    assert run(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    if path is not None:
        assert path in err


def poisoned_csv(tmp_path):
    # forty ordinary rows and one with features of 1e10: at lr 1e150 the large
    # row's outputs overflow in training, validation or test, fold by fold
    rng = np.random.default_rng(2)
    features = np.vstack([rng.normal(size=(40, 3)), np.full((1, 3), 1e10)])
    votes = [(int(c),) for c in rng.integers(1, 4, size=40)] + [(2,)]
    data = tmp_path / "data.csv"
    save_csv(dataset_from_votes(ProblemSpec(3), features, votes), data)
    return data


def poisoned_config(tmp_path, out):
    return write_json(tmp_path / "exp.json", {
        "data": str(poisoned_csv(tmp_path)), "out": str(out), "methods": ["or_soft", "ce"],
        "folds": 2, "seeds": [0], "epochs": 5, "lr": 1e150, "hidden_dims": [16]})


def test_non_finite_predictions_fail_their_folds_and_cv_exits_zero(tmp_path):
    out = tmp_path / "results"
    cfg = poisoned_config(tmp_path, out)
    assert run(["cv", "--config", cfg]) == 0
    summary = json.loads((out / "summary.json").read_text())
    folds = {method: [(f["status"], f.get("error")) for f in block["folds"]]
             for method, block in summary["methods"].items()}
    assert folds == {
        "or_soft": [("failed", "or_soft seed 0: non-finite validation prediction at epoch 4"),
                    ("ok", None)],
        "ce": [("failed", "ce seed 0: non-finite loss at epoch 2"),
               ("failed", "ce: non-finite ensemble test prediction")],
    }


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_the_folds_failed_warning_is_one_plain_line(tmp_path, jobs):
    cfg = poisoned_config(tmp_path, tmp_path / "results")
    proc = subprocess.run(CLI + ["cv", "--config", cfg, "--jobs", jobs], capture_output=True,
                          text=True, env={**os.environ, "ORDREG_LOG": "warning"})
    assert proc.returncode == 0, proc.stderr
    assert sorted(proc.stderr.splitlines()) == [
        "WARNING ordreg: ce: 2 of 2 folds failed; aggregates cover completed folds only",
        "WARNING ordreg: or_soft: 1 of 2 folds failed; aggregates cover completed folds only",
    ]
    assert ".py:" not in proc.stderr


def test_the_fold_split_warning_is_a_log_line(tmp_path):
    synth = write_json(tmp_path / "synth.json", {**SYNTH, "n_examples": 40})
    data = tmp_path / "data.csv"
    assert run(["generate", "--config", synth, "--out", str(data)]) == 0
    cfg = write_json(tmp_path / "exp.json", {**EXP, "data": str(data), "out": str(tmp_path / "r"),
                                             "methods": ["ce"], "folds": 12, "epochs": 1})
    default_env = {k: v for k, v in os.environ.items() if k != "ORDREG_LOG"}
    for env, lines in ((default_env, ["WARNING ordreg: k=12 exceeds the smallest class count 8;"
                                      " some folds will miss that class"]),
                       ({**default_env, "ORDREG_LOG": "error"}, [])):
        proc = subprocess.run(CLI + ["cv", "--config", cfg], capture_output=True, text=True,
                              env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines() == lines  # no UserWarning and no source line


def test_a_gap_in_the_count_columns_exits_one_naming_line_one(tmp_path, capsys):
    data = tmp_path / "gap.csv"
    data.write_text("f_1,c_1,c_3\n0.0,1,1\n1.0,2,0\n")
    cfg = write_json(tmp_path / "exp.json", {**EXP, "data": str(data), "out": str(tmp_path / "r")})
    assert run(["cv", "--config", cfg]) == 1
    assert "line 1: count columns must be exactly c_1..c_3" in capsys.readouterr().err


@pytest.mark.parametrize("placement", ["test", "train"])
def test_non_finite_feature_exits_one_naming_file_and_line(ws, tmp_path, capsys, placement):
    from ordreg.core import ProblemSpec
    from ordreg.data import load_csv, stratified_k_fold

    dataset = load_csv(ws.data, ProblemSpec(SYNTH["num_classes"]))
    fold = stratified_k_fold(dataset, EXP["folds"], 0, 0.8).folds[0]
    index = (fold.test if placement == "test" else fold.train)[0]
    lines = ws.data.read_text().splitlines()
    fields = lines[index + 1].split(",")
    fields[1] = "nan"  # f_1
    lines[index + 1] = ",".join(fields)
    data = tmp_path / "nan.csv"
    data.write_text("\n".join(lines) + "\n")
    out = tmp_path / "r"
    cfg = write_json(tmp_path / "exp.json", {**EXP, "data": str(data), "out": str(out)})
    assert run(["cv", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert str(data) in err and f"line {index + 2}" in err
    assert not (out / "summary.json").exists()


def test_seed_flag_rewrites_seed_list_and_split_seed(ws, tmp_path):
    out = tmp_path / "r"
    cfg = write_json(tmp_path / "exp.json",
                     {**EXP, "methods": ["or_soft"], "epochs": 1,
                      "data": str(ws.data), "out": str(out)})
    assert run(["cv", "--config", cfg, "--seed", "5"]) == 0
    doc = json.loads((out / "summary.json").read_text())
    assert doc["config"]["seeds"] == [5, 6]
    assert doc["config"]["split_seed"] == 5


@pytest.mark.parametrize("command", ["cv", "train", "generate"])
def test_a_negative_seed_flag_exits_one_naming_it_before_any_data_is_read(tmp_path, capsys,
                                                                           command):
    out = tmp_path / "r"
    if command == "generate":  # nothing is drawn or written
        args = ["--config", write_json(tmp_path / "synth.json", SYNTH), "--out", str(out)]
    else:
        args = ["--config", write_json(tmp_path / "exp.json", {
            **EXP, "methods": ["ce"], "data": str(tmp_path / "absent.csv"), "out": str(out)})]
    assert run([command, *args, "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: --seed: must be at least 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["cv", "train"])
@pytest.mark.parametrize("flag,value", [
    ("--data", ""), ("--methods", ""), ("--methods", " , "), ("--out", ""),
])
def test_an_empty_data_methods_or_out_flag_exits_one_naming_it(ws, tmp_path, monkeypatch, capsys,
                                                                command, flag, value):
    monkeypatch.chdir(tmp_path)  # Path("") is the current directory: nothing may land there
    cfg = write_json(tmp_path / "exp.json", {**EXP, "methods": ["ce"], "data": str(ws.data),
                                             "out": str(tmp_path / "r")})
    assert run([command, "--config", cfg, flag, value]) == 1
    assert capsys.readouterr().err == f"error: {flag}: must not be empty\n"
    assert [path.name for path in tmp_path.iterdir()] == ["exp.json"]


@pytest.mark.parametrize("command", ["cv", "train"])
@pytest.mark.parametrize("field,value", [
    ("lr", -1), ("activation", "sigmoid"), ("num_bins", 20_000), ("hidden_dims", [0]),
])
def test_a_bad_training_field_is_named_even_when_the_data_is_bad_too(tmp_path, capsys,
                                                                      command, field, value):
    data = tmp_path / "bad.csv"
    data.write_text("id,f_1,r_1,r_2\na,0.5,1,2\nb,x,2,2\n")  # line 3: feature x
    out = tmp_path / "r"
    cfg = write_json(tmp_path / "exp.json", {**EXP, "methods": ["ce"], "data": str(data),
                                             "out": str(out), field: value})
    assert run([command, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err and "line 3" not in err
    assert not out.exists()


@pytest.mark.parametrize("flag,key,value", [
    ("--data", "data", None), ("--decode", "decode", "count"), ("--ties", "ties", "lowest"),
])
def test_each_flag_gives_the_output_tree_of_its_config_key(ws, tmp_path, flag, key, value):
    value = str(ws.data) if value is None else value
    base = {**EXP, "data": str(ws.data)}
    trees = []
    for name, doc, flags in (("key", {**base, key: value}, []),
                             ("flag", {k: v for k, v in base.items() if k != key}, [flag, value])):
        cfg = write_json(tmp_path / f"{name}.json", {**doc, "out": str(tmp_path / "r")})
        assert run(["cv", "--config", cfg] + flags) == 0
        trees.append(_tree(tmp_path / "r"))
        summary = json.loads((tmp_path / "r" / "summary.json").read_text())
        echoed = summary["dataset"]["source"] if key == "data" else summary["config"][key]
        assert echoed == value
    assert trees[0] == trees[1]


def test_cv_from_flags_alone_gives_the_tree_of_the_same_settings_as_a_config(tmp_path):
    data = tmp_path / "small.csv"  # 20 examples keep the 1,000 default epochs short
    synth = write_json(tmp_path / "synth.json", {**SYNTH, "n_examples": 20})
    assert run(["generate", "--config", synth, "--out", str(data)]) == 0
    assert run(["cv", "--data", str(data), "--methods", "ce", "--out", str(tmp_path / "f")]) == 0
    cfg = write_json(tmp_path / "exp.json", {"data": str(data), "methods": ["ce"],
                                             "out": str(tmp_path / "c")})
    assert run(["cv", "--config", cfg]) == 0
    assert _tree(tmp_path / "f") == _tree(tmp_path / "c")


def test_a_configured_num_classes_above_the_highest_vote_is_echoed_and_used(ws, tmp_path):
    out = tmp_path / "r"
    cfg = write_json(tmp_path / "exp.json", {**EXP, "methods": ["ce"], "num_classes": 5,
                                             "data": str(ws.data), "out": str(out)})
    assert run(["cv", "--config", cfg]) == 0
    doc = json.loads((out / "summary.json").read_text())
    assert doc["config"]["num_classes"] == 5 and doc["dataset"]["num_classes"] == 5
    header = (out / "ce" / "fold_1" / "records.csv").read_text().splitlines()[0]
    assert header.endswith(",soft_5,pred_1,pred_2,pred_3,pred_4,pred_5")


def test_rerunning_cv_reproduces_everything_but_meta(ws, tmp_path):
    docs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        cfg = write_json(tmp_path / f"{name}.json",
                         {**EXP, "methods": ["or_soft"], "epochs": 2,
                          "data": str(ws.data), "out": str(out)})
        assert run(["cv", "--config", cfg]) == 0
        fold = out / "or_soft" / "fold_1"
        docs.append((json.loads((out / "summary.json").read_text()),
                     (fold / "records.csv").read_bytes(),
                     (fold / "metrics.json").read_bytes()))
    (sa, ra, ma), (sb, rb, mb) = docs
    sa.pop("meta"), sb.pop("meta")
    assert sa == sb
    assert ra == rb and ma == mb


def _tree(out):
    """Every output file's bytes, with summary.json's meta block left out."""
    files = {}
    for path in sorted(out.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.name == "summary.json":
                doc = json.loads(data)
                doc.pop("meta")
                data = json.dumps(doc, sort_keys=True).encode()
            files[str(path.relative_to(out))] = data
    return files


@pytest.mark.parametrize("extra", [{}, {"hidden_dims": [8, 4], "activation": "tanh",
                                        "ties": "lowest", "folds": 3}])
def test_jobs_two_matches_serial_for_every_method(ws, tmp_path, extra):
    trees = []
    for name, flags in (("serial", []), ("jobs2", ["--jobs", "2"])):
        out = tmp_path / name
        cfg = write_json(tmp_path / f"{name}.json",
                         {**EXP, "methods": sorted(METHODS), "data": str(ws.data), "out": str(out),
                          **extra})
        assert run(["cv", "--config", cfg] + flags) == 0
        trees.append(_tree(out))
    serial, jobs2 = trees
    assert len(serial) == 1 + 9 * 3 * (extra.get("folds", 2))
    assert serial == jobs2


def test_awkward_ids_survive_cv_and_evaluate(tmp_path, capsys):
    from ordreg.core import ProblemSpec
    from ordreg.data import load_csv

    rows = ['id,f_1,c_1,c_2,c_3']
    for i in range(24):
        ident = ('"ex,5"', '"say ""hi"""', '"two\nlines"')[i] if i < 3 else f"ex{i}"
        rows.append(f"{ident},{(i % 3) + 0.1 * i},{i % 3 == 0:d},{i % 3 == 1:d},{i % 3 == 2:d}")
    data = tmp_path / "data.csv"
    data.write_text("\n".join(rows) + "\n")
    assert load_csv(data, ProblemSpec(3)).ids[:3] == ("ex,5", 'say "hi"', "two\nlines")
    out = tmp_path / "r"
    cfg = write_json(tmp_path / "exp.json", {**EXP, "methods": ["ce"], "folds": 2,
                                             "data": str(data), "out": str(out)})
    assert run(["cv", "--config", cfg]) == 0
    for fold in (1, 2):
        fold_dir = out / "ce" / f"fold_{fold}"
        report = tmp_path / f"m{fold}.json"
        assert run(["evaluate", "--data", str(fold_dir / "records.csv"), "--out", str(report)]) == 0
        assert report.read_bytes() == (fold_dir / "metrics.json").read_bytes()
    capsys.readouterr()


def test_a_failing_method_keeps_the_summary_of_those_that_finished(ws, tmp_path, monkeypatch,
                                                                    capsys):
    import ordreg.cli as cli_mod

    real = cli_mod.run_cv

    def second_fails(dataset, config, **kw):
        if config.method == "ce":
            raise RuntimeError("synthetic crash in ce")
        return real(dataset, config, **kw)

    monkeypatch.setattr(cli_mod, "run_cv", second_fails)
    for flags in ([], ["--jobs", "2"]):  # serial, and methods in forked workers
        out = tmp_path / f"r{len(flags)}"
        cfg = write_json(tmp_path / "exp.json", {**EXP, "methods": ["or_soft", "ce", "corn"],
                                                 "data": str(ws.data), "out": str(out)})
        assert run(["cv", "--config", cfg] + flags) == 2
        err = capsys.readouterr().err
        assert "failure: synthetic crash in ce" in err
        doc = json.loads((out / "summary.json").read_text())
        assert list(doc["methods"]) == ["or_soft"]
        assert doc["meta"]["failure"] == "ce: synthetic crash in ce"
        assert (out / "or_soft" / "fold_1" / "metrics.json").exists()
        assert not (out / "ce").exists() and not (out / "corn").exists()


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="--jobs 2 forks only with 2 CPUs")
def test_a_worker_that_dies_fails_its_method_and_leaves_no_process(ws, tmp_path, monkeypatch,
                                                                   capsys):
    import ordreg.cli as cli_mod

    real, parent = cli_mod.run_cv, os.getpid()
    read_end, write_end = os.pipe()

    def ce_dies(dataset, config, **kw):
        if config.method == "ce":
            assert os.getpid() != parent  # cv takes the first method before it forks
            os.write(write_end, b"1")
            os._exit(3)
        # or_soft, which cv takes first, ends only once ce has started in the child;
        # else cv could take ce itself
        select.select([read_end], [], [], 60)
        return real(dataset, config, **kw)

    monkeypatch.setattr(cli_mod, "run_cv", ce_dies)
    out = tmp_path / "r"
    cfg = write_json(tmp_path / "exp.json", {**EXP, "methods": ["or_soft", "ce"],
                                             "data": str(ws.data), "out": str(out)})
    try:
        assert run(["cv", "--config", cfg, "--jobs", "2"]) == 2
    finally:
        os.close(read_end)
        os.close(write_end)
    assert "failure: the worker process running ce exited with status 3" in capsys.readouterr().err
    doc = json.loads((out / "summary.json").read_text())
    assert list(doc["methods"]) == ["or_soft"]
    assert doc["meta"]["failure"] == "ce: the worker process running ce exited with status 3"
    assert not (out / "ce").exists()
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


PROGRESS = re.compile(
    r"INFO ordreg\.harness: (\w+) fold (\d+) seed (\d+): best epoch (\d+), "
    r"val UW-MAE (\d+\.\d{6}); stacked group of (\d+) models, (\d+\.\d{3}) s, "
    r"(\d+\.\d) epochs/s"
)


def test_info_logging_prints_one_progress_line_per_model(ws, tmp_path):
    out = tmp_path / "r"
    cfg = write_json(tmp_path / "exp.json", {**EXP, "data": str(ws.data), "out": str(out)})
    proc = subprocess.run(CLI + ["cv", "--config", cfg], capture_output=True, text=True,
                          env={**os.environ, "ORDREG_LOG": "info"})
    assert proc.returncode == 0, proc.stderr
    lines = [m.groups() for m in map(PROGRESS.fullmatch, proc.stderr.splitlines()) if m]
    assert [(m, int(f), int(s)) for m, f, s, *_ in lines] == [
        (m, f, s) for m in EXP["methods"] for f in (1, 2) for s in EXP["seeds"]]
    summary = json.loads((out / "summary.json").read_text())
    for method, fold, seed, best, mae, group, _, _ in lines:
        assert int(group) == 4  # 2 folds x 2 seeds, one stacked group
        blocks = summary["methods"][method]["folds"][int(fold) - 1]
        assert blocks["best_epochs"][seed] == int(best)
        path = out / method / f"fold_{fold}" / "history.csv"
        history = {(r[0], r[1]): r[3] for r in
                   (line.split(",") for line in path.read_text().splitlines()[1:])}
        assert f"{float(history[(seed, best)]):.6f}" == mae


def test_info_logging_names_each_diverged_model_in_job_order(tmp_path):
    methods = ["or_soft", "ce", "corn"]
    cfg = write_json(tmp_path / "exp.json", {
        "data": str(poisoned_csv(tmp_path)), "out": str(tmp_path / "r"), "methods": methods,
        "folds": 2, "seeds": [0, 1], "epochs": 5, "lr": 1e150, "hidden_dims": [16]})
    proc = subprocess.run(CLI + ["cv", "--config", cfg], capture_output=True, text=True,
                          env={**os.environ, "ORDREG_LOG": "info"})
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    job = re.compile(r"INFO ordreg\.harness: (\w+) fold (\d+) seed (\d+): (.*)")
    lines = [m.groups() for m in map(job.fullmatch, proc.stderr.splitlines()) if m]
    assert [(m, int(f), int(s)) for m, f, s, _ in lines] == [
        (m, f, s) for m in methods for f in (1, 2) for s in (0, 1)]
    diverged = {(m, int(f), int(s)): rest for m, f, s, rest in lines
                if not rest.startswith("best epoch")}
    assert diverged == {
        ("or_soft", 1, 0): "diverged (or_soft seed 0: non-finite validation prediction at epoch 4)",
        ("or_soft", 1, 1): "diverged (or_soft seed 1: non-finite validation prediction at epoch 2)",
        ("ce", 1, 0): "diverged (ce seed 0: non-finite loss at epoch 2)",
        ("ce", 1, 1): "diverged (ce seed 1: non-finite loss at epoch 2)",
        ("corn", 1, 1): "diverged (corn seed 1: non-finite validation prediction at epoch 2)",
    }


def test_counts_csv_infers_num_classes(tmp_path):
    rows = ["f_1,c_1,c_2,c_3,c_4"]
    for i in range(16):
        counts = [0, 0, 0, 0]
        counts[i % 4] = 2
        rows.append(",".join(["%.1f" % (i - 8)] + [str(c) for c in counts]))
    data = tmp_path / "counts.csv"
    data.write_text("\n".join(rows) + "\n")
    out = tmp_path / "r"
    cfg = write_json(tmp_path / "exp.json",
                     {**EXP, "methods": ["or_soft"], "epochs": 1, "folds": 2,
                      "batch_size": 4, "data": str(data), "out": str(out)})
    assert run(["cv", "--config", cfg]) == 0
    doc = json.loads((out / "summary.json").read_text())
    assert doc["dataset"]["num_classes"] == 4


# ---- train ----

def test_train_writes_history_and_per_seed_checkpoints(ws, tmp_path, capsys):
    out = tmp_path / "ckpt"
    cfg = write_json(tmp_path / "train.json",
                     {**EXP, "methods": ["coral_soft"], "epochs": 2,
                      "data": str(ws.data), "out": str(out)})
    assert run(["train", "--config", cfg]) == 0
    assert "trained coral_soft" in capsys.readouterr().out
    mdir = out / "coral_soft"
    assert (mdir / "history.csv").exists()
    assert (mdir / "seed_0_params.json").exists()
    assert (mdir / "seed_1_params.json").exists()


def test_train_requires_exactly_one_method(ws, tmp_path, capsys):
    cfg = write_json(tmp_path / "t.json", {**EXP, "data": str(ws.data), "out": str(tmp_path)})
    assert run(["train", "--config", cfg]) == 1
    assert "exactly one" in capsys.readouterr().err


def test_train_has_no_folds_flag_but_reads_a_config_with_folds(ws, tmp_path, capsys):
    out = tmp_path / "ckpt"
    cfg = write_json(tmp_path / "t.json", {**EXP, "methods": ["ce"], "epochs": 1, "folds": 3,
                                           "data": str(ws.data), "out": str(out)})
    assert run(["train", "--config", cfg, "--folds", "3"]) == 1
    assert "unrecognized arguments: --folds 3" in capsys.readouterr().err
    assert not out.exists()
    assert run(["train", "--config", cfg]) == 0  # one config file serves train and cv


# ---- evaluate ----

def test_evaluate_reproduces_stored_metrics_byte_for_byte(ws, capsys):
    for method in ("or_soft", "ce"):
        fold = ws.results / method / "fold_1"
        assert run(["evaluate", "--data", str(fold / "records.csv")]) == 0
        out = capsys.readouterr().out
        assert out == (fold / "metrics.json").read_text()


def test_evaluate_out_flag_writes_the_report(ws, tmp_path):
    fold = ws.results / "ce" / "fold_2"
    target = tmp_path / "report.json"
    assert run(["evaluate", "--data", str(fold / "records.csv"), "--out", str(target)]) == 0
    assert target.read_bytes() == (fold / "metrics.json").read_bytes()


def test_evaluate_accepts_a_fold_directory(ws, capsys):
    fold = ws.results / "or_soft" / "fold_2"
    assert run(["evaluate", "--data", str(fold)]) == 0
    assert capsys.readouterr().out == (fold / "metrics.json").read_text()


def _records_with_columns(ws, tmp_path, order, rename=None):
    """fold_1's records.csv of ce with its columns in ``order``, header names renamed."""
    lines = (ws.results / "ce" / "fold_1" / "records.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines]
    header = rows[0]
    picks = [header.index(name) for name in order]
    rows = [[row[i] for i in picks] for row in rows]
    rows[0] = [(rename or {}).get(name, name) for name in rows[0]]
    path = tmp_path / "records.csv"
    path.write_text("".join(",".join(row) + "\n" for row in rows))
    return path


_REORDERED = ["pred_3", "soft_2", "weight", "pred_hard", "soft_3", "id", "pred_1", "soft_1",
              "hard", "pred_2"]


def test_evaluate_places_each_class_column_by_its_number(ws, tmp_path, capsys):
    path = _records_with_columns(ws, tmp_path, _REORDERED)
    assert run(["evaluate", "--data", str(path)]) == 0
    assert capsys.readouterr().out == (ws.results / "ce" / "fold_1" / "metrics.json").read_text()


@pytest.mark.parametrize("rename,fault", [
    ({"soft_2": "soft_x"}, "has column 'soft_x'"),
    ({"pred_3": "pred_z"}, "has column 'pred_z'"),
    ({"soft_2": "soft_1"}, "repeats column 'soft_1'"),
    ({"soft_2": "soft_4"}, "has column 'soft_4'"),
], ids=["soft-x", "pred-z", "duplicate", "gap"])
def test_evaluate_rejects_a_class_column_out_of_its_numbers(ws, tmp_path, capsys, rename, fault):
    path = _records_with_columns(ws, tmp_path, _REORDERED, rename)
    assert run(["evaluate", "--data", str(path)]) == 1
    assert capsys.readouterr().err == (f"error: {path}: records header {fault}; the class columns"
                                       " are soft_1..soft_3 and pred_1..pred_3\n")


def test_evaluate_missing_file_exits_one(tmp_path, capsys):
    assert run(["evaluate", "--data", str(tmp_path / "gone.csv")]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("row,message", [
    ("b,2,2,0.6,0.5,0.6,0.5,0.5", "rating probabilities sum to 1.1, not 1"),
    ("b,1,1,0.5,0.5,0.5,0.5,0.6", "class probabilities sum to 1.1, not 1"),
], ids=["soft", "pred"])
def test_evaluate_names_a_bad_row_sum_as_a_plain_number(tmp_path, capsys, row, message):
    path = tmp_path / "records.csv"
    path.write_text("id,hard,pred_hard,weight,soft_1,soft_2,pred_1,pred_2\n"
                    f"a,1,1,0.5,0.5,0.5,0.5,0.5\n{row}\n")
    assert run(["evaluate", "--data", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path} line 3: {message}\n"


def test_evaluate_and_curves_take_the_experiments_bin_count(ws, tmp_path, capsys):
    results = tmp_path / "results"
    exp = write_json(tmp_path / "exp.json",
                     {**EXP, "data": str(ws.data), "out": str(results), "num_bins": 15})
    assert run(["cv", "--config", exp]) == 0
    for method in EXP["methods"]:
        for fold in (1, 2):
            fold_dir = results / method / f"fold_{fold}"
            target = tmp_path / f"{method}_{fold}.json"
            args = ["evaluate", "--data", str(fold_dir / "records.csv"), "--out", str(target)]
            assert run(args + ["--num-bins", "15"]) == 0
            assert target.read_bytes() == (fold_dir / "metrics.json").read_bytes()
    curves = tmp_path / "curves"
    assert run(["curves", "--data", str(fold_dir), "--out", str(curves), "--num-bins", "15"]) == 0
    assert len((curves / "calibration.csv").read_text().splitlines()) == 1 + 15


@pytest.mark.parametrize("command", ["evaluate", "curves"])
def test_a_bin_count_below_one_exits_one(ws, tmp_path, capsys, command):
    fold = ws.results / "ce" / "fold_1"
    args = [command, "--data", str(fold / "records.csv"), "--out", str(tmp_path / "x"),
            "--num-bins", "0"]
    assert run(args) == 1
    assert "num_bins" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["evaluate", "curves", "cv"])
def test_a_bin_count_over_the_bound_exits_one_before_any_work(ws, tmp_path, capsys, command):
    out = tmp_path / "x"
    if command == "cv":
        cfg = write_json(tmp_path / "exp.json", {**EXP, "data": str(ws.data), "out": str(out),
                                                 "num_bins": MAX_NUM_BINS + 1})
        args = ["cv", "--config", cfg]
    else:
        args = [command, "--data", str(ws.results / "ce" / "fold_1"), "--out", str(out),
                "--num-bins", str(MAX_NUM_BINS + 1)]
    assert run(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"num_bins must lie in 1..{MAX_NUM_BINS}" in err
    assert not out.exists()
    if command != "cv":  # the bound itself is accepted
        assert run(args[:-1] + [str(MAX_NUM_BINS)]) == 0


# ---- compare ----

def test_compare_prints_a_verdict_line_and_optional_json(ws, tmp_path, capsys):
    report = tmp_path / "cmp.json"
    rc = run(["compare", str(ws.results / "or_soft"), str(ws.results / "ce"),
              "--metric", "mae_uw", "--direction", "lower", "--out", str(report)])
    assert rc == 0
    out = capsys.readouterr().out
    assert re.search(
        r"or_soft vs ce on mae_uw \(lower\): p = [0-9.eE+-]+ "
        r"\((not )?significant at alpha = 0\.05\)", out
    )
    doc = json.loads(report.read_text())
    assert doc["method_a"] == "or_soft" and doc["method_b"] == "ce"
    assert 0.0 <= doc["p_value"] <= 1.0
    assert doc["folds"] == [1, 2]
    assert doc["significant"] == (doc["p_value"] < 0.05)


def test_compare_rejects_mismatched_result_dirs(ws, tmp_path, capsys):
    lonely = tmp_path / "lonely"
    (lonely / "fold_1").mkdir(parents=True)
    src = ws.results / "ce" / "fold_1" / "metrics.json"
    (lonely / "fold_1" / "metrics.json").write_bytes(src.read_bytes())
    assert run(["compare", str(ws.results / "or_soft"), str(lonely),
                "--metric", "mae_uw", "--direction", "lower"]) == 1
    assert "folds" in capsys.readouterr().err


def test_compare_skips_a_fold_directory_not_numbered(ws, tmp_path, capsys):
    flags = ["--metric", "mae_uw", "--direction", "lower"]
    assert run(["compare", str(ws.results / "or_soft"), str(ws.results / "ce"), *flags]) == 0
    want = capsys.readouterr().out
    extra = tmp_path / "ce"
    shutil.copytree(ws.results / "ce", extra)
    (extra / "fold_x").mkdir()
    (extra / "fold_x" / "metrics.json").write_text("not JSON")  # read, it would fail compare
    assert run(["compare", str(ws.results / "or_soft"), str(extra), *flags]) == 0
    assert capsys.readouterr().out == want


def test_every_json_output_is_canonical_text(ws, tmp_path):
    fold = ws.results / "ce" / "fold_1"
    report, cmp, ckpt = tmp_path / "report.json", tmp_path / "cmp.json", tmp_path / "ckpt"
    assert run(["evaluate", "--data", str(fold), "--out", str(report)]) == 0
    assert run(["compare", str(ws.results / "or_soft"), str(ws.results / "ce"),
                "--metric", "mae_uw", "--direction", "lower", "--out", str(cmp)]) == 0
    cfg = write_json(tmp_path / "train.json", {**EXP, "methods": ["ce"], "epochs": 1,
                                               "data": str(ws.data), "out": str(ckpt)})
    assert run(["train", "--config", cfg]) == 0
    paths = [ws.results / "summary.json", fold / "metrics.json", report, cmp,
             ckpt / "ce" / "seed_0_params.json"]
    for path in paths:
        text = path.read_text()
        assert text == canonical_json(json.loads(text)), path


# ---- curves ----

def test_curves_accepts_a_fold_directory_or_a_records_file(ws, tmp_path):
    fold = ws.results / "or_soft" / "fold_1"
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(["curves", "--data", str(fold), "--out", str(out_a)]) == 0
    assert run(["curves", "--data", str(fold / "records.csv"), "--out", str(out_b)]) == 0
    names = ["calibration.csv", "risk_coverage.csv", "aurc.txt",
             "confusion.csv", "confusion_row_normalized.csv"]
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    calib = (out_a / "calibration.csv").read_text().splitlines()
    assert len(calib) == 11  # header + ten bins
    assert calib[0] == "bin_low,bin_high,mean_confidence,mean_true_accuracy,count"
    float((out_a / "aurc.txt").read_text())
    n_records = len((fold / "records.csv").read_text().splitlines()) - 1
    rc_lines = (out_a / "risk_coverage.csv").read_text().splitlines()
    assert len(rc_lines) == n_records + 1


# ---- exit codes, logging, version ----

def test_parse_errors_exit_one_not_two(capsys):
    assert run(["--bogus-flag"]) == 1
    assert run([]) == 1
    assert run(["cv", "--folds", "abc"]) == 1
    capsys.readouterr()


def test_internal_failures_exit_two(tmp_path, monkeypatch, capsys):
    import ordreg.cli as cli_mod

    def boom(cfg):
        raise RuntimeError("synthetic crash")

    monkeypatch.setattr(cli_mod, "generate_synthetic", boom)
    synth = write_json(tmp_path / "synth.json", SYNTH)
    rc = run(["generate", "--config", synth, "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "failure: synthetic crash" in capsys.readouterr().err


CLI = [sys.executable, "-c", "from ordreg.cli import main; main()"]


def test_version_flag_reports_the_package_version():
    proc = subprocess.run(CLI + ["--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert re.fullmatch(r"ordreg \d+\.\d+\.\d+\n", proc.stdout)


def test_importing_the_cli_loads_no_forking_machinery():
    # cv --jobs imports ordreg.workers when it forks; every other command skips the import
    code = ("import sys, ordreg.cli; print(sorted(set(sys.modules) & {'ordreg.workers',"
            " 'multiprocessing', 'concurrent.futures'}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_log_env_var_enables_info_logging(tmp_path):
    synth = write_json(tmp_path / "synth.json", SYNTH)
    out = str(tmp_path / "x.csv")
    # both children inherit the caller's environment (PYTHONPATH included, so a
    # source checkout works) and differ only in ORDREG_LOG
    quiet_env = {k: v for k, v in os.environ.items() if k != "ORDREG_LOG"}
    quiet = subprocess.run(CLI + ["generate", "--config", synth, "--out", out],
                           capture_output=True, text=True, env=quiet_env)
    chatty = subprocess.run(CLI + ["generate", "--config", synth, "--out", out],
                            capture_output=True, text=True,
                            env={**quiet_env, "ORDREG_LOG": "info"})
    assert quiet.returncode == 0 and chatty.returncode == 0
    assert "wrote 60 examples" not in quiet.stderr
    assert "wrote 60 examples" in chatty.stderr
