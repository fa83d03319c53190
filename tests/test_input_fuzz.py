"""Fuzzing the input boundaries: the data CSV reader and the config loaders.

Whatever the bytes, ``load_csv``, the experiment-config loader and
``generate --config`` either accept the input or raise InputError (exit 1);
no other exception may escape. Generated count and vote cells stay at or
below 20, so that most cells pass the caps of ``load_csv`` and the fuzzing
reaches the path that builds a Dataset, not only the range checks.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordreg.cli import _load_config, _train_configs, run
from ordreg.core import InputError, ProblemSpec
from ordreg.data import load_csv

@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    """One directory for every generated file; each example overwrites its file."""
    return tmp_path_factory.mktemp("fuzz")


_NAMES = ("id", "f_1", "f_2", "r_1", "r_2", "r_3", "c_1", "c_2", "c_3", "c_4", "c_0", "c_x",
          "x_1", " f_3 ", "")

# free text without digits, so no field parses as a large count or vote
_TEXT = st.text(alphabet='abcé xyz_-+.eE"\',;\t\r\n\u00a0\u2028', max_size=6)

_FIELDS = st.one_of(
    st.integers(-3, 20).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", " ", "nan", "inf", "1.5", "2.0", "1e400", '"', "a,b"]),
    _TEXT,
)


@st.composite
def _csv_bytes(draw) -> bytes:
    header = draw(st.lists(st.sampled_from(_NAMES), min_size=1, max_size=6))
    width = st.integers(len(header) - 1, len(header) + 1) if draw(st.booleans()) else st.just(
        len(header))
    rows = draw(st.lists(width.flatmap(lambda n: st.lists(_FIELDS, min_size=n, max_size=n)),
                         max_size=6))
    text = "\n".join(",".join(row) for row in [header, *rows]) + draw(st.sampled_from(["", "\n"]))
    data = text.encode("utf-8")
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xe9", b"\x00", b"\r"])) + data[at:]
    return data


@settings(max_examples=150, deadline=None)
@given(_csv_bytes(), st.one_of(st.none(), st.integers(2, 5)))
def test_load_csv_accepts_or_raises_input_error(scratch, data, k):
    path = scratch / "data.csv"
    path.write_bytes(data)
    try:
        dataset = load_csv(path, None if k is None else ProblemSpec(k))
    except InputError:
        return
    assert dataset.spec.num_classes >= 2
    assert len(dataset) == dataset.features.shape[0]


_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 20), st.floats(), _TEXT,
              st.sampled_from(["ce", "or_soft", "paper", "lowest", "count", "relu", "tanh"])),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=6,
)


_DROP = object()


def _mutated_json(base: dict):
    """``base`` as JSON text with fields replaced, dropped or added; sometimes
    wrapped in a list, sometimes cut short."""
    keys = st.sampled_from([*base, "bogus"])
    edits = st.lists(st.tuples(keys, st.one_of(st.just(_DROP), _JSON_VALUES)), max_size=3)

    def apply(pairs):
        doc = dict(base)
        for key, value in pairs:
            if value is _DROP:
                doc.pop(key, None)
            else:
                doc[key] = value
        return doc

    documents = edits.map(apply)
    texts = st.one_of(documents, documents.map(lambda doc: [doc]), _JSON_VALUES).map(json.dumps)
    return st.one_of(texts, texts.flatmap(lambda t: st.integers(0, len(t)).map(lambda n: t[:n])))


_EXPERIMENT = {"methods": ["ce", "or_soft"], "folds": 2, "split_seed": 0, "seeds": [0, 1],
               "epochs": 2, "batch_size": 8, "lr": 0.01, "hidden_dims": [4],
               "activation": "relu", "val_fraction": 0.8, "decode": None, "ties": "paper",
               "num_bins": 10, "num_classes": None, "data": "data.csv", "out": "results"}


@settings(max_examples=100, deadline=None)
@given(_mutated_json(_EXPERIMENT))
def test_experiment_config_loads_or_raises_input_error(scratch, text):
    """The checks ``cv`` and ``train`` run on a config before they read any data."""
    path = scratch / "exp.json"
    path.write_text(text)
    try:
        _train_configs(_load_config(str(path)))
    except InputError:
        pass


_SYNTHETIC = {"n_examples": 12, "n_features": 2, "num_classes": 3, "n_raters": 3,
              "thresholds": [-0.5, 0.5], "feature_noise_sd": 0.1, "rater_noise_sd": 0.5,
              "seed": 1}


@settings(max_examples=60, deadline=None)
@given(_mutated_json(_SYNTHETIC))
def test_generate_config_exits_zero_or_one(scratch, text):
    path = scratch / "synth.json"
    path.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = run(["generate", "--config", str(path), "--out", str(scratch / "x.csv")])
    assert rc in (0, 1), err.getvalue()
    assert (rc == 1) == err.getvalue().startswith("error: ")
