"""tools/identity.py: the byte-identity check of the CLI between two source trees."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = [sys.executable, str(ROOT / "tools" / "identity.py")]
sys.path.insert(0, str(ROOT / "tools"))
import identity  # noqa: E402


def _identity(parent, change):
    return subprocess.run(TOOL + ["--parent", str(parent), "--change", str(change)],
                          capture_output=True, text=True)


def test_the_checkout_matches_itself_byte_for_byte():
    proc = _identity(ROOT, ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1 and lines[0].startswith("0 of ") and lines[0].endswith(" items differ")


def test_a_planted_message_edit_is_caught_and_named(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "ordreg" / "cli.py"
    text = cli.read_text()
    assert text.count('"--seed: must be at least 0, got ') == 1
    cli.write_text(text.replace('"--seed: must be at least 0, got ',
                                '"--seed: must not be negative, got '))
    proc = _identity(ROOT, tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    count, first, parent, change = proc.stdout.splitlines()
    assert count.startswith("1 of ")
    assert first == "first: fail-negative-seed: stderr"
    assert parent == "  parent line 1: error: --seed: must be at least 0, got -1"
    assert change == "  change line 1: error: --seed: must not be negative, got -1"


def test_the_timing_summary_of_synthetic_round_times():
    parent = [1.0, 2.0, 3.0, 4.0]
    change = [0.5, 2.2, 2.7, 4.0]  # ratios 0.5, 1.1, 0.9 and 1.0; a tie is no win
    stats = identity.timing_summary(parent, change)
    assert stats["parent"] == (2.5, 1.75, 3.25)  # median, Q1, Q3 (inclusive quartiles)
    assert stats["change"] == pytest.approx((2.45, 1.775, 3.025))
    assert stats["ratio"] == pytest.approx((0.95, 0.5, 1.1))
    assert (stats["wins"], stats["pairs"]) == (2, 4)


def test_the_timing_summary_needs_one_change_round_per_parent_round():
    with pytest.raises(ValueError):
        identity.timing_summary([1.0, 2.0, 3.0], [1.0, 2.0])


def test_a_round_digest_masks_only_the_meta_block_and_the_dataset_source(tmp_path):
    def tree(name, source="a/data.csv", meta="t0", records="id\n1\n"):
        out = tmp_path / name
        (out / "ce").mkdir(parents=True)
        (out / "ce" / "records.csv").write_text(records)
        (out / "summary.json").write_text(json.dumps(
            {"meta": {"time": meta}, "dataset": {"source": source, "num_examples": 3}}))
        return identity.round_digest(out)

    same = tree("base")
    assert tree("other-source-and-meta", source="b/data.csv", meta="t1") == same
    assert tree("other-records", records="id\n2\n") != same
