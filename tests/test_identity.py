"""tools/identity.py: the byte-identity check of the CLI between two source trees."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = [sys.executable, str(ROOT / "tools" / "identity.py")]


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
