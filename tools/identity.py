"""Byte-identity check of the ordreg CLI between two source trees.

    python tools/identity.py --parent DIR --change DIR

Each DIR is a checkout, or an unpacked ``git archive`` of one; only its
``src`` directory is used. In a fresh temporary directory per tree, the
script runs one fixed list of ``ordreg`` commands as subprocesses, with
``PYTHONPATH`` at that tree's ``src`` and ``ORDREG_LOG`` unset (but for the
one command below that logs at INFO), each in the tree's directory with
relative paths, so that messages naming a file read the same on both sides:

- ``generate`` with and without ``--seed``; the per-rater set (some cells
  blank), the count set and a per-rater set with one row of 1e10 features
  are rewritten from the seeded output here;
- ``cv`` of all nine methods on the per-rater set, at ``--jobs 1`` and ``2``
  under both tie policies, and ``cv`` of ``or_soft`` and ``ce`` on the
  count set;
- ``cv`` of three methods with ``tanh`` layers ``[8, 4]`` at batch size 9;
  ``cv`` at ``lr`` 1e150 on the 1e10 row, whose models diverge; and ``cv`` of
  ``or_soft`` on the count set at ``ORDREG_LOG=info``, with the seconds and
  epochs/s of its progress lines masked;
- ``train``; ``evaluate`` and ``curves`` on one fold's ``records.csv``, with
  the default bins and with ``--num-bins 15``, and on two copies of it that
  the csv reader reads: one with CRLF line ends, one with each id quoted;
  ``compare`` of two methods;
- six failures: a malformed config, ``--seed -1``, ``cv`` of four
  single-vote rows over two folds, whose split warns and then fails, ``cv``
  of a data CSV with a malformed line 3, and ``evaluate`` of two copies of
  the fold's ``records.csv``: one with a class index out of range on line 2,
  one whose header lacks the ``pred_hard`` column.

It compares, item by item, every command's exit code, stdout and stderr,
and every file the commands write (``summary.json`` without its ``meta``
block, which holds the time and the argv). A command that runs more than one
process has its stderr compared as sorted lines, since the lines of
different methods may interleave. It prints the number of differing items
and the first one, and exits 1 if any differ, else 0.

    python tools/identity.py --parent DIR --change DIR --timing WORKLOAD [--rounds N] [--seed S]

times one benchmark workload (``cv-paper``, ``cv-all-methods`` or
``evaluate-records``) in both trees instead. One long-lived worker process per
tree imports that tree's own ``perfbench/run.py``, with the tree's ``src``
first on ``sys.path``, and writes the workload's inputs once from ``--seed``
(default 1). After 3 warm-up rounds a side, N single in-process rounds
(default 10) alternate between the trees, and the side that goes first
alternates too. It prints each side's median and quartiles of the unscaled
wall seconds of a round, the median change/parent ratio of the paired rounds
with its range, the number of rounds the change won, and whether every
round's output digest matched across the trees. The digest covers every
output file, ``summary.json`` without ``meta`` and with its ``dataset.source``
masked, since each worker reads its own input path. It exits 1 on any digest
difference, else 0; it puts no bound on the times.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Optional, Sequence

METHODS = ("ce", "ce_soft", "or_cnn", "or_soft", "coral", "coral_soft", "corn", "sord_ae",
           "sord_se")
SYNTH = {
    "n_examples": 36,
    "n_features": 3,
    "num_classes": 4,
    "n_raters": 5,
    "thresholds": [-0.7, 0.0, 0.7],
    "feature_noise_sd": 0.3,
    "rater_noise_sd": 0.5,
    "seed": 2,
}
EXPERIMENT = {
    "folds": 3,
    "seeds": [0],
    "epochs": 2,
    "batch_size": 8,
    "lr": 0.01,
    "hidden_dims": [8],
}
# four single-vote rows, one per class: two folds leave fold 1 nothing to validate on
FOUR_ROWS = "id,f_1,r_1\ne1,0.1,1\ne2,0.2,2\ne3,0.3,3\ne4,0.4,4\n"
BAD_LINE_3 = "id,f_1,r_1\ne1,0.1,1\ne2,0.2x,2\ne3,0.3,3\n"
# the timing fields of a progress line, which differ between runs
TIMING = re.compile(rb"\d+\.\d+ s, (?:\d+\.\d+|inf) epochs/s")


def _write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc))
    return path.name


def _rater_and_count_sets(folder: Path, source: str) -> None:
    """``raters.csv``: the votes of ``source`` with a rater's cell blank wherever
    ``(row + rater) % 3 == 0`` (each row keeps at least three of five votes);
    ``counts.csv``: the same features with each row's per-class vote counts;
    ``huge.csv``: ``raters.csv`` with every feature of its first row 1e10. Without
    ``source`` (a tree whose ``generate`` failed) it writes none, and the commands
    that read them fail on that side."""
    if not (folder / source).exists():
        return
    header, *rows = (folder / source).read_text().splitlines()
    names = header.split(",")
    first_vote = next(i for i, name in enumerate(names) if name.startswith("r_"))
    k = SYNTH["num_classes"]
    raters, counts = [header], [",".join(names[:first_vote] + [f"c_{c}" for c in range(1, k + 1)])]
    for i, line in enumerate(rows):
        fields = line.split(",")
        votes = fields[first_vote:]
        kept = ["" if (i + j) % 3 == 0 else v for j, v in enumerate(votes)]
        raters.append(",".join(fields[:first_vote] + kept))
        counts.append(",".join(fields[:first_vote] + [str(votes.count(str(c)))
                                                      for c in range(1, k + 1)]))
    (folder / "raters.csv").write_text("\n".join(raters) + "\n")
    (folder / "counts.csv").write_text("\n".join(counts) + "\n")
    fields = raters[1].split(",")
    raters[1] = ",".join(fields[:1] + ["1e10"] * (first_vote - 1) + fields[first_vote:])
    (folder / "huge.csv").write_text("\n".join(raters) + "\n")


def _records_copies(folder: Path, source: str) -> None:
    """Copies of the records file ``source``: ``records-crlf.csv`` with CRLF line ends,
    ``records-quoted.csv`` with each id quoted, ``records-bad.csv`` with the hard
    label of line 2 set to 9, and ``records-no-pred-hard.csv`` without the ``pred_hard``
    column. Without ``source`` it writes none."""
    if not (folder / source).exists():
        return
    header, *rows = (folder / source).read_text().splitlines()
    (folder / "records-crlf.csv").write_text("\n".join([header, *rows]) + "\n", newline="\r\n")
    quoted = [f'"{example_id}",{rest}' for example_id, rest in (row.split(",", 1) for row in rows)]
    (folder / "records-quoted.csv").write_text("\n".join([header, *quoted]) + "\n")
    drop = header.split(",").index("pred_hard")
    lines = [",".join(f for i, f in enumerate(line.split(",")) if i != drop)
             for line in [header, *rows]]
    (folder / "records-no-pred-hard.csv").write_text("\n".join(lines) + "\n")
    fields = rows[0].split(",")
    rows[0] = ",".join(fields[:1] + ["9"] + fields[2:])
    (folder / "records-bad.csv").write_text("\n".join([header, *rows]) + "\n")


def _commands(folder: Path):
    """(name, argv, processes) of each command in order; writes each command's inputs
    into ``folder`` just before the command is yielded. A command whose name starts
    with ``info-`` runs at ``ORDREG_LOG=info``."""
    synth = _write_json(folder / "synth.json", SYNTH)
    yield "generate", ["generate", "--config", synth, "--out", "generated.csv"], 1
    yield "generate-seed", ["generate", "--config", synth, "--out", "seeded.csv",
                            "--seed", "7"], 1
    _rater_and_count_sets(folder, "seeded.csv")
    raters = _write_json(folder / "raters.json", {**EXPERIMENT, "data": "raters.csv",
                                                  "methods": list(METHODS)})
    for ties in ("paper", "lowest"):
        for jobs in (1, 2):
            yield (f"cv-{ties}-jobs{jobs}",
                   ["cv", "--config", raters, "--ties", ties, "--jobs", str(jobs),
                    "--out", f"cv-{ties}-jobs{jobs}"], jobs)
    counts = _write_json(folder / "counts.json", {**EXPERIMENT, "data": "counts.csv",
                                                  "methods": ["or_soft", "ce"]})
    yield "cv-counts", ["cv", "--config", counts, "--out", "cv-counts"], 1
    yield "info-cv-counts", ["cv", "--config", counts, "--methods", "or_soft",
                             "--out", "info-cv-counts"], 1
    tanh = _write_json(folder / "tanh.json", {
        **EXPERIMENT, "data": "raters.csv", "methods": ["ce_soft", "coral", "corn"],
        "hidden_dims": [8, 4], "activation": "tanh", "batch_size": 9})
    yield "cv-tanh", ["cv", "--config", tanh, "--out", "cv-tanh"], 1
    diverge = _write_json(folder / "diverge.json", {**EXPERIMENT, "data": "huge.csv",
                                                    "methods": ["or_soft", "ce"], "lr": 1e150})
    yield "cv-diverge", ["cv", "--config", diverge, "--out", "cv-diverge"], 1
    yield "train", ["train", "--config", raters, "--methods", "or_soft", "--out", "train"], 1
    fold = "cv-paper-jobs1/or_soft/fold_1"
    for bins in ("10", "15"):
        yield (f"evaluate-bins{bins}",
               ["evaluate", "--data", f"{fold}/records.csv", "--num-bins", bins], 1)
        yield (f"curves-bins{bins}",
               ["curves", "--data", fold, "--num-bins", bins, "--out", f"curves-bins{bins}"], 1)
    _records_copies(folder, f"{fold}/records.csv")
    for copy in ("crlf", "quoted"):
        yield f"evaluate-{copy}", ["evaluate", "--data", f"records-{copy}.csv"], 1
        yield (f"curves-{copy}",
               ["curves", "--data", f"records-{copy}.csv", "--out", f"curves-{copy}"], 1)
    yield ("compare", ["compare", "cv-paper-jobs1/or_soft", "cv-paper-jobs1/ce",
                       "--metric", "mae_uw", "--direction", "lower", "--out", "compare.json"], 1)
    (folder / "malformed.json").write_text('{"folds": 2,')
    yield "fail-malformed-config", ["cv", "--config", "malformed.json", "--out", "bad"], 1
    yield "fail-negative-seed", ["cv", "--config", raters, "--seed", "-1", "--out", "bad"], 1
    (folder / "four.csv").write_text(FOUR_ROWS)
    yield "fail-empty-validation", ["cv", "--data", "four.csv", "--methods", "ce",
                                    "--folds", "2", "--out", "bad"], 1
    (folder / "bad-line3.csv").write_text(BAD_LINE_3)
    yield "fail-bad-data-line", ["cv", "--data", "bad-line3.csv", "--methods", "ce",
                                 "--out", "bad"], 1
    yield "fail-bad-records-row", ["evaluate", "--data", "records-bad.csv"], 1
    yield "fail-records-header", ["evaluate", "--data", "records-no-pred-hard.csv"], 1


def _file_item(path: Path, source: Optional[str] = None) -> bytes:
    """A file's bytes; a ``summary.json`` as its JSON without ``meta`` and, given
    ``source``, with the source of its dataset block read as ``source``."""
    if path.name != "summary.json":
        return path.read_bytes()
    doc = json.loads(path.read_text())
    doc.pop("meta", None)
    if source is not None and "source" in doc.get("dataset", {}):
        doc["dataset"]["source"] = source
    return json.dumps(doc, sort_keys=True, indent=1).encode()


def outputs(tree: Path, folder: Path) -> dict[str, bytes]:
    """Every item of the command list run against ``tree/src`` in ``folder``, in the
    order they arise: a command's exit code, stdout and stderr, then the files it wrote."""
    env = {name: value for name, value in os.environ.items() if name != "ORDREG_LOG"}
    env["PYTHONPATH"] = str(Path(tree).resolve() / "src")
    items: dict[str, bytes] = {}
    seen: set[Path] = set()
    for name, argv, processes in _commands(folder):
        seen |= set(folder.rglob("*"))  # the command's inputs are not its outputs
        info = name.startswith("info-")
        proc = subprocess.run([sys.executable, "-m", "ordreg.cli", *argv], cwd=folder,
                              env={**env, "ORDREG_LOG": "info"} if info else env,
                              capture_output=True)
        stderr = TIMING.sub(b"<s> s, <r> epochs/s", proc.stderr) if info else proc.stderr
        if processes > 1:
            stderr = b"".join(sorted(stderr.splitlines(keepends=True)))
        items[f"{name}: exit code"] = str(proc.returncode).encode()
        items[f"{name}: stdout"] = proc.stdout
        items[f"{name}: stderr"] = stderr
        for path in sorted(set(folder.rglob("*")) - seen):
            if path.is_file():
                items[f"{name}: {path.relative_to(folder)}"] = _file_item(path)
    return items


def differences(parent: dict[str, bytes], change: dict[str, bytes]) -> list[str]:
    """The names of the items that differ or that only one side has, in order."""
    names = list(parent) + [name for name in change if name not in parent]
    return [name for name in names if parent.get(name) != change.get(name)]


def _first_lines(a: bytes | None, b: bytes | None) -> tuple[str, str]:
    """The first line where ``a`` and ``b`` differ, from each side."""
    if a is None or b is None:
        return ("(missing)" if a is None else "(present)", "(missing)" if b is None else "(present)")
    lines_a, lines_b = a.splitlines(), b.splitlines()
    for i in range(max(len(lines_a), len(lines_b))):
        left = lines_a[i] if i < len(lines_a) else b"(no line)"
        right = lines_b[i] if i < len(lines_b) else b"(no line)"
        if left != right:
            return (f"line {i + 1}: {left[:200].decode(errors='replace')}",
                    f"line {i + 1}: {right[:200].decode(errors='replace')}")
    return "(line ends differ)", "(line ends differ)"


# ===== --timing: one benchmark workload, round by round, in both trees =====

WARM_UP_ROUNDS = 3

# a timing worker's program: ``python -c _WORKER TOOLS TREE WORKLOAD SEED FOLDER``
_WORKER = ("import sys; sys.path.insert(0, sys.argv[1]); import identity;"
           " identity.serve(*sys.argv[2:])")


def round_digest(out: Path) -> str:
    """Hash of every file under ``out``, each by its relative path and :func:`_file_item`
    with the dataset source masked."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = _file_item(path, source="<input>")
        h.update(str(path.relative_to(out)).encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest()


def serve(tree: str, workload: str, seed: str, folder: str) -> None:
    """Run as a timing worker: load ``tree``'s ``perfbench/run.py`` with ``tree/src`` first
    on ``sys.path``, write the workload's inputs into ``folder`` from ``seed``, then run one
    round per line read on stdin, answering each with "<seconds> <failed> <digest>"."""
    root = Path(tree).resolve()
    spec = importlib.util.spec_from_file_location("perfbench_run", root / "perfbench" / "run.py")
    bench = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for @dataclass
    spec.loader.exec_module(bench)  # puts perfbench/ on sys.path for its own modules
    sys.path.insert(0, str(root / "src"))
    from ordreg.cli import run as cli_run

    job, work = bench.WORKLOADS[workload], Path(folder)
    state = job.prepare(int(seed), work)
    for index, _ in enumerate(sys.stdin):
        out = work / f"round_{index}"
        with contextlib.redirect_stdout(io.StringIO()):  # stdout carries the answers
            start = time.perf_counter()
            failed = job.run_round(cli_run, state, out, job.jobs)
            seconds = time.perf_counter() - start
        print(seconds, failed, round_digest(out), flush=True)
        shutil.rmtree(out)


def _worker(tree: Path, workload: str, seed: int, folder: Path) -> subprocess.Popen:
    env = {name: value for name, value in os.environ.items() if name != "ORDREG_LOG"}
    env["PYTHONPATH"] = str(tree.resolve() / "src")
    argv = [sys.executable, "-c", _WORKER, str(Path(__file__).resolve().parent),
            str(tree.resolve()), workload, str(seed), str(folder)]
    return subprocess.Popen(argv, cwd=folder, env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)


def _one_round(worker: subprocess.Popen) -> tuple[float, int, str]:
    worker.stdin.write("round\n")
    worker.stdin.flush()
    answer = worker.stdout.readline().split()
    if len(answer) != 3:
        raise RuntimeError(f"a timing worker stopped (exit code {worker.wait(timeout=60)})")
    return float(answer[0]), int(answer[1]), answer[2]


def _quartiles(times: Sequence[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return median, q1, q3


def timing_summary(parent: Sequence[float], change: Sequence[float]) -> dict:
    """Each side's (median, Q1, Q3) of its round times, and over the pairs of rounds
    (round i of each side) the median, least and greatest change/parent ratio and the
    number of pairs in which the change took less time."""
    ratios = [c / p for p, c in zip(parent, change, strict=True)]
    return {
        "parent": _quartiles(parent),
        "change": _quartiles(change),
        "ratio": (statistics.median(ratios), min(ratios), max(ratios)),
        "wins": sum(c < p for p, c in zip(parent, change)),
        "pairs": len(ratios),
    }


def timing(parent: Path, change: Path, workload: str, rounds: int, seed: int) -> int:
    """Time ``workload`` in both trees (see the module docstring); 1 if any digest differs."""
    times: tuple[list, list] = ([], [])
    failed, matched = [0, 0], 0
    with tempfile.TemporaryDirectory(prefix="ordreg-timing-") as scratch, \
            contextlib.ExitStack() as stack:
        workers = []
        for tree, side in ((parent, "parent"), (change, "change")):
            (Path(scratch) / side).mkdir()
            # leaving the stack closes the worker's stdin, which ends it, and waits for it
            workers.append(stack.enter_context(_worker(tree, workload, seed, Path(scratch) / side)))
        for index in range(WARM_UP_ROUNDS + rounds):
            sides = (0, 1) if index % 2 == 0 else (1, 0)  # who goes first alternates
            results = {side: _one_round(workers[side]) for side in sides}
            matched += results[0][2] == results[1][2]
            for side in (0, 1):
                failed[side] += results[side][1]
                if index >= WARM_UP_ROUNDS:
                    times[side].append(results[side][0])
    stats = timing_summary(*times)
    total = WARM_UP_ROUNDS + rounds
    print(f"{workload}: {rounds} timed rounds a side after {WARM_UP_ROUNDS} warm-up rounds,"
          f" seed {seed}; unscaled wall seconds of one in-process round")
    for side in ("parent", "change"):
        median, q1, q3 = stats[side]
        print(f"{side}: median {median:.4f} s [Q1 {q1:.4f}, Q3 {q3:.4f}]")
    ratio, low, high = stats["ratio"]
    print(f"change/parent: median {ratio:.3f} ({low:.3f}-{high:.3f});"
          f" change faster in {stats['wins']} of {stats['pairs']} rounds")
    print(f"failed operations: parent {failed[0]}, change {failed[1]}")
    print(f"output digests match in {matched} of {total} rounds")
    return 0 if matched == total else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="the tree to compare against")
    parser.add_argument("--change", required=True, type=Path, help="the tree under test")
    parser.add_argument("--timing", metavar="WORKLOAD",
                        help="time this benchmark workload instead of the command list")
    parser.add_argument("--rounds", type=int, default=10, help="timed rounds a side (>= 2)")
    parser.add_argument("--seed", type=int, default=1, help="the seed of the workload's inputs")
    args = parser.parse_args(argv)
    if args.timing is not None:
        if args.rounds < 2:
            parser.error("--rounds must be at least 2")
        return timing(args.parent, args.change, args.timing, args.rounds, args.seed)
    with tempfile.TemporaryDirectory(prefix="ordreg-identity-") as scratch:
        folders = [Path(scratch) / side for side in ("parent", "change")]
        for folder in folders:
            folder.mkdir()
        with ThreadPoolExecutor(2) as pool:  # the two trees' command lists side by side
            parent, change = pool.map(outputs, (args.parent, args.change), folders)
    differing = differences(parent, change)
    total = len(set(parent) | set(change))
    print(f"{len(differing)} of {total} items differ")
    if differing:
        left, right = _first_lines(parent.get(differing[0]), change.get(differing[0]))
        print(f"first: {differing[0]}\n  parent {left}\n  change {right}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
