"""The ordreg benchmark: three workloads driven through ``ordreg.cli.run``.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload cv-paper --seed 1 --seconds 25 --trace 0

One run writes its inputs from ``--seed``, then repeats the workload's timed
operation in whole rounds until ``--seconds`` have passed, checks the first
round's outputs against independent computations (and every later round's
against the first, byte for byte), and prints one JSON object as its last
stdout line. ``--trace 0`` gives the end-to-end metrics (medians over the
rounds, scaled to a reference speed of the host, see ``_scaled``); ``--trace 1``
alternates untraced and traced rounds and gives the per-layer metrics, see
``spans.py``. Scratch files go under ``.perfbench/`` in the checkout; the span
file of a traced run stays there.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
from spans import PER_LAYER, Tracer  # noqa: E402

# fresh processes timed for set-up, spread evenly over the run between rounds
SETUP_LAUNCHES = 11

# the host's speed is sampled before and after every timed round and launch, by timing
# REFERENCE_PIECES runs of a fixed loop; REFERENCE_S is one run's time at the reference speed
REFERENCE_PIECES = 16
REFERENCE_S = 0.004
_REFERENCE_X = np.linspace(0.0, 1.0, 32)

ALL_METHODS = ("ce", "ce_soft", "or_cnn", "or_soft", "coral", "coral_soft", "corn",
               "sord_ae", "sord_se")


@dataclass(frozen=True)
class CvWorkload:
    """``ordreg cv`` on a latent-threshold vote table the benchmark writes."""

    name: str
    methods: tuple[str, ...]
    n: int
    thresholds: tuple[float, ...]
    raters: int
    rater_noise_sd: float
    missing_rate: float
    layout: str  # "counts" (c_1..c_K) or "raters" (r_1..r_R with blanks)
    folds: int
    seeds: tuple[int, ...]
    epochs: int
    batch_size: int
    val_fraction: float
    jobs: int

    def prepare(self, seed: int, work: Path) -> dict:
        table = inputs.vote_table(seed, self.n, self.thresholds, self.raters,
                                  self.rater_noise_sd, self.missing_rate)
        data = work / "data.csv"
        if self.layout == "counts":
            inputs.write_counts_csv(table, data)
        else:
            inputs.write_raters_csv(table, data)
        config = {
            "data": str(data), "methods": list(self.methods), "folds": self.folds,
            "split_seed": seed, "seeds": list(self.seeds), "epochs": self.epochs,
            "batch_size": self.batch_size, "lr": 0.01, "hidden_dims": [16],
            "val_fraction": self.val_fraction, "ties": "paper", "num_bins": checks.NUM_BINS,
            "num_classes": table.num_classes,
        }
        (work / "config.json").write_text(json.dumps(config))
        return {"config": work / "config.json", "table": table}

    def operations(self) -> int:
        return len(self.methods) * self.folds

    def run_round(self, cli_run, state: dict, out: Path, jobs: int) -> int:
        """One ``ordreg cv``; returns the (method, fold) pairs that did not finish ok."""
        cli_run(["cv", "--config", str(state["config"]), "--out", str(out), "--jobs", str(jobs)])
        try:
            summary = json.loads((out / "summary.json").read_text())
        except (OSError, ValueError):
            return self.operations()
        ok = sum(1 for m in self.methods for f in summary["methods"].get(m, {}).get("folds", ())
                 if f["status"] == "ok")
        return self.operations() - ok

    def check(self, state: dict, out: Path) -> None:
        table = state["table"]
        checks.check_cv(out, table.ids, table.counts, self.methods, self.folds)


@dataclass(frozen=True)
class RecordsWorkload:
    """``ordreg evaluate`` then ``ordreg curves`` on one large records.csv."""

    name: str
    n: int
    thresholds: tuple[float, ...]
    raters: int
    jobs: int = 1

    def prepare(self, seed: int, work: Path) -> dict:
        records = inputs.record_table(seed, self.n, self.thresholds, self.raters)
        path = work / "records.csv"
        inputs.write_records_csv(records, path)
        return {"path": path, "records": records}

    def operations(self) -> int:
        return 2

    def run_round(self, cli_run, state: dict, out: Path, jobs: int) -> int:
        codes = [
            cli_run(["evaluate", "--data", str(state["path"]), "--out", str(out / "report.json")]),
            cli_run(["curves", "--data", str(state["path"]), "--out", str(out / "curves")]),
        ]
        return sum(1 for c in codes if c != 0)

    def check(self, state: dict, out: Path) -> None:
        r = state["records"]
        checks.check_evaluate(out / "report.json", out / "curves", r.soft, r.pred, r.pred_hard)


WORKLOADS = {
    w.name: w
    for w in (
        # the paper's soft-vs-hard comparison; raters disagree at mean pairwise kappa ~0.6
        CvWorkload("cv-paper", ("or_soft", "ce"), n=400, thresholds=inputs.QUARTILES, raters=5,
                   rater_noise_sd=0.68, missing_rate=0.0, layout="counts", folds=5,
                   seeds=(0, 1, 2), epochs=4, batch_size=16, val_fraction=0.8, jobs=1),
        # every loss kind and head; validation as heavy as training; the process pool
        CvWorkload("cv-all-methods", ALL_METHODS, n=400, thresholds=inputs.QUINTILES,
                   raters=5, rater_noise_sd=0.5, missing_rate=0.2, layout="raters", folds=5,
                   seeds=(0,), epochs=5, batch_size=64, val_fraction=0.5, jobs=2),
        # no training: records parsing and the metric suite
        RecordsWorkload("evaluate-records", n=20000, thresholds=inputs.QUINTILES, raters=7),
    )
}


def _cpu_seconds() -> float:
    """User plus system CPU of this process and every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def _digest(out: Path) -> str:
    """Hash of every output file; summary.json without its volatile ``meta`` block."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "summary.json":
            summary = json.loads(data)
            summary.pop("meta")  # timestamps, argv and jobs
            data = json.dumps(summary, sort_keys=True).encode()
        h.update(str(path.relative_to(out)).encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest()


def _launch_seconds(env: dict) -> float:
    """Wall time of one fresh ``python -m ordreg.cli --version`` process."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "ordreg.cli", "--version"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    if done.returncode != 0 or not done.stdout.startswith("ordreg "):
        raise RuntimeError(f"ordreg --version failed: {done.stderr.strip()}")
    return elapsed


def _reference_seconds() -> float:
    """Mean time of one run of a fixed loop of arithmetic and tiny NumPy calls.

    The runs are shared out over every processor this process may use, pinned to each
    in turn, since the pool's workers and a lone process moving between them use all.
    """
    cpus = sorted(os.sched_getaffinity(0))
    times = []
    try:
        for k in range(REFERENCE_PIECES):
            os.sched_setaffinity(0, {cpus[k % len(cpus)]})
            start = time.perf_counter()
            acc = 0.0
            for i in range(4000):
                acc += float(_REFERENCE_X @ _REFERENCE_X) + (i * i) % 7
            times.append(time.perf_counter() - start)
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(times) / len(times)


def _scaled(seconds: float, reference_before: float, reference_after: float) -> float:
    """``seconds`` as they would read with the host at the reference speed.

    The host's other tenants slow this process's processor itself, by a factor that
    moves from a second to minutes; CPU time grows with wall time. The reference loop,
    timed just before and after, is slowed by the same factor, so the ratio cancels it.
    """
    return seconds * REFERENCE_S * 2.0 / (reference_before + reference_after)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ordreg" / "cli.py").is_file():
        print(f"error: no ordreg sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    from ordreg.cli import run as cli_run

    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _measure(workload, args, cli_run, env, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(workload, args, cli_run, env: dict, work: Path) -> int:
    state = workload.prepare(args.seed, work)
    tracer = Tracer() if args.trace else None
    jobs = 1 if args.trace else workload.jobs  # spans recorded in pool workers would be lost
    log = io.StringIO()  # the program's own stdout lines, shown when a check fails
    rounds = []  # (wall_s, cpu_s, traced, raw wall_s, reference_s), the first two scaled
    launches = []  # scaled set-up seconds
    attempted = failed = 0
    first_out, first_digest, mismatch = None, None, None
    start = time.perf_counter()
    deadline = start + args.seconds
    reference = _reference_seconds()
    while True:
        index = len(rounds)
        traced = tracer is not None and index % 2 == 1
        out = work / f"round_{index}"
        with contextlib.redirect_stdout(log):
            with tracer.round_traced(index) if traced else contextlib.nullcontext():
                cpu0, t0 = _cpu_seconds(), time.perf_counter()
                failed += workload.run_round(cli_run, state, out, jobs)
                wall, cpu = time.perf_counter() - t0, _cpu_seconds() - cpu0
        after = _reference_seconds()
        rounds.append((_scaled(wall, reference, after), _scaled(cpu, reference, after), traced,
                       wall, (reference + after) / 2))
        reference = after
        attempted += workload.operations()
        digest = _digest(out)
        if first_out is None:
            first_out, first_digest = out, digest
        else:
            if digest != first_digest and mismatch is None:
                mismatch = f"round {index} outputs differ from round 0"
            shutil.rmtree(out)
        due = SETUP_LAUNCHES * (time.perf_counter() - start) / args.seconds
        if tracer is None and len(launches) < min(due, SETUP_LAUNCHES):
            reference = _timed_launch(env, reference, launches)
        if time.perf_counter() >= deadline and (tracer is None or index % 2 == 1):
            break
    # the --version children are far smaller than this process, which imports the same
    peak = _peak_rss_mib()

    correct = True
    try:
        workload.check(state, first_out)
        if mismatch:
            raise checks.CheckError(mismatch)
    except Exception:  # a malformed output is a failed check, not a crash
        correct = False
        traceback.print_exc()
        sys.stderr.write(log.getvalue())

    if tracer is None:
        while len(launches) < SETUP_LAUNCHES:
            reference = _timed_launch(env, reference, launches)
        metrics = {
            "setup_s": (statistics.median(launches), "s"),
            "wall_s": (statistics.median(r[0] for r in rounds), "s"),
            "cpu_s": (statistics.median(r[1] for r in rounds), "s"),
            "peak_rss_mib": (peak, "MiB"),
        }
        raw = [r[3] for r in rounds]
        print(f"{workload.name}: {len(rounds)} rounds; unscaled wall s per round: min"
              f" {min(raw):.4f}, median {statistics.median(raw):.4f}, max {max(raw):.4f};"
              f" reference median {statistics.median(r[4] for r in rounds) * 1e3:.3f} ms"
              f" against {REFERENCE_S * 1e3:.3f} ms")
    else:
        metrics = _per_layer(tracer, rounds, jobs)
        spans = WORK / f"trace-{workload.name}-s{args.seed}.csv.gz"
        tracer.write(spans)
        print(f"{workload.name}: traced with --jobs {jobs} (configured --jobs {workload.jobs});"
              f" {len(rounds) // 2} traced rounds; spans in {spans.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _timed_launch(env: dict, reference: float, launches: list) -> float:
    """Append one scaled set-up time to ``launches``; return the reference time after it."""
    seconds = _launch_seconds(env)
    after = _reference_seconds()
    launches.append(_scaled(seconds, reference, after))
    return after


def _per_layer(tracer: Tracer, rounds: list, jobs: int) -> dict:
    """Medians over the traced rounds; overhead is traced minus untraced ``wall_s``."""
    per_round = [tracer.round_metrics(i) for i, r in enumerate(rounds) if r[2]]
    values = {}
    for name, unit in PER_LAYER:
        if unit == "s":
            values[name] = (statistics.median(m.get(name, 0.0) for m in per_round), unit)
        else:  # counts repeat exactly from round to round
            values[name] = (int(per_round[0].get(name, 0)), unit)
    plain = statistics.median(r[0] for r in rounds if not r[2])
    with_spans = statistics.median(r[0] for r in rounds if r[2])
    values["trace.jobs"] = (jobs, "count")
    values["trace.overhead_s"] = (with_spans - plain, "s")
    return values


if __name__ == "__main__":
    sys.exit(main())
