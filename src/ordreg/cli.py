"""Command-line front end.

Commands: ``generate`` (synthetic dataset to CSV), ``train`` (fit one method,
save checkpoints), ``cv`` (cross-validated experiment over a method list),
``evaluate`` (metric suite over an exported records CSV), ``compare``
(fold-paired significance test between two result directories), ``curves``
(calibration / risk-coverage / confusion tables from records).

Exit codes: 0 success, 1 input or config error (the message names the
offending field or file), 2 runtime failure. All file outputs are written
atomically. ``ORDREG_LOG`` selects the log level (debug/info/warning/error);
each warning is one log line, written when it is raised.

Flag-vs-config precedence: ``--config`` supplies a JSON document; any flag
given on the command line overrides the corresponding config entry. The
``--seed`` flag rewrites the training seed list to seed, seed+1, ... of the
configured length (and the generator seed for ``generate``).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import warnings
from contextlib import closing
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Sequence

from . import __version__, harness
from .core import InputError, ProblemSpec
from .data import (
    ALL_TIE_POLICIES,
    Dataset,
    SyntheticConfig,
    TIE_POLICY_RESAMPLE,
    generate_synthetic,
    load_csv,
    save_csv,
)
from .harness import (
    ALL_DECODES,
    HISTORY_FILE,
    METHODS,
    METRICS_FILE,
    RECORDS_FILE,
    SUMMARY_FILE,
    ExperimentResult,
    FoldOutcome,
    TrainConfig,
    compare_methods,
    history_csv_text,
    read_records_csv,
    render_experiment_result,
    result_summary_block,
    run_cv,
    train_single,
    write_experiment_result,
)
from .ioutil import atomic_write_json, atomic_write_text, canonical_json, json_number, read_json
from .metrics import (
    DEFAULT_NUM_BINS,
    DIRECTION_HIGHER,
    DIRECTION_LOWER,
    MetricReport,
    calibration_curve,
    check_num_bins,
    compute_metric_report,
    confusion_matrix,
    risk_coverage,
)
from .model import EncoderConfig, save_params

log = logging.getLogger("ordreg")

# experiment-config defaults; any key a config file may set must appear here
_CONFIG_DEFAULTS: dict = {
    "data": None,
    "synthetic": None,
    "methods": None,
    "out": None,
    "num_classes": None,
    "folds": 5,
    "split_seed": 0,
    "seeds": [0, 1, 2],
    "epochs": 1000,
    "batch_size": 16,
    "lr": 1e-5,
    "hidden_dims": [16],
    "activation": "relu",
    "val_fraction": 0.8,
    "decode": None,
    "ties": TIE_POLICY_RESAMPLE,
    "num_bins": DEFAULT_NUM_BINS,
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract reserves 2 for
    # runtime failures, so surface parse problems as input errors instead
    def error(self, message: str):
        raise InputError(message)


def _load_config(path: Optional[str]) -> dict:
    cfg = dict(_CONFIG_DEFAULTS)
    if path is None:
        return cfg
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise InputError(f"{path}: config must be a JSON object")
    for key, value in doc.items():
        if key not in _CONFIG_DEFAULTS:
            raise InputError(f"{path}: unknown config field {key!r}")
        cfg[key] = value
    return _typed_config(cfg)


# numeric config fields, read once where the config enters (ioutil.json_number)
_INT_FIELDS = ("folds", "split_seed", "epochs", "batch_size", "num_bins")
_FLOAT_FIELDS = ("lr", "val_fraction")
_INT_LIST_FIELDS = ("seeds", "hidden_dims")


def _typed_config(cfg: dict) -> dict:
    for name in _INT_FIELDS:
        cfg[name] = json_number(name, cfg[name], integer=True)
    for name in _FLOAT_FIELDS:
        cfg[name] = json_number(name, cfg[name])
    for name in _INT_LIST_FIELDS:
        if not isinstance(cfg[name], list):
            raise InputError(f"field {name!r}: expected a list of integers, got {cfg[name]!r}")
        cfg[name] = [json_number(name, v, integer=True) for v in cfg[name]]
    # seeds feed numpy.random.default_rng, which takes non-negative integers only
    for name, values in (("split_seed", [cfg["split_seed"]]), ("seeds", cfg["seeds"])):
        if any(v < 0 for v in values):
            raise InputError(f"field {name!r}: seeds must be >= 0, got {cfg[name]!r}")
    if cfg["num_classes"] is not None:
        cfg["num_classes"] = json_number("num_classes", cfg["num_classes"], integer=True)
    for name in ("data", "out", "activation", "decode", "ties"):
        if cfg[name] is not None and not isinstance(cfg[name], str):
            raise InputError(f"field {name!r}: expected a string, got {cfg[name]!r}")
    if cfg["methods"] is not None and not (
        isinstance(cfg["methods"], list) and all(isinstance(m, str) for m in cfg["methods"])
    ):
        raise InputError(f"field 'methods': expected a list of names, got {cfg['methods']!r}")
    return cfg


def _apply_flags(cfg: dict, args: argparse.Namespace) -> dict:
    # a flag given empty is an error, not the config's value: Path("") is the current directory
    for name in ("data", "methods", "out"):
        value = getattr(args, name, None)
        if value is None:
            continue
        if name == "methods":
            value = [m.strip() for m in value.split(",") if m.strip()]
        if not value:
            raise InputError(f"--{name}: must not be empty")
        cfg[name] = value
    if getattr(args, "folds", None) is not None:
        cfg["folds"] = args.folds
    if getattr(args, "decode", None):
        cfg["decode"] = args.decode
    if getattr(args, "ties", None):
        cfg["ties"] = args.ties
    if _seed_flag(args) is not None:
        cfg["seeds"] = [args.seed + i for i in range(len(cfg["seeds"]))]
        cfg["split_seed"] = args.seed
    return cfg


def _seed_flag(args: argparse.Namespace) -> Optional[int]:
    """The ``--seed`` flag, or None; numpy.random.default_rng takes seeds >= 0 only."""
    if args.seed is not None and args.seed < 0:
        raise InputError(f"--seed: must be at least 0, got {args.seed}")
    return args.seed


def _check_methods(names: Sequence[str]) -> list[str]:
    if not names:
        raise InputError("field 'methods': at least one method is required")
    for i, name in enumerate(names):
        if name not in METHODS:
            raise InputError(
                f"unknown method {name!r}; valid methods: {', '.join(sorted(METHODS))}"
            )
        if name in names[:i]:
            raise InputError(f"field 'methods': method {name!r} is listed twice")
    return list(names)


def _train_configs(cfg: dict) -> list[TrainConfig]:
    """Every configured method's checked settings, made before any data is read; the
    encoder's ``input_dim`` is 1 until the read gives the feature count."""
    methods = _check_methods(cfg["methods"] or [])
    if cfg["out"] is None:
        raise InputError("field 'out': an output directory is required")
    if cfg["ties"] not in ALL_TIE_POLICIES:
        raise InputError(f"field 'ties': must be 'paper' or 'lowest', got {cfg['ties']!r}")
    encoder = EncoderConfig(input_dim=1, hidden_dims=tuple(cfg["hidden_dims"]),
                            activation=cfg["activation"])
    shared = {name: cfg[name] for name in ("epochs", "batch_size", "lr", "val_fraction",
                                           "decode", "num_bins")}
    return [TrainConfig(method=method, encoder=encoder, seeds=tuple(cfg["seeds"]),
                        tie_policy=cfg["ties"], **shared) for method in methods]


def _synthetic(doc, seed: Optional[int]) -> SyntheticConfig:
    """A synthetic config from its JSON object; a ``--seed`` flag replaces its seed."""
    synth = SyntheticConfig.from_dict(doc)
    return synth if seed is None else replace(synth, seed=seed)


def _load_dataset(cfg: dict, seed_override: Optional[int]) -> tuple[Dataset, dict]:
    """Dataset plus a summary block describing its source."""
    if cfg["data"] is not None:
        k = cfg["num_classes"]
        dataset = load_csv(cfg["data"], ProblemSpec(k) if k else None)
        source = str(cfg["data"])
    elif cfg["synthetic"] is not None:
        dataset = generate_synthetic(_synthetic(cfg["synthetic"], seed_override))
        source = "synthetic"
    else:
        raise InputError("field 'data': a data CSV (--data) or a synthetic block is required")
    info = {
        "source": source,
        "num_examples": len(dataset),
        "num_features": dataset.num_features,
        "num_classes": dataset.spec.num_classes,
        "num_tied": int(dataset.tied_mask.sum()),
    }
    return dataset, info


def _config_echo(cfg: dict, num_classes: int) -> dict:
    # everything that shapes the numbers; nothing volatile (out, jobs, argv)
    echo = {key: cfg[key] for key in _CONFIG_DEFAULTS if key not in ("data", "synthetic", "out")}
    return {**echo, "num_classes": num_classes}


def _meta(args: argparse.Namespace) -> dict:
    return {
        "created_at": datetime.now(timezone.utc).isoformat(),
        "argv": list(sys.argv),
        "jobs": getattr(args, "jobs", 1),
        "out": getattr(args, "out", None),
        "version": __version__,
    }


# ===== commands =====


def _cmd_generate(args: argparse.Namespace) -> None:
    seed = _seed_flag(args)
    dataset = generate_synthetic(_synthetic(read_json(args.config), seed))
    save_csv(dataset, args.out)
    log.info("wrote %d examples to %s", len(dataset), args.out)


def _cmd_train(args: argparse.Namespace) -> None:
    cfg = _apply_flags(_load_config(args.config), args)
    configs = _train_configs(cfg)
    if len(configs) != 1:
        raise InputError("field 'methods': train takes exactly one method")
    dataset, _ = _load_dataset(cfg, args.seed)
    config = replace(configs[0], encoder=replace(configs[0].encoder,
                                                  input_dim=dataset.num_features))
    outcomes = train_single(dataset, config, split_seed=cfg["split_seed"])
    out = Path(cfg["out"]) / config.method
    histories = {o.seed: o.history for o in outcomes}
    atomic_write_text(out / HISTORY_FILE, history_csv_text(histories))
    for outcome in outcomes:
        save_params(outcome.params, out / f"seed_{outcome.seed}_params.json")
        log.info(
            "%s seed %d: best epoch %d, val UW-MAE %.6f",
            config.method, outcome.seed, outcome.best_epoch,
            outcome.history[outcome.best_epoch - 1].val_uw_mae,
        )
    print(f"trained {config.method} on {len(dataset)} examples; checkpoints in {out}")


def _method_output(dataset: Dataset, config: TrainConfig, split) -> tuple[dict, dict]:
    """One method's summary block and rendered files."""
    result = run_cv(dataset, config, split=split)
    return result_summary_block(result), render_experiment_result(result)


def _method_outputs(jobs: int, methods: Sequence[str], output):
    """``output(i)`` for every method, in method order; with ``jobs`` > 1, up to that many
    processes (one per CPU) compute them, this one and forked children."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    processes = min(jobs, len(methods), cpus or 1) if hasattr(os, "fork") else 1
    if processes < 2:
        return (output(i) for i in range(len(methods)))
    from .workers import in_order

    return in_order(output, methods, processes - 1)


def _cmd_cv(args: argparse.Namespace) -> None:
    if args.jobs < 1:
        raise InputError(f"--jobs: must be at least 1, got {args.jobs}")
    cfg = _apply_flags(_load_config(args.config), args)
    configs = _train_configs(cfg)
    if cfg["folds"] < 2:
        raise InputError(f"field 'folds': cv needs at least 2 folds, got {cfg['folds']}")
    dataset, dataset_doc = _load_dataset(cfg, args.seed)
    encoder = replace(configs[0].encoder, input_dim=dataset.num_features)
    configs = [replace(config, encoder=encoder) for config in configs]
    methods = [config.method for config in configs]
    # one split for every method, called by the name run_cv uses, which traces count
    split = harness.stratified_k_fold(dataset, cfg["folds"], cfg["split_seed"],
                                      configs[0].val_fraction)
    finished: list[tuple[str, dict]] = []
    meta = _meta(args)
    failure: Optional[Exception] = None
    outputs = _method_outputs(args.jobs, methods,
                              lambda i: _method_output(dataset, configs[i], split))
    with closing(outputs):
        for method in methods:
            try:
                block, files = next(outputs)
                write_experiment_result(cfg["out"], files)
            except Exception as err:  # keep what finished, then fail with this error
                failure = err
                meta["failure"] = f"{method}: {err}"
                break
            finished.append((method, block))
            mae_uw = block["mean"].get("mae_uw")
            log.info("%s: mean UW-MAE %s", method, "n/a" if mae_uw is None else f"{mae_uw:.4f}")
    if finished:
        atomic_write_json(Path(cfg["out"]) / SUMMARY_FILE, {
            "meta": meta, "config": _config_echo(cfg, dataset.spec.num_classes),
            "dataset": dataset_doc, "methods": dict(finished)})
    if failure is not None:
        if finished:
            log.warning("%s; %s keeps the %d method(s) that finished",
                        meta["failure"], SUMMARY_FILE, len(finished))
        raise failure
    print(f"wrote {Path(cfg['out']) / SUMMARY_FILE}")


def _num_bins(args: argparse.Namespace) -> int:
    try:
        return check_num_bins(args.num_bins)
    except InputError as err:
        raise InputError(f"--num-bins: {err}") from None


def _records_path(data: str) -> str | Path:
    """``--data`` of ``evaluate`` and ``curves``: a records.csv, or a fold directory holding one."""
    return Path(data) / RECORDS_FILE if Path(data).is_dir() else data


def _cmd_evaluate(args: argparse.Namespace) -> None:
    num_bins = _num_bins(args)
    records = read_records_csv(_records_path(args.data))
    report = compute_metric_report(records, num_bins)
    text = canonical_json(report.to_dict())
    if args.out:
        atomic_write_text(args.out, text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)


def _read_result(result_dir: Path) -> ExperimentResult:
    """The completed folds of a result directory: each ``fold_<i>/metrics.json``."""
    folds = []
    for path in sorted(result_dir.glob(f"fold_*/{METRICS_FILE}")):
        number = path.parent.name[len("fold_"):]
        if not number.isdecimal():
            continue
        doc = read_json(path)
        try:
            report = MetricReport.from_dict(doc)
        except InputError as err:
            raise InputError(f"{path}: {err}") from None
        folds.append(FoldOutcome(fold=int(number), status="ok", error="", report=report,
                                 records=(), best_epochs={}, histories={}))
    if not folds:
        raise InputError(f"{result_dir}: no fold_*/{METRICS_FILE} files")
    return ExperimentResult(method=result_dir.name, folds=tuple(folds))


def _cmd_compare(args: argparse.Namespace) -> None:
    dir_a, dir_b = (Path(d) for d in args.result_dirs)
    cmp = compare_methods(_read_result(dir_a), _read_result(dir_b), args.metric, args.direction)
    verdict = "significant" if cmp.significant else "not significant"
    print(
        f"{cmp.method_a} vs {cmp.method_b} on {cmp.metric} ({cmp.direction}): "
        f"p = {cmp.p_value:.6g} ({verdict} at alpha = {cmp.alpha})"
    )
    if args.out:
        atomic_write_json(args.out, cmp.to_dict())


def _cmd_curves(args: argparse.Namespace) -> None:
    num_bins = _num_bins(args)
    records = read_records_csv(_records_path(args.data))
    out = Path(args.out)

    bins = calibration_curve(records, num_bins)
    lines = ["bin_low,bin_high,mean_confidence,mean_true_accuracy,count"]
    for b in bins:
        conf = "" if b.mean_confidence is None else repr(b.mean_confidence)
        acc = "" if b.mean_true_accuracy is None else repr(b.mean_true_accuracy)
        lines.append(f"{b.bin_low!r},{b.bin_high!r},{conf},{acc},{b.count}")
    atomic_write_text(out / "calibration.csv", "\n".join(lines) + "\n")

    points, area = risk_coverage(records)
    lines = ["coverage,risk"]
    lines += [f"{cov!r},{risk!r}" for cov, risk in points]
    atomic_write_text(out / "risk_coverage.csv", "\n".join(lines) + "\n")
    atomic_write_text(out / "aurc.txt", repr(area) + "\n")

    for name, normalize in (("confusion.csv", False), ("confusion_row_normalized.csv", True)):
        table = confusion_matrix(records, row_normalize=normalize)
        rows = [",".join(repr(float(x)) for x in row) for row in table]
        atomic_write_text(out / name, "\n".join(rows) + "\n")
    print(f"wrote curves for {len(records)} records to {out}")


# ===== entry point =====


def _build_parser() -> _Parser:
    parser = _Parser(prog="ordreg", description=(
        "Soft-label ordinal regression: synthetic data, training, "
        "cross-validated evaluation, and uncertainty-aware metrics."
    ))
    parser.add_argument("--version", action="version", version=f"ordreg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, cv: bool = False) -> None:
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--data", help="input data CSV")
        p.add_argument("--methods", help="comma-separated method names")
        p.add_argument("--out", help="output path")
        p.add_argument("--seed", type=int, help="override all configured seeds")
        p.add_argument("--decode", choices=ALL_DECODES, help="decode rule override")
        p.add_argument("--ties", choices=ALL_TIE_POLICIES,
                       help="tie policy: paper = exclude from eval, resample in training")
        if cv:  # train fits one split, so folds and jobs are cv's alone
            p.add_argument("--folds", type=int, help="number of cross-validation folds")
            p.add_argument("--jobs", type=int, default=1,
                           help="processes for cv, at most one per CPU: each runs whole"
                                " methods, this one and forked children; the output does not"
                                " depend on N, but stderr lines of different methods may"
                                " interleave")

    p = sub.add_parser("generate", help="draw a synthetic dataset and write it as CSV")
    p.add_argument("--config", required=True, help="synthetic config JSON")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--seed", type=int, help="override the configured seed")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("train", help="train one method and save per-seed checkpoints")
    common(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("cv", help="cross-validated experiment over a method list")
    common(p, cv=True)
    p.set_defaults(func=_cmd_cv)

    def num_bins(p: argparse.ArgumentParser) -> None:
        p.add_argument("--num-bins", type=int, default=DEFAULT_NUM_BINS,
                       help="equal-width confidence bins for ECE and the calibration curve;"
                            " give the experiment's num_bins to reproduce its metrics")

    p = sub.add_parser("evaluate", help="metric suite over an exported records CSV")
    p.add_argument("--data", required=True, help="records.csv or a fold directory")
    p.add_argument("--out", help="write the report JSON here instead of stdout")
    num_bins(p)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("compare", help="paired one-sided t-test between two result dirs")
    p.add_argument("result_dirs", nargs=2, help="two <out>/<method> directories")
    p.add_argument("--metric", required=True, help="metric name, e.g. ece or mae_uw")
    p.add_argument("--direction", required=True, choices=(DIRECTION_LOWER, DIRECTION_HIGHER),
                   help="alternative hypothesis for the first directory")
    p.add_argument("--out", help="optional JSON report path")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("curves", help="calibration / risk-coverage / confusion tables")
    p.add_argument("--data", required=True, help="records.csv or a fold directory")
    p.add_argument("--out", required=True, help="output directory")
    num_bins(p)
    p.set_defaults(func=_cmd_curves)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    level = os.environ.get("ORDREG_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    # a warning is one log line, written when it is raised, so ahead of a failing command's
    # error; forked cv workers inherit the hook, and entering resets the once-a-location registry
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: log.warning("%s", message)
        try:
            args = _build_parser().parse_args(argv)
            args.func(args)
            return 0
        except (InputError, OSError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        except Exception as err:  # runtime failure, not an input problem
            log.debug("unhandled failure", exc_info=True)
            print(f"failure: {err}", file=sys.stderr)
            return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
