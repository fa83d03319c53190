"""Soft-label ordinal regression with an uncertainty-aware evaluation suite.

The package trains ordinal classifiers against multi-rater soft labels,
evaluates them with agreement-weighted metrics, and wraps the whole thing in
a deterministic cross-validation harness with a CLI front end.

Layout: ``core`` (label types and transforms), ``losses`` (training
objectives), ``model`` (MLP, heads, Adam, gradients), ``metrics`` (the
evaluation suite), ``data`` (datasets, CSV, synthetic generator, splits),
``harness`` (training loops, cross-validation, comparisons), ``cli``.
"""

__version__ = "0.1.0"

from .core import (
    ClassDistribution,
    ExceedanceLabel,
    InputError,
    ProblemSpec,
    RatingDistribution,
    TaskProbabilities,
    class_distribution_from_tasks,
    decode_argmax,
    decode_count,
    exceedance_from_soft,
    sord_soft_label,
)
from .losses import (
    ALL_LOSS_KINDS,
    ce_loss,
    ce_soft_loss,
    corn_loss,
    corn_unconditional,
    or_cnn_loss,
    or_soft_loss,
)
from .metrics import (
    EvalRecord,
    MetricReport,
    RecordTable,
    aurc,
    calibration_curve,
    compute_metric_report,
    confusion_matrix,
    ece,
    eval_record,
    paired_t_test_one_sided,
    qwk,
    qwk_from_pairs,
    risk_coverage,
    student_t_cdf,
)
from .model import (
    EncoderConfig,
    ModelParams,
    adam_step,
    forward,
    init_adam_state,
    init_params,
    load_params,
    loss_and_gradient,
    save_params,
)
from .data import (
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
from .harness import (
    METHODS,
    ModelJob,
    TrainConfig,
    compare_methods,
    run_cv,
    train_models,
    train_one,
    train_single,
)

__all__ = [name for name in dir() if not name.startswith("_")]
