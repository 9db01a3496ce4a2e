"""Sequential cross-validation of the cascade and its two ablations.

The change-point detector and the segment classifier are trained once, on the
dedicated normal-only / anomaly-only datasets, by `train_cpd_stage` and
`train_seg_stage` inside `build_assets` (`faultlab train-smtcnn`, `eval` and
`pipeline` all build their shared models there). They do not depend on the
mixed stream, so retraining them per fold would only burn time without
changing the comparison. Window reconstruction errors over the whole mixed
stream are cached so each block's task 1 is a slice, not a fresh inference
run.

`train_task_nets` trains a variant's task networks on one block of the mixed
stream into its `SmtcnnModels`: the whole stream for `train_whole`, a fold's
training block for the CV, whose test block then runs the cascade path that
`smtcnn_infer` runs. full and b3_no_segclass share proposals, so within a fold
they share one task-2 model and one set of test-block task-3 inputs; all task
networks of one fold start from the same seeded initial weights.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass

import numpy as np

from .cascade import (
    VARIANTS,
    SmtcnnModels,
    Standardizer,
    build_task3_inputs,
    task1_proposal,
    task3_predict,
    train_task2,
    train_task3,
    variant_stages,
    warm_start_bias,
)
from .changepoint import (
    LstmAutoencoder,
    Segment,
    ThresholdSpec,
    compute_threshold,
    reconstruction_errors,
    train_autoencoder,
)
from .config import RunConfig
from .errors import FaultlabError, InvariantViolation
from .evaluation import EvalReport, SeqCvPlan, confusion, metrics, seq_cv_plan
from .segclass import ClassifierModel, train_classifier, windowize
from .simgen import NO_FAULT, TimeSeriesDataset, generate_dataset

log = logging.getLogger(__name__)

ALL_CLASSES = tuple(range(1, NO_FAULT + 1))


@dataclass
class ExperimentAssets:
    """Fold-independent pieces of one experiment run."""

    cfg: RunConfig
    normal: TimeSeriesDataset
    anomaly: TimeSeriesDataset
    mixed: TimeSeriesDataset
    autoencoder: LstmAutoencoder | None
    threshold: ThresholdSpec | None
    seg_model: ClassifierModel | None
    mixed_errors: np.ndarray | None  # window reconstruction errors over the mixed stream


def train_cpd_stage(normal: TimeSeriesDataset, cfg: RunConfig,
                    ) -> tuple[LstmAutoencoder, ThresholdSpec]:
    """The change-point stage: the autoencoder, and the threshold from its
    errors on the normal data it trained on."""
    auto = train_autoencoder(normal, cfg.cpd, seed=cfg.stage_seed("cpd"))
    return auto, compute_threshold(reconstruction_errors(auto, normal), cfg.cpd.k)


def train_seg_stage(anomaly: TimeSeriesDataset, cfg: RunConfig) -> ClassifierModel:
    """The segment classifier over the anomaly-only windows."""
    rows = windowize(anomaly, cfg.seg.window, cfg.seg.stride)
    return train_classifier(cfg.seg.kind, rows, cfg.seg, seed=cfg.stage_seed("segclass"))


def build_assets(cfg: RunConfig, datasets: dict[str, TimeSeriesDataset] | None = None,
                 variants: tuple[str, ...] = VARIANTS) -> ExperimentAssets:
    """Datasets and the shared models that the given variants use.

    A stage no variant uses (see `cascade.VARIANT_STAGES`) stays None. Stage
    seeds are derived by name, so a model comes out the same whichever others
    are built.
    """
    if datasets is None:
        datasets = {r: generate_dataset(r, cfg.sim)
                    for r in ("normal_only", "anomaly_only", "mixed")}
    else:
        for want in ("mixed", "normal_only", "anomaly_only"):
            if datasets[want].regime != want:
                raise InvariantViolation(
                    f"expected a {want} dataset, got {datasets[want].regime}")
    normal, anomaly, mixed = (datasets["normal_only"], datasets["anomaly_only"],
                              datasets["mixed"])
    uses = [variant_stages(v) for v in variants]
    auto = threshold = mixed_errors = seg_model = None
    if any(u.cpd for u in uses):
        auto, threshold = train_cpd_stage(normal, cfg)
        mixed_errors = reconstruction_errors(auto, mixed)
    if any(u.segclass for u in uses):
        seg_model = train_seg_stage(anomaly, cfg)
    return ExperimentAssets(cfg, normal, anomaly, mixed, auto, threshold, seg_model,
                            mixed_errors)


def block_proposals(assets: ExperimentAssets, start: int, length: int, variant: str,
                    ) -> tuple[list[Segment], np.ndarray]:
    """Task 1 of `variant` for mixed[start:start+length] via cached errors.

    A window fully inside the block has the same reconstruction error as the
    corresponding global window, so the block's errors are a slice.
    """
    errors = None
    if assets.mixed_errors is not None:
        n_win = length - assets.cfg.cpd.window + 1
        if n_win <= 0:
            raise InvariantViolation(
                f"block of {length} steps shorter than window {assets.cfg.cpd.window}")
        errors = assets.mixed_errors[start:start + n_win]
    return task1_proposal(variant, length, errors, assets.threshold, assets.cfg.cpd)


def block_inputs(assets: ExperimentAssets, models: SmtcnnModels, start: int,
                 length: int) -> np.ndarray:
    """Task 3's inputs for mixed[start:start+length] under `models`."""
    segments, mask = block_proposals(assets, start, length, models.variant)
    x = assets.mixed.features()[start:start + length]
    return build_task3_inputs(models.task2, models.std, x, segments, mask, models.chunk_len)


def train_task_nets(assets: ExperimentAssets, start: int, length: int, variant: str,
                    tag: str, cache: dict) -> SmtcnnModels:
    """Train task 2 and task 3 of `variant` on mixed[start:start+length].

    `tag` is "" for the whole stream and ":fold<i>" for a CV fold; it names
    the stage seeds "task2<tag>" and "task3<tag>". `cache` holds the block's
    standardizer, task-2 model, segments and task-3 inputs per proposal
    choice, so variants with the same proposals (full and b3_no_segclass)
    train task 2 once.
    """
    cfg = assets.cfg
    use = variant_stages(variant)
    if (use.cpd and assets.autoencoder is None) or (use.segclass and assets.seg_model is None):
        raise InvariantViolation(f"the assets lack a stage that variant {variant} uses")
    block = assets.mixed.slice(start, start + length)
    x, chunk_len = block.features(), cfg.task3.chunk_len
    if use.cpd not in cache:
        std = Standardizer.fit(x)
        segments, mask = block_proposals(assets, start, length, variant)
        task2 = train_task2(block, mask, cfg.task2, std, seed=cfg.stage_seed("task2" + tag))
        cache[use.cpd] = (std, task2, segments,
                          build_task3_inputs(task2, std, x, segments, mask, chunk_len))
    std, task2, segments, inputs = cache[use.cpd]
    bias = warm_start_bias(assets.seg_model, x, segments, cfg.seg) if use.segclass else None
    task3 = train_task3(inputs, block.fault_class, cfg.task3,
                        seed=cfg.stage_seed("task3" + tag), init_bias=bias)
    return SmtcnnModels(
        variant=variant,
        autoencoder=assets.autoencoder if use.cpd else None,
        threshold=assets.threshold if use.cpd else None,
        seg_model=assets.seg_model if use.segclass else None,
        task2=task2, task3=task3, std=std, cpd_cfg=cfg.cpd, seg_cfg=cfg.seg,
        chunk_len=chunk_len,
    )


def _run_fold(assets: ExperimentAssets, fold, fold_idx: int, variant: str,
              cache: dict, test_inputs: dict) -> dict[str, float]:
    """Train on the fold's train block, score its test block.

    `cache` and `test_inputs` are per-fold caches keyed by the proposal
    choice.
    """
    models = train_task_nets(assets, fold.train_start, fold.train_len, variant,
                             f":fold{fold_idx}", cache)
    key = variant_stages(variant).cpd
    if key not in test_inputs:
        test_inputs[key] = block_inputs(assets, models, fold.test_start, fold.test_len)
    pred = task3_predict(models.task3, test_inputs[key], models.chunk_len)
    truth = assets.mixed.fault_class[fold.test_start:fold.test_start + fold.test_len]
    return metrics(confusion(pred.classes, truth, classes=ALL_CLASSES))


def train_whole(assets: ExperimentAssets, variant: str) -> SmtcnnModels:
    """Final deployable models for one variant, trained on the whole mixed stream."""
    return train_task_nets(assets, 0, len(assets.mixed), variant, "", {})


def default_plan(assets: ExperimentAssets) -> SeqCvPlan:
    pc = assets.cfg.plan
    return seq_cv_plan(len(assets.mixed), folds=pc.folds,
                       seed=assets.cfg.stage_seed("seqcv"),
                       lo=pc.len_frac_lo, hi=pc.len_frac_hi)


def run_all_variants(assets: ExperimentAssets, plan: SeqCvPlan | None = None,
                     ) -> list[EvalReport]:
    return run_variants(assets, VARIANTS, plan)


def run_variants(assets: ExperimentAssets, variants: tuple[str, ...],
                 plan: SeqCvPlan | None = None) -> list[EvalReport]:
    for v in variants:
        variant_stages(v)
    if plan is None:
        plan = default_plan(assets)
    reports = {v: EvalReport(label=v) for v in variants}
    for idx, fold in enumerate(plan.folds):
        cache: dict = {}
        test_inputs: dict = {}
        for v in variants:
            try:
                reports[v].add_fold(_run_fold(assets, fold, idx, v, cache, test_inputs))
            except FaultlabError as exc:
                warnings.warn(f"fold {idx} failed for {v}: {exc}", stacklevel=2)
                reports[v].skipped_folds.append(idx)
    need = assets.cfg.plan.min_valid_folds
    for v in variants:
        n_ok = len(reports[v].fold_metrics)
        if n_ok < need:
            raise FaultlabError(
                f"variant {v}: only {n_ok} valid folds, {need} required")
        log.info("variant %s: %d valid folds", v, n_ok)
    return [reports[v] for v in variants]
