"""Sequential cross-validation of the cascade and its two ablations.

The change-point detector and the segment classifier are trained once, on the
dedicated normal-only / anomaly-only datasets; they do not depend on the mixed
stream, so retraining them per fold would only burn time without changing the
comparison. The task networks are retrained per fold on the fold's training
block. Window reconstruction errors over the whole mixed stream are cached so
each fold's change-point pass is a slice, not a fresh inference run.

Variants share fold plumbing: full and b3_no_segclass use identical proposals
and Task 2 models (they differ only in the Task 3 warm start), and all task
networks of one fold start from the same seeded initial weights. The CV folds
and the whole-stream models of `train_whole` train their task networks
through the one `train_task_nets`.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass

import numpy as np

from .cascade import (
    VARIANTS,
    SequenceClassifier,
    SmtcnnModels,
    Standardizer,
    build_task3_inputs,
    no_cpd_proposal,
    predict_classes,
    task2_score,
    train_task2,
    train_task3,
    warm_start_bias,
)
from .changepoint import (
    LstmAutoencoder,
    Segment,
    ThresholdSpec,
    compute_threshold,
    propose_segments,
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


def build_assets(cfg: RunConfig, datasets: dict[str, TimeSeriesDataset] | None = None,
                 variants: tuple[str, ...] = VARIANTS) -> ExperimentAssets:
    """Datasets and the shared models that the given variants use.

    b2_no_cpd alone needs no autoencoder, and b3_no_segclass alone no
    segment classifier; a stage no variant uses stays None. Stage seeds are
    derived by name, so a model comes out the same whichever others are built.
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
    auto = threshold = mixed_errors = seg_model = None
    if any(v != "b2_no_cpd" for v in variants):
        auto = train_autoencoder(normal, cfg.cpd, seed=cfg.stage_seed("cpd"))
        threshold = compute_threshold(reconstruction_errors(auto, normal), cfg.cpd.k)
        mixed_errors = reconstruction_errors(auto, mixed)
    if any(v != "b3_no_segclass" for v in variants):
        rows = windowize(anomaly, cfg.seg.window, cfg.seg.stride)
        seg_model = train_classifier(cfg.seg.kind, rows, cfg.seg,
                                     seed=cfg.stage_seed("segclass"))
    return ExperimentAssets(cfg, normal, anomaly, mixed, auto, threshold, seg_model,
                            mixed_errors)


def block_proposals(assets: ExperimentAssets, start: int, length: int, use_cpd: bool,
                    ) -> tuple[list[Segment], np.ndarray]:
    """Task 1 segments for mixed[start:start+length] via cached errors.

    Without the change-point stage (b2_no_cpd) the whole block is one
    segment. A window fully inside the block has the same reconstruction error as the
    corresponding global window, so the block's errors are a slice.
    """
    if not use_cpd:
        return no_cpd_proposal(length)
    w = assets.cfg.cpd.window
    n_win = length - w + 1
    if n_win <= 0:
        raise InvariantViolation(f"block of {length} steps shorter than window {w}")
    return propose_segments(assets.mixed_errors[start:start + n_win], assets.threshold,
                            assets.cfg.cpd, length)


@dataclass
class Task2Stage:
    """Task 1 and task 2 products on one training block for one mask choice."""

    train_ds: TimeSeriesDataset
    std: Standardizer
    segments: list[Segment]
    mask: np.ndarray
    task2: SequenceClassifier
    o_t2: np.ndarray


def train_task_nets(assets: ExperimentAssets, start: int, length: int, variant: str,
                    tag: str, stages: dict) -> tuple[Task2Stage, SequenceClassifier]:
    """Train task 2 and task 3 of `variant` on mixed[start:start+length].

    `tag` is "" for the whole stream and ":fold<i>" for a CV fold; it names
    the stage seeds "task2<tag>" and "task3<tag>". `stages` caches the task-2
    stage per mask choice, so variants with the same proposals (full and
    b3_no_segclass) train task 2 once.
    """
    cfg = assets.cfg
    use_cpd = variant != "b2_no_cpd"
    if ((use_cpd and assets.autoencoder is None)
            or (variant != "b3_no_segclass" and assets.seg_model is None)):
        raise InvariantViolation(f"the assets lack a stage that variant {variant} uses")
    if use_cpd not in stages:
        train_ds = assets.mixed.slice(start, start + length)
        x = train_ds.features()
        std = Standardizer.fit(x)
        segs, mask = block_proposals(assets, start, length, use_cpd)
        task2 = train_task2(train_ds, mask, cfg.task2, std,
                            seed=cfg.stage_seed("task2" + tag))
        stages[use_cpd] = Task2Stage(train_ds, std, segs, mask, task2,
                                     task2_score(task2, std.apply(x), segs, cfg.task2.chunk_len))
    st = stages[use_cpd]
    bias = None
    if variant != "b3_no_segclass":
        bias = warm_start_bias(assets.seg_model, st.train_ds.features(), st.segments, cfg.seg)
    task3 = train_task3(st.train_ds, st.mask, st.o_t2, cfg.task3, st.std,
                        seed=cfg.stage_seed("task3" + tag), init_bias=bias)
    return st, task3


def _run_fold(assets: ExperimentAssets, fold, fold_idx: int, variant: str,
              stages: dict, test_inputs: dict) -> dict[str, float]:
    """Train on the fold's train block, score its test block.

    `stages` and `test_inputs` are per-fold caches keyed by the mask choice.
    """
    cfg = assets.cfg
    use_cpd = variant != "b2_no_cpd"
    st, task3 = train_task_nets(assets, fold.train_start, fold.train_len, variant,
                                f":fold{fold_idx}", stages)
    if use_cpd not in test_inputs:
        x_te = st.std.apply(
            assets.mixed.features()[fold.test_start:fold.test_start + fold.test_len])
        segs_te, mask_te = block_proposals(assets, fold.test_start, fold.test_len, use_cpd)
        o2_te = task2_score(st.task2, x_te, segs_te, cfg.task2.chunk_len)
        test_inputs[use_cpd] = build_task3_inputs(x_te, mask_te, o2_te)
    preds = predict_classes(task3.infer_series(test_inputs[use_cpd], cfg.task3.chunk_len))
    truth = assets.mixed.fault_class[fold.test_start:fold.test_start + fold.test_len]
    return metrics(confusion(preds, truth, classes=ALL_CLASSES))


def train_whole(assets: ExperimentAssets, variant: str) -> SmtcnnModels:
    """Final deployable models for one variant, reusing the shared stages."""
    cfg = assets.cfg
    st, task3 = train_task_nets(assets, 0, len(assets.mixed), variant, "", {})
    use_cpd = variant != "b2_no_cpd"
    return SmtcnnModels(
        variant=variant,
        autoencoder=assets.autoencoder if use_cpd else None,
        threshold=assets.threshold if use_cpd else None,
        seg_model=assets.seg_model if variant != "b3_no_segclass" else None,
        task2=st.task2, task3=task3, std=st.std, cpd_cfg=cfg.cpd, seg_cfg=cfg.seg,
        chunk_len=cfg.task3.chunk_len,
    )


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
        if v not in VARIANTS:
            raise InvariantViolation(f"unknown variant {v!r}")
    if plan is None:
        plan = default_plan(assets)
    reports = {v: EvalReport(label=v) for v in variants}
    for idx, fold in enumerate(plan.folds):
        stages: dict = {}
        test_inputs: dict = {}
        for v in variants:
            try:
                reports[v].add_fold(_run_fold(assets, fold, idx, v, stages, test_inputs))
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
