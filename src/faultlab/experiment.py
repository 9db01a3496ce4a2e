"""Sequential cross-validation of the cascade and its two ablations.

The change-point detector and the segment classifier are trained once, on the
dedicated normal-only / anomaly-only datasets, by `train_cpd_stage` and
`train_seg_stage` inside `build_assets` (`faultlab train-smtcnn`, `eval` and
`pipeline` all build their shared models there). They do not depend on the
mixed stream, so retraining them per fold would only burn time without
changing the comparison. Window reconstruction errors over the whole mixed
stream are cached so each block's task 1 is a slice, not a fresh inference
run.

`train_task_nets` trains the task networks of several variants on several
blocks of the mixed stream into their `SmtcnnModels`: the whole stream for
`whole_stream_models` and `train_whole`, every fold's training block for the
CV, whose test blocks then run the cascade path that `smtcnn_infer` runs. It
trains role by role: every block's task-2 nets as one group, then every
block x variant task-3 net as one group, each net with the seed, data and
bits it would have alone (see `nncore.training`). full and b3_no_segclass
share proposals, so within a block they share one task-2 model and one set
of task-3 inputs; all task networks of one block start from the same seeded
initial weights. A net that fails fails only its own block and variants: the
CV skips that fold for them, with the warning the failure names.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cascade import (
    VARIANTS,
    SequenceClassifier,
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
from .errors import FaultlabError, InvariantViolation, attempt, unwrap
from .evaluation import EvalReport, SeqCvPlan, confusion, metrics, seq_cv_plan
from .segclass import ClassifierModel, train_classifier, windowize
from .simgen import NO_FAULT, TimeSeriesDataset, generate_dataset

log = logging.getLogger(__name__)

ALL_CLASSES = tuple(range(1, NO_FAULT + 1))
# A variant's trained models, or the error that stopped their training.
Outcome = SmtcnnModels | FaultlabError


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


class _Shared(NamedTuple):
    """What the variants with one proposal choice share on a block: task 1's
    standardizer and proposals, then task 2 and task 3's inputs."""

    std: Standardizer
    segments: list[Segment]
    mask: np.ndarray
    task2: SequenceClassifier | None = None
    inputs: np.ndarray | None = None


def train_task_nets(assets: ExperimentAssets, blocks: list[tuple[int, int, str]],
                    variants: tuple[str, ...]) -> dict[tuple[int, str], Outcome]:
    """Train task 2 and task 3 of each variant on each block of the mixed
    stream, role by role.

    A block is (start, length, tag) for mixed[start:start+length]; `tag` is
    "" for the whole stream and ":fold<i>" for a CV fold, and names the stage
    seeds "task2<tag>" and "task3<tag>". Variants with the same proposals
    (full and b3_no_segclass) share a block's standardizer, task-2 model and
    task-3 inputs. Every block's task-2 nets train as one group, then each
    block's task-3 inputs are built, then every block x variant task-3 net
    trains as one group.

    Returns, per (block index, variant), the variant's `SmtcnnModels`, or the
    first FaultlabError on its path: the one that training this block and
    variant alone would raise.
    """
    cfg = assets.cfg
    chunk_len = cfg.task3.chunk_len
    data = [assets.mixed.slice(start, start + length) for start, length, _ in blocks]
    xs = [block.features() for block in data]

    def propose(b: int, variant: str) -> _Shared:
        start, length, _ = blocks[b]
        segments, mask = block_proposals(assets, start, length, variant)
        return _Shared(Standardizer.fit(xs[b]), segments, mask)

    def with_task2(b: int, shared: _Shared, task2: SequenceClassifier) -> _Shared:
        inputs = build_task3_inputs(task2, shared.std, xs[b], shared.segments, shared.mask,
                                    chunk_len)
        return shared._replace(task2=task2, inputs=inputs)

    out: dict[tuple[int, str], Outcome] = {}
    shared: dict[tuple[int, bool], _Shared | FaultlabError] = {}  # per block, proposal choice
    for b in range(len(blocks)):
        for v in variants:
            use = variant_stages(v)
            if (use.cpd and assets.autoencoder is None) or (use.segclass
                                                            and assets.seg_model is None):
                out[b, v] = InvariantViolation(f"the assets lack a stage that variant {v} uses")
            elif (b, use.cpd) not in shared:
                shared[b, use.cpd] = attempt(propose, b, v)

    ready = [key for key, s in shared.items() if not isinstance(s, FaultlabError)]
    task2 = train_task2([(data[b], shared[b, c].mask, shared[b, c].std,
                          cfg.stage_seed("task2" + blocks[b][2])) for b, c in ready], cfg.task2)
    for (b, c), net in zip(ready, task2):
        shared[b, c] = net if isinstance(net, FaultlabError) else attempt(
            with_task2, b, shared[b, c], net)

    task3_sets = {}  # (block, variant) -> task 3's (inputs, labels, seed, warm start)
    for b in range(len(blocks)):
        for v in variants:
            if (b, v) in out:
                continue
            use = variant_stages(v)
            block = shared[b, use.cpd]
            bias = None
            if use.segclass and not isinstance(block, FaultlabError):
                bias = attempt(warm_start_bias, assets.seg_model, xs[b], block.segments, cfg.seg)
            failed = [e for e in (block, bias) if isinstance(e, FaultlabError)]
            if failed:
                out[b, v] = failed[0]
                continue
            task3_sets[b, v] = (block.inputs, data[b].fault_class,
                                cfg.stage_seed("task3" + blocks[b][2]), bias)

    task3 = train_task3(list(task3_sets.values()), cfg.task3)
    for (b, v), net in zip(task3_sets, task3):
        use = variant_stages(v)
        block = shared[b, use.cpd]
        out[b, v] = net if isinstance(net, FaultlabError) else SmtcnnModels(
            variant=v,
            autoencoder=assets.autoencoder if use.cpd else None,
            threshold=assets.threshold if use.cpd else None,
            seg_model=assets.seg_model if use.segclass else None,
            task2=block.task2, task3=net, std=block.std, cpd_cfg=cfg.cpd, seg_cfg=cfg.seg,
            chunk_len=chunk_len,
        )
    return out


def _run_fold(assets: ExperimentAssets, fold, models: SmtcnnModels,
              test_inputs: dict) -> dict[str, float]:
    """Score a fold's test block with the models trained on its train block.

    `test_inputs` caches the fold's test-block task-3 inputs per proposal
    choice.
    """
    key = variant_stages(models.variant).cpd
    if key not in test_inputs:
        test_inputs[key] = block_inputs(assets, models, fold.test_start, fold.test_len)
    pred = task3_predict(models.task3, test_inputs[key], models.chunk_len)
    truth = assets.mixed.fault_class[fold.test_start:fold.test_start + fold.test_len]
    return metrics(confusion(pred.classes, truth, classes=ALL_CLASSES))


def whole_stream_models(assets: ExperimentAssets, variants: tuple[str, ...],
                        ) -> dict[str, Outcome]:
    """Final deployable models per variant, trained on the whole mixed stream
    as one group, or the error that stopped a variant's training."""
    trained = train_task_nets(assets, [(0, len(assets.mixed), "")], variants)
    return {v: trained[0, v] for v in variants}


def train_whole(assets: ExperimentAssets, variant: str) -> SmtcnnModels:
    """Final deployable models for one variant, trained on the whole mixed stream."""
    return unwrap(whole_stream_models(assets, (variant,))[variant])


def default_plan(assets: ExperimentAssets) -> SeqCvPlan:
    pc = assets.cfg.plan
    return seq_cv_plan(len(assets.mixed), folds=pc.folds,
                       seed=assets.cfg.stage_seed("seqcv"),
                       lo=pc.len_frac_lo, hi=pc.len_frac_hi)


def run_all_variants(assets: ExperimentAssets, plan: SeqCvPlan) -> list[EvalReport]:
    return run_variants(assets, VARIANTS, plan)


def run_variants(assets: ExperimentAssets, variants: tuple[str, ...],
                 plan: SeqCvPlan | None = None) -> list[EvalReport]:
    for v in variants:
        variant_stages(v)
    if plan is None:
        plan = default_plan(assets)
    reports = {v: EvalReport(label=v) for v in variants}
    trained = train_task_nets(assets, [(fold.train_start, fold.train_len, f":fold{idx}")
                                       for idx, fold in enumerate(plan.folds)], variants)
    for idx, fold in enumerate(plan.folds):
        test_inputs: dict = {}
        for v in variants:
            try:
                reports[v].add_fold(_run_fold(assets, fold, unwrap(trained[idx, v]),
                                              test_inputs))
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
