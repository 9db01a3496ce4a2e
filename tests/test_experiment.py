"""Experiment assembly: which shared stages a variant list builds and needs,
and the one cascade path that CV folds and `smtcnn_infer` share."""

import dataclasses
import warnings

import pytest
from test_acceptance import _tiny_run_config

from faultlab.cascade import VARIANTS, smtcnn_infer, task3_predict
from faultlab.config import RunConfig, load_run_config
from faultlab.errors import FaultlabError, InvariantViolation, unwrap
from faultlab.evaluation import FoldPlan, SeqCvPlan, confusion, metrics
from faultlab.experiment import (
    ALL_CLASSES,
    ExperimentAssets,
    block_inputs,
    build_assets,
    run_variants,
    train_task_nets,
    train_whole,
    whole_stream_models,
)


@pytest.mark.parametrize("variant,stage", [("full", "cpd"), ("b3_no_segclass", "cpd"),
                                           ("full", "seg"), ("b2_no_cpd", "seg")])
def test_train_task_nets_rejects_assets_missing_a_stage(normal_small, anomaly_small,
                                                        mixed_small, variant, stage):
    # stand-ins: only the presence of each shared stage is checked
    cpd = (object(), object()) if stage == "seg" else (None, None)
    seg = object() if stage == "cpd" else None
    assets = ExperimentAssets(RunConfig(), normal_small, anomaly_small, mixed_small,
                              *cpd, seg, None)
    [(key, result)] = train_task_nets(assets, [(0, len(mixed_small), "")], (variant,)).items()
    assert key == (0, variant)
    assert isinstance(result, InvariantViolation) and variant in str(result)
    with pytest.raises(InvariantViolation, match=variant):
        train_whole(assets, variant)


@pytest.fixture(scope="module")
def tiny_assets(tmp_path_factory):
    return build_assets(load_run_config(_tiny_run_config(tmp_path_factory.mktemp("tiny"))))


@pytest.mark.parametrize("variant", VARIANTS)
def test_smtcnn_infer_matches_the_fold_path(tiny_assets, variant):
    # smtcnn_infer recomputes the errors that a fold slices from mixed_errors;
    # over the block [0, T) both paths must give the same bytes.
    models = train_whole(tiny_assets, variant)
    whole = smtcnn_infer(tiny_assets.mixed, models)
    inputs = block_inputs(tiny_assets, models, 0, len(tiny_assets.mixed))
    fold = task3_predict(models.task3, inputs, models.chunk_len)
    assert whole.probs.tobytes() == fold.probs.tobytes()
    assert whole.classes.tobytes() == fold.classes.tobytes()


def test_a_degenerate_task2_fold_is_skipped_as_block_by_block(tiny_assets):
    # Zero errors flag no window of fold 1's train block, so its task 2 has no
    # proposed segment: full and b3_no_segclass skip fold 1, b2_no_cpd keeps
    # it, and every other cell scores as training that fold and variant alone.
    assets = dataclasses.replace(tiny_assets, mixed_errors=tiny_assets.mixed_errors.copy())
    window = assets.cfg.cpd.window
    assets.mixed_errors[700:700 + 600 - window + 1] = 0.0
    plan = SeqCvPlan(total=len(assets.mixed), seed=0, folds=[
        FoldPlan(0, 600, 2000, 900), FoldPlan(700, 600, 2600, 900),
        FoldPlan(1400, 600, 3100, 900)])

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        reports = run_variants(assets, VARIANTS, plan)
    degenerate = "no proposed segments; cannot train task 2"
    assert [str(w.message) for w in caught] == [
        f"fold 1 failed for full: {degenerate}", f"fold 1 failed for b3_no_segclass: {degenerate}"]
    assert [r.skipped_folds for r in reports] == [[1], [], [1]]

    expect = {v: [] for v in VARIANTS}
    for idx, fold in enumerate(plan.folds):
        for v in VARIANTS:
            [alone] = train_task_nets(assets, [(fold.train_start, fold.train_len, f":fold{idx}")],
                                      (v,)).values()
            if isinstance(alone, FaultlabError):
                assert (idx, v in ("full", "b3_no_segclass"), str(alone)) == (1, True, degenerate)
                continue
            inputs = block_inputs(assets, alone, fold.test_start, fold.test_len)
            pred = task3_predict(alone.task3, inputs, alone.chunk_len)
            truth = assets.mixed.fault_class[fold.test_start:fold.test_start + fold.test_len]
            expect[v].append(metrics(confusion(pred.classes, truth, classes=ALL_CLASSES)))
    assert [r.fold_metrics for r in reports] == [expect[v] for v in VARIANTS]


def test_whole_stream_variants_share_one_task2_net(tiny_assets):
    # full and b3_no_segclass propose the same segments: one task-2 net, trained once
    models = {v: unwrap(m) for v, m in whole_stream_models(tiny_assets, VARIANTS).items()}
    assert models["full"].task2 is models["b3_no_segclass"].task2
    assert models["full"].task2 is not models["b2_no_cpd"].task2
    alone = train_whole(tiny_assets, "b3_no_segclass")
    for a, b in zip(alone.task2.param_arrays() + alone.task3.param_arrays(),
                    models["b3_no_segclass"].task2.param_arrays()
                    + models["b3_no_segclass"].task3.param_arrays()):
        assert a.tobytes() == b.tobytes()
