"""Experiment assembly: which shared stages a variant list builds and needs,
and the one cascade path that CV folds and `smtcnn_infer` share."""

import pytest
from test_acceptance import _tiny_run_config

from faultlab.cascade import VARIANTS, smtcnn_infer, task3_predict
from faultlab.config import RunConfig, load_run_config
from faultlab.errors import InvariantViolation
from faultlab.experiment import (
    ExperimentAssets,
    block_inputs,
    build_assets,
    train_task_nets,
    train_whole,
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
    with pytest.raises(InvariantViolation, match=variant):
        train_task_nets(assets, 0, len(mixed_small), variant, "", {})


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
