"""Experiment assembly: which shared stages a variant list builds and needs."""

import pytest

from faultlab.config import RunConfig
from faultlab.errors import InvariantViolation
from faultlab.experiment import ExperimentAssets, train_task_nets


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
