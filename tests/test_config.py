import dataclasses
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from faultlab.config import (
    DESK_SIZES,
    PAPER_SIZES,
    RunConfig,
    SimConfig,
    derive_seed,
    load_run_config,
    save_run_config,
)
from faultlab.errors import ConfigError


def test_derive_seed_is_stable():
    # frozen: first 8 bytes of sha256(b"0:cpd"), big endian
    assert derive_seed(0, "cpd") == derive_seed(0, "cpd")
    assert derive_seed(0, "cpd") != derive_seed(1, "cpd")
    assert derive_seed(0, "cpd") != derive_seed(0, "segclass")


@given(st.integers(min_value=0, max_value=2**31), st.text(min_size=1, max_size=20))
def test_derive_seed_in_rng_range(seed, stage):
    child = derive_seed(seed, stage)
    assert 0 <= child < 2**64


def test_stage_seed_matches_derive_seed():
    cfg = RunConfig(seed=123)
    assert cfg.stage_seed("cpd") == derive_seed(123, "cpd")


def test_size_for_regimes():
    cfg = SimConfig()
    for regime, n in DESK_SIZES.items():
        assert cfg.size_for(regime) == n
    paper = SimConfig(paper_scale=True)
    for regime, n in PAPER_SIZES.items():
        assert paper.size_for(regime) == n
    assert SimConfig(n_points=77).size_for("mixed") == 77
    with pytest.raises(ConfigError):
        cfg.size_for("bogus")


def test_sim_validate_rejects_bad_values():
    with pytest.raises(ConfigError):
        SimConfig(fault_rate=1.5).validate()
    with pytest.raises(ConfigError):
        SimConfig(n_points=0).validate()
    with pytest.raises(ConfigError):
        SimConfig(n_devices=3).validate()  # baseline tuples are for 4
    for seed in (1.5, "x", True):
        with pytest.raises(ConfigError, match="seed must be an integer"):
            SimConfig(seed=seed).validate()


def test_run_config_round_trip(tmp_path):
    cfg = RunConfig(seed=5)
    cfg.sim.fault_rate = 0.11
    cfg.cpd.window = 24
    cfg.seg.kind = "naive_bayes"
    path = tmp_path / "run.json"
    save_run_config(cfg, path)
    back = load_run_config(path)
    assert back == cfg
    # tuples must survive the JSON round trip as tuples
    assert isinstance(back.sim.signatures.uv_floors_v, tuple)


def test_load_rejects_unknown_keys(tmp_path):
    path = tmp_path / "run.json"
    save_run_config(RunConfig(), path)
    text = path.read_text().replace('"seed"', '"sneed"', 1)
    path.write_text(text)
    with pytest.raises(ConfigError):
        load_run_config(path)


@pytest.mark.parametrize("section", ["cpd", "sim", "plan"])
def test_load_rejects_non_object_section(tmp_path, section):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({section: 5}))
    with pytest.raises(ConfigError, match=section):
        load_run_config(path)


def test_replace_keeps_nested_configs_independent():
    cfg = RunConfig()
    clone = dataclasses.replace(cfg, sim=dataclasses.replace(cfg.sim, fault_rate=0.5))
    assert cfg.sim.fault_rate != clone.sim.fault_rate


def test_quick_config_loads():
    cfg = load_run_config(Path(__file__).parents[1] / "configs" / "quick.json")
    assert cfg.sim.n_points == 6000
    assert (cfg.task2.max_epochs, cfg.task3.max_epochs) == (2, 2)
    assert (cfg.plan.folds, cfg.plan.min_valid_folds) == (3, 2)


@pytest.mark.parametrize("field,value", [("start_timestamp", 2**63 - 100),
                                         ("period_s", 2**62)])
def test_sim_validate_rejects_int64_timestamp_overflow(field, value):
    # 60 rows reach start_timestamp + 59 * period_s; the error names both fields
    cfg = SimConfig(n_points=60, **{field: value})
    with pytest.raises(ConfigError, match=r"start_timestamp .* period_s .* n = 60 rows"):
        cfg.validate()
    # the last timestamp may be 2**63 - 1 exactly
    start, period = SimConfig().start_timestamp, SimConfig().period_s
    fits = {"start_timestamp": 2**63 - 1 - 59 * period,
            "period_s": (2**63 - 1 - start) // 59}[field]
    SimConfig(n_points=60, **{field: fits}).validate()


def test_sim_validate_timestamp_span_uses_the_longest_regime():
    n = max(PAPER_SIZES.values())
    period = (2**63 - 1 - SimConfig().start_timestamp) // (n - 1)
    SimConfig(paper_scale=True, period_s=period).validate()
    with pytest.raises(ConfigError, match=f"n = {n} rows"):
        SimConfig(paper_scale=True, period_s=period + 1).validate()
    SimConfig(paper_scale=True, period_s=period + 1, n_points=n - 1).validate()


def _leaves(node, path=()):
    """Every scalar of a JSON document with its path, list items included."""
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _leaves(node[key], (*path, key))
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _leaves(item, (*path, i))
    else:
        yield path


NULLABLE = {("sim", "n_points"), ("sim", "mixed_classes"), ("seg", "rf_feature_frac"),
            ("task2", "rebalance_frac"), ("task3", "rebalance_frac")}


@pytest.mark.parametrize("value", ["x", math.nan, math.inf, -math.inf, 2**1024, None],
                         ids=["str", "nan", "inf", "-inf", "2**1024", "null"])
def test_every_config_leaf_rejects_a_wrong_value(tmp_path, value):
    """Setting any one leaf of the default config to a string, a number that
    is not finite as a float64 or null is a ConfigError, save `out_dir` (a
    string), the seeds (stage seeds hash any integer) and the leaves whose null
    means a default."""
    path = tmp_path / "run.json"
    save_run_config(RunConfig(), path)
    text = path.read_text()
    accepted = []
    for leaf in _leaves(json.loads(text)):
        mutated = json.loads(text)
        node = mutated
        for step in leaf[:-1]:
            node = node[step]
        node[leaf[-1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(mutated))
        try:
            load_run_config(bad)
        except ConfigError:
            continue
        accepted.append(leaf)
    want = {"x": [("out_dir",)], 2**1024: [("seed",), ("sim", "seed")], None: sorted(NULLABLE)}
    assert sorted(accepted) == want.get(value, [])
