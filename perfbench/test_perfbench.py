"""Tests of the benchmark's own logic.

    python3 -m pytest -q perfbench
"""

import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from stats import tail_percentile  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402


def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds a1 [2, 3]) and b [5, 9]
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    assert self_times(start, end, parent).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_tracer_self_time_per_unit_and_name():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 5.0, 6.0, 10.0, 20.0, 21.0, 23.0])
    tracer = Tracer(clock=lambda: next(ticks))
    root = tracer.open("root")        # 0
    leaf = tracer.open("leaf")        # 1
    tracer.close(leaf)                # 2
    leaf = tracer.open("leaf")        # 3
    tracer.count("leaf", "rows", 7)
    tracer.close(leaf)                # 5
    tracer.close(root)                # 6
    tracer.unit = 1
    root = tracer.open("root")        # 10
    leaf = tracer.open("leaf")        # 20
    tracer.close(leaf)                # 21
    tracer.close(root)                # 23
    summary = tracer.summary()
    assert summary[0] == {"root.self_s": 3.0, "leaf.self_s": 3.0, "leaf.rows": 7}
    assert summary[1] == {"root.self_s": 12.0, "leaf.self_s": 1.0}


@pytest.mark.parametrize("n, percentile, rank", [(11, 100 / 11, 1), (20, 50.0, 10),
                                                 (32, 68.75, 22), (100, 90.0, 90)])
def test_tail_percentile_keeps_ten_samples_beyond(n, percentile, rank):
    values = list(np.random.default_rng(n).permutation(np.arange(1.0, n + 1)))
    pct, value = tail_percentile(values)
    assert pct == pytest.approx(percentile)
    assert value == rank
    assert sum(v > value for v in values) == 10


def test_tail_percentile_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail_percentile(range(10))


def _inputs(seed):
    cascade_cfg = workloads.cascade_config(seed)
    lengths = workloads.request_lengths(seed, ((6, 50, 200), (2, 300, 400)))
    return {
        **{f"cpd:{k}": v for k, v in workloads.cpd_inputs(seed).items()},
        **{f"cascade:{k}": v for k, v in
           workloads.regime_inputs(cascade_cfg, workloads.CASCADE_ROWS).items()},
        **{f"request:{i}": ds for i, ds in
           enumerate(workloads.request_datasets(seed, "request", lengths))},
    }, lengths, cascade_cfg


def test_same_seed_same_inputs_other_seed_other_inputs():
    a, len_a, cfg_a = _inputs(3)
    b, len_b, cfg_b = _inputs(3)
    c, len_c, cfg_c = _inputs(4)
    assert cfg_a == cfg_b and cfg_a != cfg_c
    assert np.array_equal(len_a, len_b) and not np.array_equal(len_a, len_c)
    for key in a:
        assert a[key] == b[key], key
        assert not np.array_equal(a[key].energy[:50], c[key].energy[:50]), key


def test_request_lengths_one_per_stratum_whatever_the_seed():
    mix = workloads.SERVE_MIX
    for seed in (0, 1):
        lengths = np.sort(workloads.request_lengths(seed, mix))
        start = 0
        for n, lo, hi in mix:
            edges = np.exp(np.linspace(np.log(lo), np.log(hi), n + 1))
            group = lengths[start:start + n]
            assert np.all((edges[:-1] - 0.5 <= group) & (group <= edges[1:] + 0.5))
            start += n
        assert start == len(lengths)
