"""Metric oracles, the sequential CV plan, and report rendering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faultlab.errors import InvariantViolation, ShapeMismatchError
from faultlab.evaluation import (
    METRIC_NAMES,
    REPORT_COLUMNS,
    ConfusionMatrix,
    EvalReport,
    confusion,
    format_cell,
    metrics,
    render_report,
    seq_cv_plan,
)


# --- confusion --------------------------------------------------------------


def test_confusion_counts():
    cm = confusion(preds=[1, 1, 2, 2, 1], truth=[1, 2, 2, 1, 1])
    assert cm.classes == [1, 2]
    # rows truth, cols predicted
    assert cm.counts.tolist() == [[2, 1], [1, 1]]
    assert cm.total == 5


def test_confusion_infers_sorted_class_union():
    cm = confusion(preds=[9, 2], truth=[2, 4])
    assert cm.classes == [2, 4, 9]


def test_confusion_errors():
    with pytest.raises(ShapeMismatchError):
        confusion([1, 2], [1])
    with pytest.raises(InvariantViolation):
        confusion([1, 3], [1, 1], classes=[1, 2])
    with pytest.raises(ShapeMismatchError):
        ConfusionMatrix(np.zeros((2, 3)), [1, 2])
    with pytest.raises(InvariantViolation):
        ConfusionMatrix(np.array([[1, -1], [0, 2]]), [1, 2])


def _confusion_loop(preds, truth, classes):
    """Per-label reference count, first out-of-set label in input order."""
    index = {c: i for i, c in enumerate(classes)}
    counts = np.zeros((len(classes), len(classes)), dtype=np.int64)
    for t, p in zip(truth, preds):
        for label in (t, p):
            if label not in index:
                return label
        counts[index[t], index[p]] += 1
    return counts


@settings(max_examples=60)
@given(st.lists(st.integers(-3, 40), min_size=1, max_size=8, unique=True),
       st.integers(0, 2**32 - 1), st.integers(0, 300), st.booleans())
def test_confusion_matches_loop(classes, seed, n, stray):
    # class lists with gaps, in any order; optionally some labels outside them
    rng = np.random.default_rng(seed)
    pool = classes + ([41, -4] if stray else [])
    preds, truth = rng.choice(pool, size=n), rng.choice(pool, size=n)
    want = _confusion_loop(preds.tolist(), truth.tolist(), classes)
    if isinstance(want, np.ndarray):
        cm = confusion(preds, truth, classes=classes)
        assert cm.classes == classes
        assert np.array_equal(cm.counts, want)
    else:
        with pytest.raises(InvariantViolation, match=rf"^label {want} outside"):
            confusion(preds, truth, classes=classes)


# --- metrics ----------------------------------------------------------------


def test_metrics_binary_oracle():
    # class 1 one-vs-rest: TP=2 FP=1 FN=1 TN=6
    cm = ConfusionMatrix(np.array([[6, 1], [1, 2]]), classes=[0, 1])
    m = metrics(cm)
    # per-class values: (6/7, 2/3) precision, recall mirrors, spec swaps
    assert m["balanced_accuracy"] == pytest.approx(16 / 21, abs=1e-15)
    assert m["precision"] == pytest.approx(16 / 21, abs=1e-15)
    assert m["recall"] == m["balanced_accuracy"]
    assert m["specificity"] == pytest.approx(16 / 21, abs=1e-15)
    assert m["f1"] == pytest.approx(16 / 21, abs=1e-15)
    assert m["balanced_accuracy"] == pytest.approx(0.7619047619047619, abs=1e-15)


def test_metrics_skip_absent_truth_classes():
    counts = np.zeros((3, 3), dtype=int)
    counts[0, 0] = 4
    counts[1, 1] = 3
    counts[0, 1] = 1
    # class 7 never occurs in truth: metrics must match the 2-class reduction
    wide = metrics(ConfusionMatrix(counts, classes=[1, 2, 7]))
    narrow = metrics(ConfusionMatrix(counts[:2, :2], classes=[1, 2]))
    for name in METRIC_NAMES:
        assert wide[name] == pytest.approx(narrow[name], abs=1e-15)


def test_metrics_empty_denominator_contributes_zero():
    # class 2 never predicted: precision 0/0 -> 0; class 1 never negative
    m = metrics(confusion(preds=[1, 1, 1], truth=[1, 1, 2]))
    assert m["precision"] == pytest.approx((2 / 3 + 0.0) / 2, abs=1e-15)
    assert m["balanced_accuracy"] == pytest.approx(0.5, abs=1e-15)
    assert m["specificity"] == pytest.approx(0.5, abs=1e-15)
    assert m["f1"] == pytest.approx((4 / 5) / 2, abs=1e-15)


def test_metrics_reject_empty_matrix():
    with pytest.raises(InvariantViolation):
        metrics(ConfusionMatrix(np.zeros((2, 2), dtype=int), [1, 2]))


def _brute_force(counts: np.ndarray) -> dict:
    """Straight-line macro metrics used as an independent reference."""
    total = counts.sum()
    vals = {"precision": [], "recall": [], "specificity": [], "f1": []}
    for i in range(counts.shape[0]):
        if counts[i].sum() == 0:
            continue
        tp = counts[i, i]
        fp = counts[:, i].sum() - tp
        fn = counts[i].sum() - tp
        tn = total - tp - fp - fn
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        s = tn / (tn + fp) if tn + fp else 0.0
        vals["precision"].append(p)
        vals["recall"].append(r)
        vals["specificity"].append(s)
        vals["f1"].append(2 * p * r / (p + r) if p + r else 0.0)
    out = {k: float(np.mean(v)) for k, v in vals.items()}
    out["balanced_accuracy"] = out["recall"]
    return out


@settings(max_examples=120)
@given(st.integers(2, 4), st.integers(0, 2 ** 31 - 1))
def test_metrics_match_brute_force(n_classes, seed):
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 30, size=(n_classes, n_classes))
    if counts.sum() == 0:
        counts[0, 0] = 1
    got = metrics(ConfusionMatrix(counts, classes=list(range(1, n_classes + 1))))
    want = _brute_force(counts)
    for name in METRIC_NAMES:
        assert got[name] == pytest.approx(want[name], abs=1e-12)


# --- sequential CV plan -----------------------------------------------------


@pytest.mark.parametrize("total,seed", [(100, 0), (2000, 3), (50001, 9)])
def test_seq_cv_plan_contract(total, seed):
    plan = seq_cv_plan(total, folds=10, seed=seed)
    half = total // 2
    size2 = total - half
    assert len(plan.folds) == 10
    for f in plan.folds:
        assert 0 <= f.train_start and f.train_start + f.train_len <= half
        assert half <= f.test_start and f.test_start + f.test_len <= total
        assert np.ceil(0.5 * half) <= f.train_len <= np.floor(0.8 * half)
        assert np.ceil(0.5 * size2) <= f.test_len <= np.floor(0.8 * size2)


def test_seq_cv_plan_deterministic():
    a = seq_cv_plan(500, seed=4)
    b = seq_cv_plan(500, seed=4)
    c = seq_cv_plan(500, seed=5)
    assert a == b
    assert a != c


def test_seq_cv_plan_too_small():
    with pytest.raises(InvariantViolation):
        seq_cv_plan(19)


# --- reports ------------------------------------------------------------------


def test_format_cell_frozen():
    assert format_cell(0.979428, 0.0123) == "97.9±.01"
    assert format_cell(1.0, 0.0) == "100±.00"
    assert format_cell(0.5, 1.234) == "50±1.23"
    assert format_cell(0.08532, 0.234) == "8.53±.23"


def test_report_mean_and_population_std():
    rep = EvalReport(label="full")
    rep.add_fold({m: 0.8 for m in METRIC_NAMES})
    rep.add_fold({m: 0.6 for m in METRIC_NAMES})
    assert rep.mean["f1"] == pytest.approx(0.7, abs=1e-15)
    # population std of {0.8, 0.6} is exactly 0.1
    assert rep.std["f1"] == pytest.approx(0.1, abs=1e-15)


def test_report_requires_folds():
    with pytest.raises(InvariantViolation):
        EvalReport(label="empty").mean


def test_render_and_parse_round_trip(tmp_path):
    rep = EvalReport(label="full")
    rep.add_fold({m: 0.912 for m in METRIC_NAMES})
    rep.add_fold({m: 0.944 for m in METRIC_NAMES})
    text = render_report([rep], fmt="csv", path=tmp_path / "report.csv")
    assert text.splitlines()[0] == "variant,Accuracy,Precision,Recall,Specificity,F1"
    assert (tmp_path / "report.csv").read_text() == text

    # mean 92.8 percent to 3 significant digits, population std 0.016 to 2 places
    assert text.splitlines()[1:] == ["full," + ",".join(["92.8±.02"] * 5)]


def test_render_markdown_layout():
    rep = EvalReport(label="b2")
    rep.add_fold({m: 1.0 for m in METRIC_NAMES})
    text = render_report([rep], fmt="markdown")
    lines = text.splitlines()
    assert lines[0] == "| variant | Accuracy | Precision | Recall | Specificity | F1 |"
    assert lines[2].startswith("| b2 | 100±.00 |")
    with pytest.raises(InvariantViolation):
        render_report([rep], fmt="latex")


def test_report_columns_constant():
    assert REPORT_COLUMNS == ("Accuracy", "Precision", "Recall", "Specificity", "F1")
