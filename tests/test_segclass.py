"""Windowed features and the six from-scratch segment classifiers."""

import numpy as np
import pytest

from faultlab.config import SegclassConfig
from faultlab.errors import DegenerateDataError, InvariantViolation, ShapeMismatchError
from faultlab.nncore import Standardizer, load_checkpoint, save_checkpoint
from faultlab.segclass import (
    FEATURE_NAMES,
    KINDS,
    ClassifierModel,
    WindowFeatures,
    predict_batch,
    scores_batch,
    to_checkpoint,
    train_classifier,
    window_stats,
    windowize,
)
from faultlab.segclass import _LinearImpl
from faultlab.simgen import TimeSeriesDataset
from oracles import crossval_10fold, stratified_folds


def make_blobs(seed=0, n_per=60, d=15):
    """Three well-separated gaussian blobs with non-contiguous class ids."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 5.0, size=(3, d))
    feats = np.vstack([c + 0.3 * rng.standard_normal((n_per, d)) for c in centers])
    labels = np.repeat([2, 5, 9], n_per)
    return WindowFeatures(feats, labels, names=[f"f{i}" for i in range(d)])


@pytest.fixture(scope="module")
def blobs():
    return make_blobs(seed=11)


# --- features ---------------------------------------------------------------


def test_window_stats_oracle():
    win = np.array([0.0, 1.0, 2.0, 3.0]).reshape(1, 4, 1)
    row = window_stats(win)[0]
    assert row[0] == 1.5
    assert row[1] == pytest.approx(np.sqrt(1.25), abs=1e-15)
    assert row[2] == 0.0
    assert row[3] == 3.0
    # unit-spaced increasing ramp has least-squares slope exactly 1
    assert row[4] == pytest.approx(1.0, abs=1e-12)


def test_window_stats_constant_window():
    row = window_stats(np.full((1, 7, 1), 4.25))[0]
    assert row.tolist() == [4.25, 0.0, 4.25, 4.25, 0.0]


def test_window_stats_channel_layout():
    # second channel's block of five starts at feature index 5
    win = np.zeros((1, 4, 2))
    win[0, :, 1] = [0.0, 1.0, 2.0, 3.0]
    row = window_stats(win)
    assert row.shape == (1, 10)
    assert row[0, :5].tolist() == [0, 0, 0, 0, 0]
    assert row[0, 5] == 1.5


def test_window_stats_rejects_flat_input():
    with pytest.raises(ShapeMismatchError):
        window_stats(np.zeros((5, 4)))


def test_feature_names():
    assert len(FEATURE_NAMES) == 15
    assert FEATURE_NAMES[0] == "energy_mean"
    assert FEATURE_NAMES[-1] == "duration_slope"


def _tiny_dataset(fault_class):
    n = len(fault_class)
    return TimeSeriesDataset(
        timestamps=np.arange(n, dtype=np.int64),
        energy=np.linspace(40.0, 41.0, n),
        cpu=np.full(n, 0.3),
        duration=np.full(n, 0.21),
        anomaly=np.asarray(fault_class) != 12,
        fault_class=np.asarray(fault_class, dtype=np.int64),
        regime="mixed",
    )


def test_windowize_majority_label_and_ties():
    ds = _tiny_dataset([12, 12, 3, 3, 3, 12])
    rows = windowize(ds, window=4, stride=2)
    # first window splits 2/2 between 3 and 12; tie goes to the lowest id
    assert rows.labels.tolist() == [3, 3]
    assert rows.features.shape == (2, 15)
    assert rows.names == list(FEATURE_NAMES)


def test_windowize_validation():
    ds = _tiny_dataset([12] * 6)
    with pytest.raises(InvariantViolation):
        windowize(ds, window=0, stride=1)
    with pytest.raises(InvariantViolation):
        windowize(ds, window=4, stride=0)
    with pytest.raises(ShapeMismatchError):
        windowize(ds, window=7, stride=1)


# --- classifiers ------------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
def test_kind_separates_blobs(kind, blobs):
    model = train_classifier(kind, blobs, seed=4)
    preds, scores = predict_batch(model, blobs.features)
    assert scores.shape == (len(blobs), 3)
    assert set(preds.tolist()) <= {2, 5, 9}
    assert np.mean(preds == blobs.labels) >= 0.98


@pytest.mark.parametrize("kind", KINDS)
def test_kind_deterministic(kind, blobs):
    a = scores_batch(train_classifier(kind, blobs, seed=9), blobs.features)
    b = scores_batch(train_classifier(kind, blobs, seed=9), blobs.features)
    assert np.array_equal(a, b)


def test_forest_seed_changes_bootstrap(blobs):
    a = scores_batch(train_classifier("random_forest", blobs, seed=1), blobs.features)
    b = scores_batch(train_classifier("random_forest", blobs, seed=2), blobs.features)
    assert not np.array_equal(a, b)


def test_tie_breaks_to_lowest_class():
    zero = _LinearImpl(w=np.zeros((2, 3)), b=np.zeros(2),
                       std=Standardizer(np.zeros(3), np.ones(3)))
    model = ClassifierModel(kind="sgd_linear", classes=np.array([3, 7]), impl=zero)
    preds, _ = predict_batch(model, np.ones((4, 3)))
    assert preds.tolist() == [3, 3, 3, 3]


def test_degenerate_inputs():
    empty = WindowFeatures(np.zeros((0, 15)), np.zeros(0, dtype=np.int64))
    with pytest.raises(DegenerateDataError):
        train_classifier("decision_tree", empty)
    single = WindowFeatures(np.random.default_rng(0).normal(size=(8, 15)),
                            np.full(8, 4, dtype=np.int64))
    with pytest.raises(DegenerateDataError):
        train_classifier("decision_tree", single)
    with pytest.raises(InvariantViolation):
        train_classifier("xgboost", make_blobs(n_per=5))
    with pytest.raises(InvariantViolation):
        ClassifierModel(kind="xgboost", classes=np.array([1, 2]), impl=None)


# --- scoring formulas (inspectability) ----------------------------------------


def test_naive_bayes_scores_match_formula(blobs):
    model = train_classifier("naive_bayes", blobs, seed=0)
    impl = model.impl
    x = blobs.features[:8]
    want = np.empty((8, 3))
    for c in range(3):
        ll = -0.5 * (np.log(2 * np.pi * impl.var[c]) + (x - impl.mu[c]) ** 2 / impl.var[c])
        want[:, c] = impl.log_prior[c] + ll.sum(axis=1)
    assert np.allclose(scores_batch(model, x), want, atol=0, rtol=1e-14)


def test_linear_scores_match_formula(blobs):
    model = train_classifier("logistic_regression", blobs, seed=0)
    impl = model.impl
    x = blobs.features[:8]
    want = ((x - impl.std.mu) / impl.std.sd) @ impl.w.T + impl.b
    assert np.allclose(scores_batch(model, x), want, atol=0, rtol=1e-14)


# --- persistence ----------------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
def test_checkpoint_round_trip(kind, blobs, tmp_path):
    # nothing in the product reads the file back; criterion 8 re-scores its raw arrays
    ckpt = to_checkpoint(train_classifier(kind, blobs, seed=6))
    path = tmp_path / f"{kind}.json"
    save_checkpoint(ckpt, path)
    back = load_checkpoint(path, expect_kind="segclass")
    assert back.meta == ckpt.meta
    assert sorted(back.arrays) == sorted(ckpt.arrays)
    for name, arr in ckpt.arrays.items():
        got = back.arrays[name]
        assert (got.dtype, got.shape, got.tobytes()) == (arr.dtype, arr.shape, arr.tobytes()), name


def _column_rows(col, values, labels):
    """15-feature rows that are zero except in column `col`."""
    x = np.zeros((len(values), len(FEATURE_NAMES)))
    x[:, col] = values
    return WindowFeatures(x, np.array(labels))


# Pre-order node arrays, checked by hand. Depth 2: the root cuts x0 at 3.5
# (Gini gain 0.375 against 0.292 at 1.5); its left subtree {1, 1, 2, 2} is
# cut again at 1.5 and comes before the pure right leaf.
@pytest.mark.parametrize("col,values,labels,want", [
    (5, [0, 1, 2, 3], [4, 4, 7, 7],
     {"feat": [5, -1, -1], "thr": [1.5, 0.0, 0.0], "left": [1, -1, -1], "right": [2, -1, -1],
      "dist": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]}),
    (0, range(8), [1, 1, 2, 2, 3, 3, 3, 3],
     {"feat": [0, 0, -1, -1, -1], "thr": [3.5, 1.5, 0.0, 0.0, 0.0],
      "left": [1, 2, -1, -1, -1], "right": [4, 3, -1, -1, -1],
      "dist": [[0.0] * 3, [0.0] * 3, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}),
], ids=["stump", "depth2"])
def test_tree_checkpoint_arrays_exact(col, values, labels, want):
    ckpt = to_checkpoint(train_classifier("decision_tree", _column_rows(col, values, labels)))
    assert ckpt.meta["n_trees"] == 1
    assert sorted(ckpt.arrays) == ["classes", *(f"t0_{name}" for name in sorted(want))]
    for name, values in want.items():
        assert ckpt.arrays[f"t0_{name}"].tolist() == values
    for name in ("feat", "left", "right"):
        assert ckpt.arrays[f"t0_{name}"].dtype == np.int64


def test_forest_trees_are_preorder_arrays(blobs):
    model = train_classifier("random_forest", blobs, seed=3)
    for tree in model.impl.trees:
        leaf = tree.left == -1
        order = []

        def visit(i):
            order.append(i)
            if not leaf[i]:
                visit(tree.left[i])
                visit(tree.right[i])

        visit(0)
        assert order == list(range(len(tree.feat)))
        assert np.all(tree.right[leaf] == -1) and np.all(tree.feat[leaf] == -1)
        assert np.all(tree.thr[leaf] == 0.0)
        assert np.all(tree.dist[~leaf] == 0.0)
        assert np.allclose(tree.dist[leaf].sum(axis=1), 1.0, rtol=0, atol=1e-12)


# --- cross-validation -------------------------------------------------------


def test_stratified_folds_balanced():
    labels = np.repeat([1, 2, 3], [40, 25, 10])
    fold_of = stratified_folds(labels, 10, np.random.default_rng(3))
    sizes = np.bincount(fold_of, minlength=10)
    assert sizes.max() - sizes.min() <= 1
    for c in (1, 2, 3):
        per = np.bincount(fold_of[labels == c], minlength=10)
        assert per.max() - per.min() <= 1


def test_crossval_requires_enough_rows():
    rows = make_blobs(n_per=3)
    with pytest.raises(DegenerateDataError):
        crossval_10fold(rows, "decision_tree", n_folds=10)


def test_crossval_on_blobs(blobs):
    report = crossval_10fold(blobs, "decision_tree", seed=1)
    assert len(report.fold_metrics) == 10
    assert report.mean["balanced_accuracy"] >= 0.95
