"""Classical supervised classifiers over windowed segment features.

Windows of the three channels are summarized as (mean, std, min, max, slope)
per channel, 15 features total. Six classifier kinds are implemented from
scratch so that training is deterministic per seed, scoring formulas are
inspectable, and all kinds share the text checkpoint schema.

Prediction is always argmax over per-class scores with ties broken toward
the lowest class id.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .changepoint import sliding_windows
from .config import KINDS, SegclassConfig
from .errors import DegenerateDataError, InvariantViolation, ShapeMismatchError
from .nncore import Checkpoint, Standardizer
from .nncore.layers import softmax
from .simgen import TimeSeriesDataset

CHANNEL_NAMES = ("energy", "cpu", "duration")
STAT_NAMES = ("mean", "std", "min", "max", "slope")
FEATURE_NAMES = [f"{ch}_{st}" for ch in CHANNEL_NAMES for st in STAT_NAMES]


@dataclass
class WindowFeatures:
    """A feature table: one row per window position."""

    features: np.ndarray        # (n, 15)
    labels: np.ndarray          # (n,) fault classes 1..11
    names: list[str] = field(default_factory=lambda: list(FEATURE_NAMES))

    def __len__(self) -> int:
        return len(self.features)


def window_stats(windows: np.ndarray) -> np.ndarray:
    """(n, W, 3) stacked windows -> (n, 15) feature rows."""
    if windows.ndim != 3:
        raise ShapeMismatchError(f"expected (n, W, C) windows, got {windows.shape}")
    n, w, c = windows.shape
    t = np.arange(w) - (w - 1) / 2.0
    denom = float(np.sum(t * t)) if w > 1 else 1.0
    cols = []
    for ch in range(c):
        x = windows[:, :, ch]
        mean = x.mean(axis=1)
        cols += [
            mean,
            x.std(axis=1),
            x.min(axis=1),
            x.max(axis=1),
            (x - mean[:, None]) @ t / denom,
        ]
    return np.column_stack(cols)


def windowize_features(x: np.ndarray, window: int, stride: int) -> np.ndarray:
    """(T, 3) matrix -> one feature row per window position, every `stride`
    steps; a window longer than the series raises ShapeMismatchError."""
    if window < 1 or stride < 1:
        raise InvariantViolation("window and stride must be >= 1")
    return window_stats(sliding_windows(x, window)[::stride])


def windowize(dataset: TimeSeriesDataset, window: int, stride: int) -> WindowFeatures:
    """Feature row per window position; label = majority fault class."""
    feats = windowize_features(dataset.features(), window, stride)
    labels = np.empty(len(feats), dtype=np.int64)
    for i in range(len(feats)):
        s = i * stride
        vals, counts = np.unique(dataset.fault_class[s:s + window], return_counts=True)
        labels[i] = int(vals[np.argmax(counts)])  # ties -> lowest class id
    return WindowFeatures(feats, labels)


# --- decision tree ----------------------------------------------------------

@dataclass
class _Tree:
    """A tree as pre-order node arrays: a node, its left subtree, its right.

    Inner node i sends a row to left[i] if x[feat[i]] <= thr[i], else to
    right[i], and has an all-zero dist row. A leaf has feat = -1, thr = 0.0,
    left = right = -1 and its class distribution in dist. The checkpoint
    stores these arrays under the same names.
    """

    feat: np.ndarray   # (n,) int64
    thr: np.ndarray    # (n,) float
    left: np.ndarray   # (n,) int64
    right: np.ndarray  # (n,) int64
    dist: np.ndarray   # (n, C) float


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return 1.0 - float(np.sum(p * p))


def _best_split(x: np.ndarray, y_idx: np.ndarray, n_classes: int,
                feature_ids: np.ndarray) -> tuple[float, int, float] | None:
    """Greedy Gini split. Returns (impurity decrease, feature, threshold).

    Gains for all cut positions of one feature are computed at once from
    prefix class counts; ties keep the first (lowest feature id, lowest
    threshold) candidate so growth is deterministic.
    """
    n = len(y_idx)
    if n < 2:
        return None
    parent_counts = np.bincount(y_idx, minlength=n_classes)
    parent_gini = _gini(parent_counts)
    best = None
    nl = np.arange(1, n, dtype=float)
    nr = n - nl
    for f in feature_ids:
        order = np.argsort(x[:, f], kind="stable")
        xf = x[order, f]
        valid = xf[1:] > xf[:-1]  # only cuts between distinct values
        if not np.any(valid):
            continue
        onehot = np.zeros((n, n_classes))
        onehot[np.arange(n), y_idx[order]] = 1.0
        prefix = np.cumsum(onehot, axis=0)[:-1]
        left_gini = 1.0 - np.sum((prefix / nl[:, None]) ** 2, axis=1)
        right_gini = 1.0 - np.sum(((parent_counts - prefix) / nr[:, None]) ** 2, axis=1)
        gain = parent_gini - (nl * left_gini + nr * right_gini) / n
        gain[~valid] = -np.inf
        i = int(np.argmax(gain))
        if best is None or gain[i] > best[0] + 1e-12:
            best = (float(gain[i]), int(f), 0.5 * float(xf[i] + xf[i + 1]))
    return best


def _grow_tree(x: np.ndarray, y_idx: np.ndarray, n_classes: int, cfg: SegclassConfig,
               rng: np.random.Generator | None, n_feats: int | None) -> _Tree:
    nodes: list[list] = []  # [feat, thr, left, right, dist] per node, in pre-order

    def grow(x: np.ndarray, y_idx: np.ndarray, depth: int) -> int:
        counts = np.bincount(y_idx, minlength=n_classes).astype(float)
        split = None
        if (depth < cfg.dt_max_depth and len(y_idx) > cfg.dt_min_leaf
                and np.count_nonzero(counts) > 1):
            d = x.shape[1]
            if n_feats is not None and n_feats < d:
                feature_ids = np.sort(rng.choice(d, size=n_feats, replace=False))
            else:
                feature_ids = np.arange(d)
            split = _best_split(x, y_idx, n_classes, feature_ids)
        node = len(nodes)
        if split is None or split[0] <= 1e-12:
            nodes.append([-1, 0.0, -1, -1, counts / counts.sum()])
            return node
        _, f, thr = split
        nodes.append([f, thr, -1, -1, np.zeros(n_classes)])
        mask = x[:, f] <= thr
        nodes[node][2] = grow(x[mask], y_idx[mask], depth + 1)
        nodes[node][3] = grow(x[~mask], y_idx[~mask], depth + 1)
        return node

    grow(x, y_idx, 0)
    feat, thr, left, right, dist = zip(*nodes)
    return _Tree(np.array(feat, dtype=np.int64), np.array(thr, dtype=float),
                 np.array(left, dtype=np.int64), np.array(right, dtype=np.int64),
                 np.array(dist, dtype=float))


def _tree_scores(tree: _Tree, x: np.ndarray) -> np.ndarray:
    """Leaf distribution per row; every live row moves down one level per pass."""
    node = np.zeros(len(x), dtype=np.int64)
    live = np.nonzero(tree.left[node] >= 0)[0]
    while len(live):
        at = node[live]
        goes_left = x[live, tree.feat[at]] <= tree.thr[at]
        node[live] = np.where(goes_left, tree.left[at], tree.right[at])
        live = live[tree.left[node[live]] >= 0]
    return tree.dist[node]


@dataclass
class _ForestImpl:
    trees: list[_Tree]  # a decision tree is a forest of one


@dataclass
class _NbImpl:
    mu: np.ndarray         # (C, d)
    var: np.ndarray        # (C, d)
    log_prior: np.ndarray  # (C,)


@dataclass
class _LinearImpl:
    w: np.ndarray          # (C, d), applies to standardized features
    b: np.ndarray          # (C,)
    std: Standardizer


@dataclass
class ClassifierModel:
    kind: str
    classes: np.ndarray
    impl: object

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvariantViolation(f"unknown classifier kind {self.kind!r}")


def train_classifier(kind: str, rows: WindowFeatures, cfg: SegclassConfig,
                     seed: int) -> ClassifierModel:
    if kind not in KINDS:
        raise InvariantViolation(f"unknown classifier kind {kind!r}")
    x = np.asarray(rows.features, dtype=float)
    y = np.asarray(rows.labels)
    if len(x) == 0:
        raise DegenerateDataError("no training rows")
    classes = np.unique(y)
    if len(classes) < 2:
        raise DegenerateDataError(f"single-class training set (class {classes[0]})")
    y_idx = np.searchsorted(classes, y)
    n_classes = len(classes)
    rng = np.random.default_rng(seed)

    if kind == "decision_tree":
        impl: object = _ForestImpl([_grow_tree(x, y_idx, n_classes, cfg, None, None)])
    elif kind == "random_forest":
        if cfg.rf_feature_frac is None:
            n_feats = max(1, int(round(np.sqrt(x.shape[1]))))
        else:
            n_feats = max(1, int(round(cfg.rf_feature_frac * x.shape[1])))
        trees = []
        for _ in range(cfg.rf_trees):
            if cfg.rf_bootstrap:
                take = rng.integers(0, len(x), size=len(x))
            else:
                take = np.arange(len(x))
            trees.append(_grow_tree(x[take], y_idx[take], n_classes, cfg, rng, n_feats))
        impl = _ForestImpl(trees)
    elif kind == "naive_bayes":
        mu = np.empty((n_classes, x.shape[1]))
        var = np.empty_like(mu)
        prior = np.empty(n_classes)
        for c in range(n_classes):
            xc = x[y_idx == c]
            mu[c] = xc.mean(axis=0)
            var[c] = np.maximum(xc.var(axis=0), cfg.nb_var_floor)
            prior[c] = len(xc) / len(x)
        impl = _NbImpl(mu, var, np.log(prior))
    else:
        impl = _fit_linear(kind, x, y_idx, n_classes, cfg, rng)

    return ClassifierModel(kind=kind, classes=classes, impl=impl)


def _fit_linear(kind: str, x: np.ndarray, y_idx: np.ndarray, n_classes: int,
                cfg: SegclassConfig, rng: np.random.Generator) -> _LinearImpl:
    std = Standardizer.fit(x)
    xs = std.apply(x)
    n, d = xs.shape
    w = np.zeros((n_classes, d))
    b = np.zeros(n_classes)
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y_idx] = 1.0

    if kind == "logistic_regression":
        for _ in range(cfg.logreg_epochs):
            p = softmax(xs @ w.T + b, axis=1)
            diff = (p - onehot) / n
            w -= cfg.logreg_lr * (diff.T @ xs + cfg.linear_l2 * w)
            b -= cfg.logreg_lr * diff.sum(axis=0)
    elif kind == "sgd_linear":
        for _ in range(cfg.linear_epochs):
            for i in rng.permutation(n):
                p = softmax(w @ xs[i] + b)
                diff = p - onehot[i]
                w -= cfg.linear_lr * np.outer(diff, xs[i])
                b -= cfg.linear_lr * diff
            w *= 1.0 - cfg.linear_lr * cfg.linear_l2
    else:  # linear_svm: multiclass hinge (Crammer-Singer), Pegasos steps
        # bias rides along as a regularized constant feature so the 1/(lam*t)
        # steps cannot leave it stranded at an early huge value
        wa = np.zeros((n_classes, d + 1))
        xa = np.column_stack([xs, np.ones(n)])
        lam = cfg.svm_lambda
        t = 0
        for _ in range(cfg.svm_epochs):
            for i in rng.permutation(n):
                t += 1
                eta = 1.0 / (lam * t)
                scores = wa @ xa[i]
                yi = y_idx[i]
                rival = np.delete(scores, yi)
                r = int(np.argmax(rival))
                r = r + 1 if r >= yi else r
                wa *= 1.0 - eta * lam
                if scores[yi] - scores[r] < 1.0:
                    wa[yi] += eta * xa[i]
                    wa[r] -= eta * xa[i]
        w, b = wa[:, :-1], wa[:, -1].copy()
    return _LinearImpl(w, b, std)


def scores_batch(model: ClassifierModel, x: np.ndarray) -> np.ndarray:
    """Per-class scores (n, C) aligned with model.classes."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    impl = model.impl
    if isinstance(impl, _ForestImpl):
        acc = np.zeros((len(x), len(model.classes)))
        for tree in impl.trees:
            acc += _tree_scores(tree, x)
        return acc / len(impl.trees)
    if isinstance(impl, _NbImpl):
        out = np.empty((len(x), len(model.classes)))
        for c in range(len(model.classes)):
            ll = -0.5 * (np.log(2 * np.pi * impl.var[c]) + (x - impl.mu[c]) ** 2 / impl.var[c])
            out[:, c] = impl.log_prior[c] + ll.sum(axis=1)
        return out
    # Each row's dot products as one elementwise product summed over its last
    # axis: unlike a matrix product, whose blocking depends on the row count,
    # this gives a row the same bits however many rows are scored with it.
    return (impl.std.apply(x)[:, None, :] * impl.w).sum(axis=-1) + impl.b


def predict_batch(model: ClassifierModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    scores = scores_batch(model, x)
    # argmax returns the first maximum; classes are sorted, so ties go to
    # the lowest class id
    return model.classes[np.argmax(scores, axis=1)], scores


# --- persistence -------------------------------------------------------------

def to_checkpoint(model: ClassifierModel) -> Checkpoint:
    arrays: dict[str, np.ndarray] = {"classes": model.classes.astype(np.int64)}
    impl = model.impl
    meta = {"kind": model.kind}
    if isinstance(impl, _ForestImpl):
        meta["n_trees"] = len(impl.trees)
        for i, tree in enumerate(impl.trees):
            arrays.update({f"t{i}_{f.name}": getattr(tree, f.name) for f in fields(tree)})
    elif isinstance(impl, _NbImpl):
        arrays.update(mu=impl.mu, var=impl.var, log_prior=impl.log_prior)
    else:
        arrays.update(w=impl.w, b=impl.b, mu=impl.std.mu, sd=impl.std.sd)
    return Checkpoint(kind="segclass", meta=meta, arrays=arrays)
