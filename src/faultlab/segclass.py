"""Classical supervised classifiers over windowed segment features.

Windows of the three channels are summarized as (mean, std, min, max, slope)
per channel, 15 features total. Six classifier kinds are implemented from
scratch so that training is deterministic per seed, scoring formulas are
inspectable, and all kinds share the text checkpoint schema.

Prediction is always argmax over per-class scores with ties broken toward
the lowest class id.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import SegclassConfig
from .errors import DegenerateDataError, InvariantViolation, ShapeMismatchError
from .evaluation import EvalReport, confusion, metrics
from .nncore import Checkpoint, Standardizer
from .nncore.layers import softmax
from .simgen import TimeSeriesDataset

KINDS = ("decision_tree", "random_forest", "naive_bayes",
         "logistic_regression", "sgd_linear", "linear_svm")

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

    def __getitem__(self, i: int) -> tuple[np.ndarray, int]:
        return self.features[i], int(self.labels[i])


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
    """(T, 3) matrix -> one feature row per window position."""
    if window < 1 or stride < 1:
        raise InvariantViolation("window and stride must be >= 1")
    if window > len(x):
        raise ShapeMismatchError(f"window {window} larger than series {len(x)}")
    starts = np.arange(0, len(x) - window + 1, stride)
    return window_stats(np.stack([x[s:s + window] for s in starts]))


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
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    dist: np.ndarray | None = None  # leaf class distribution

    @property
    def is_leaf(self) -> bool:
        return self.dist is not None


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


def _grow_tree(x: np.ndarray, y_idx: np.ndarray, n_classes: int, depth: int,
               cfg: SegclassConfig, rng: np.random.Generator | None,
               n_feats: int | None) -> _Node:
    counts = np.bincount(y_idx, minlength=n_classes).astype(float)
    if (depth >= cfg.dt_max_depth or len(y_idx) <= cfg.dt_min_leaf
            or np.count_nonzero(counts) <= 1):
        return _Node(dist=counts / counts.sum())
    d = x.shape[1]
    if n_feats is not None and n_feats < d:
        feature_ids = np.sort(rng.choice(d, size=n_feats, replace=False))
    else:
        feature_ids = np.arange(d)
    split = _best_split(x, y_idx, n_classes, feature_ids)
    if split is None or split[0] <= 1e-12:
        return _Node(dist=counts / counts.sum())
    _, f, thr = split
    mask = x[:, f] <= thr
    node = _Node(feature=f, threshold=thr)
    node.left = _grow_tree(x[mask], y_idx[mask], n_classes, depth + 1, cfg, rng, n_feats)
    node.right = _grow_tree(x[~mask], y_idx[~mask], n_classes, depth + 1, cfg, rng, n_feats)
    return node


def _tree_scores(node: _Node, x: np.ndarray) -> np.ndarray:
    out = np.empty((len(x), len(_first_leaf(node).dist)))
    # iterative routing keeps recursion depth independent of batch size
    idx = np.arange(len(x))
    stack = [(node, idx)]
    while stack:
        nd, rows = stack.pop()
        if len(rows) == 0:
            continue
        if nd.is_leaf:
            out[rows] = nd.dist
            continue
        mask = x[rows, nd.feature] <= nd.threshold
        stack.append((nd.left, rows[mask]))
        stack.append((nd.right, rows[~mask]))
    return out


def _first_leaf(node: _Node) -> _Node:
    while not node.is_leaf:
        node = node.left
    return node


@dataclass
class _ForestImpl:
    roots: list[_Node]  # a decision tree is a forest of one


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


def train_classifier(kind: str, rows: WindowFeatures, cfg: SegclassConfig | None = None,
                     seed: int = 0) -> ClassifierModel:
    if cfg is None:
        cfg = SegclassConfig()
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
        impl: object = _ForestImpl([_grow_tree(x, y_idx, n_classes, 0, cfg, None, None)])
    elif kind == "random_forest":
        if cfg.rf_feature_frac is None:
            n_feats = max(1, int(round(np.sqrt(x.shape[1]))))
        else:
            n_feats = max(1, int(round(cfg.rf_feature_frac * x.shape[1])))
        roots = []
        for _ in range(cfg.rf_trees):
            if cfg.rf_bootstrap:
                take = rng.integers(0, len(x), size=len(x))
            else:
                take = np.arange(len(x))
            roots.append(_grow_tree(x[take], y_idx[take], n_classes, 0, cfg, rng, n_feats))
        impl = _ForestImpl(roots)
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
        for root in impl.roots:
            acc += _tree_scores(root, x)
        return acc / len(impl.roots)
    if isinstance(impl, _NbImpl):
        out = np.empty((len(x), len(model.classes)))
        for c in range(len(model.classes)):
            ll = -0.5 * (np.log(2 * np.pi * impl.var[c]) + (x - impl.mu[c]) ** 2 / impl.var[c])
            out[:, c] = impl.log_prior[c] + ll.sum(axis=1)
        return out
    return impl.std.apply(x) @ impl.w.T + impl.b


def predict_batch(model: ClassifierModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    scores = scores_batch(model, x)
    # argmax returns the first maximum; classes are sorted, so ties go to
    # the lowest class id
    return model.classes[np.argmax(scores, axis=1)], scores


def predict(model: ClassifierModel, row: np.ndarray) -> tuple[int, np.ndarray]:
    labels, scores = predict_batch(model, np.atleast_2d(row))
    return int(labels[0]), scores[0]


def stratified_folds(labels: np.ndarray, n_folds: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Fold id per row: shuffled within class, dealt round-robin globally."""
    fold_of = np.empty(len(labels), dtype=np.int64)
    pointer = 0
    for c in np.unique(labels):
        idx = np.nonzero(labels == c)[0]
        idx = idx[rng.permutation(len(idx))]
        for i in idx:
            fold_of[i] = pointer % n_folds
            pointer += 1
    return fold_of


def crossval_10fold(rows: WindowFeatures, kind: str, seed: int = 0,
                    cfg: SegclassConfig | None = None, n_folds: int = 10) -> EvalReport:
    """Shuffled stratified k-fold; metrics aggregated via the eval module."""
    if len(rows) < n_folds:
        raise DegenerateDataError(f"{len(rows)} rows is fewer than {n_folds} folds")
    rng = np.random.default_rng(seed)
    fold_of = stratified_folds(rows.labels, n_folds, rng)
    report = EvalReport(label=kind)
    for f in range(n_folds):
        test = fold_of == f
        model = train_classifier(
            kind, WindowFeatures(rows.features[~test], rows.labels[~test], rows.names),
            cfg=cfg, seed=seed + f,
        )
        preds, _ = predict_batch(model, rows.features[test])
        cm = confusion(preds, rows.labels[test],
                       classes=sorted(set(np.concatenate([preds, rows.labels[test]]).tolist())))
        report.add_fold(metrics(cm))
    return report


# --- persistence -------------------------------------------------------------

def _flatten_tree(root: _Node, n_classes: int):
    feats, thrs, lefts, rights, dists = [], [], [], [], []

    def visit(node: _Node) -> int:
        my_id = len(feats)
        feats.append(node.feature)
        thrs.append(node.threshold)
        lefts.append(-1)
        rights.append(-1)
        dists.append(node.dist if node.is_leaf else np.zeros(n_classes))
        if not node.is_leaf:
            lefts[my_id] = visit(node.left)
            rights[my_id] = visit(node.right)
        return my_id

    visit(root)
    return (np.array(feats, dtype=np.int64), np.array(thrs, dtype=float),
            np.array(lefts, dtype=np.int64), np.array(rights, dtype=np.int64),
            np.array(dists, dtype=float))


def _rebuild_tree(feats, thrs, lefts, rights, dists) -> _Node:
    def build(i: int) -> _Node:
        if lefts[i] < 0:
            return _Node(dist=dists[i])
        node = _Node(feature=int(feats[i]), threshold=float(thrs[i]))
        node.left = build(int(lefts[i]))
        node.right = build(int(rights[i]))
        return node

    return build(0)


def to_checkpoint(model: ClassifierModel) -> Checkpoint:
    arrays: dict[str, np.ndarray] = {"classes": model.classes.astype(np.int64)}
    impl = model.impl
    meta = {"kind": model.kind}
    if isinstance(impl, _ForestImpl):
        meta["n_trees"] = len(impl.roots)
        for i, root in enumerate(impl.roots):
            f, t, l, r, d = _flatten_tree(root, len(model.classes))
            arrays[f"t{i}_feat"] = f
            arrays[f"t{i}_thr"] = t
            arrays[f"t{i}_left"] = l
            arrays[f"t{i}_right"] = r
            arrays[f"t{i}_dist"] = d
    elif isinstance(impl, _NbImpl):
        arrays.update(mu=impl.mu, var=impl.var, log_prior=impl.log_prior)
    else:
        arrays.update(w=impl.w, b=impl.b, mu=impl.std.mu, sd=impl.std.sd)
    return Checkpoint(kind="segclass", meta=meta, arrays=arrays)


def from_checkpoint(ckpt: Checkpoint) -> ClassifierModel:
    kind = ckpt.meta["kind"]
    classes = ckpt.arrays["classes"]
    if kind in ("decision_tree", "random_forest"):
        impl: object = _ForestImpl([
            _rebuild_tree(ckpt.arrays[f"t{i}_feat"], ckpt.arrays[f"t{i}_thr"],
                          ckpt.arrays[f"t{i}_left"], ckpt.arrays[f"t{i}_right"],
                          ckpt.arrays[f"t{i}_dist"])
            for i in range(int(ckpt.meta["n_trees"]))
        ])
    elif kind == "naive_bayes":
        impl = _NbImpl(ckpt.arrays["mu"], ckpt.arrays["var"], ckpt.arrays["log_prior"])
    else:
        impl = _LinearImpl(ckpt.arrays["w"], ckpt.arrays["b"],
                           Standardizer(ckpt.arrays["mu"], ckpt.arrays["sd"]))
    return ClassifierModel(kind=kind, classes=classes, impl=impl)
