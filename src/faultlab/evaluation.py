"""Metrics, the sequential cross-validation plan, and report rendering.

Multiclass metrics are macro-averaged one-vs-rest over the classes present
in the truth labels; balanced accuracy is the mean per-class recall. Empty
denominators contribute 0 and emit a logged warning.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import InvariantViolation, ShapeMismatchError

log = logging.getLogger("faultlab.evaluation")

METRIC_NAMES = ("balanced_accuracy", "precision", "recall", "specificity", "f1")
# Table column order is fixed: Accuracy, Precision, Recall, Specificity, F1.
REPORT_COLUMNS = ("Accuracy", "Precision", "Recall", "Specificity", "F1")


@dataclass
class ConfusionMatrix:
    counts: np.ndarray  # (C, C) ints, rows = truth, cols = predicted
    classes: list[int]

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 2 or self.counts.shape[0] != self.counts.shape[1]:
            raise ShapeMismatchError(f"confusion matrix shape {self.counts.shape}")
        if self.counts.shape[0] != len(self.classes):
            raise ShapeMismatchError("class list does not match matrix size")
        if np.any(self.counts < 0):
            raise InvariantViolation("negative confusion counts")

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def confusion(preds, truth, classes: list[int] | None = None) -> ConfusionMatrix:
    """counts[i][j] = #{t : truth == classes[i] and pred == classes[j]}."""
    preds = np.asarray(preds)
    truth = np.asarray(truth)
    if preds.shape != truth.shape or preds.ndim != 1:
        raise ShapeMismatchError(f"preds {preds.shape} vs truth {truth.shape}")
    truth_i, preds_i = truth.astype(np.int64), preds.astype(np.int64)
    if classes is None:
        classes = np.unique(np.concatenate([preds_i, truth_i])).tolist()
    n = len(classes)
    # Label -> row index; a class listed twice maps to its last position.
    cls = np.asarray(classes, dtype=np.int64)
    order = np.argsort(cls, kind="stable")
    ordered = cls[order]

    def locate(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pos = np.searchsorted(ordered, labels, side="right") - 1
        known = pos >= 0
        known[known] = ordered[pos[known]] == labels[known]
        return pos, known

    t_pos, t_known = locate(truth_i)
    p_pos, p_known = locate(preds_i)
    bad = np.flatnonzero(~(t_known & p_known))
    if len(bad):
        k = bad[0]
        label = truth_i[k] if not t_known[k] else preds_i[k]
        raise InvariantViolation(f"label {int(label)} outside class set {classes}")
    counts = np.bincount(order[t_pos] * n + order[p_pos], minlength=n * n).reshape(n, n)
    return ConfusionMatrix(counts, list(classes))


def _safe_div(num: float, den: float, what: str) -> float:
    if den == 0:
        log.warning("empty denominator in %s, contributing 0", what)
        return 0.0
    return num / den


def metrics(cm: ConfusionMatrix) -> dict:
    """Macro one-vs-rest metrics over classes present in truth."""
    counts = cm.counts
    if counts.sum() == 0:
        raise InvariantViolation("empty confusion matrix")
    total = counts.sum()
    row_tot = counts.sum(axis=1)
    col_tot = counts.sum(axis=0)
    present = np.nonzero(row_tot > 0)[0]

    precisions, recalls, specificities, f1s = [], [], [], []
    for i in present:
        tp = counts[i, i]
        fp = col_tot[i] - tp
        fn = row_tot[i] - tp
        tn = total - tp - fp - fn
        p = _safe_div(tp, tp + fp, f"precision[{cm.classes[i]}]")
        r = _safe_div(tp, tp + fn, f"recall[{cm.classes[i]}]")
        s = _safe_div(tn, tn + fp, f"specificity[{cm.classes[i]}]")
        f1 = _safe_div(2 * p * r, p + r, f"f1[{cm.classes[i]}]")
        precisions.append(p)
        recalls.append(r)
        specificities.append(s)
        f1s.append(f1)

    return {
        "balanced_accuracy": float(np.mean(recalls)),
        "precision": float(np.mean(precisions)),
        "recall": float(np.mean(recalls)),
        "specificity": float(np.mean(specificities)),
        "f1": float(np.mean(f1s)),
    }


@dataclass
class FoldPlan:
    train_start: int
    train_len: int
    test_start: int
    test_len: int


@dataclass
class SeqCvPlan:
    total: int
    seed: int
    folds: list[FoldPlan] = field(default_factory=list)


def seq_cv_plan(total: int, folds: int = 10, seed: int = 0,
                lo: float = 0.5, hi: float = 0.8) -> SeqCvPlan:
    """Contiguous train blocks in the first half, test blocks in the second.

    Block lengths are integer-uniform within [lo, hi] of each half's size.
    """
    if total < 20:
        raise InvariantViolation(f"series of {total} too small for a sequential CV plan")
    half = total // 2
    size2 = total - half
    rng = np.random.default_rng(seed)
    plan = SeqCvPlan(total=total, seed=seed)
    for _ in range(folds):
        train_len = int(rng.integers(int(np.ceil(lo * half)), int(np.floor(hi * half)) + 1))
        train_start = int(rng.integers(0, half - train_len + 1))
        test_len = int(rng.integers(int(np.ceil(lo * size2)), int(np.floor(hi * size2)) + 1))
        test_start = half + int(rng.integers(0, size2 - test_len + 1))
        plan.folds.append(FoldPlan(train_start, train_len, test_start, test_len))
    return plan


@dataclass
class EvalReport:
    """Per-fold metric dicts plus their mean and (population) std."""

    label: str
    fold_metrics: list[dict] = field(default_factory=list)
    skipped_folds: list[int] = field(default_factory=list)

    def add_fold(self, values: dict) -> None:
        self.fold_metrics.append(dict(values))

    @property
    def mean(self) -> dict:
        self._require_folds()
        return {m: float(np.mean([f[m] for f in self.fold_metrics])) for m in METRIC_NAMES}

    @property
    def std(self) -> dict:
        self._require_folds()
        return {m: float(np.std([f[m] for f in self.fold_metrics])) for m in METRIC_NAMES}

    def _require_folds(self) -> None:
        if not self.fold_metrics:
            raise InvariantViolation(f"report {self.label!r} has no folds")


def format_cell(mean: float, std: float) -> str:
    """Table-2 style cell: percent mean to 3 significant digits, `±.xx` std."""
    mean_txt = f"{mean * 100:.3g}"
    std_txt = f"{std:.2f}"
    if std_txt.startswith("0."):
        std_txt = std_txt[1:]
    return f"{mean_txt}±{std_txt}"


def render_report(reports: list[EvalReport], fmt: str = "markdown",
                  path=None) -> str:
    """Rows = variants, columns = the five metrics as mean±std cells."""
    if fmt not in ("markdown", "csv"):
        raise InvariantViolation(f"unknown report format {fmt!r}")
    rows = []
    for rep in reports:
        mean, std = rep.mean, rep.std
        rows.append([rep.label] + [format_cell(mean[m], std[m]) for m in METRIC_NAMES])

    if fmt == "csv":
        lines = [",".join(["variant", *REPORT_COLUMNS])]
        lines += [",".join(row) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        header = ["variant", *REPORT_COLUMNS]
        lines = ["| " + " | ".join(header) + " |",
                 "|" + "|".join(["---"] * len(header)) + "|"]
        lines += ["| " + " | ".join(row) + " |" for row in rows]
        text = "\n".join(lines) + "\n"

    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text
