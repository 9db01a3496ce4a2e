"""Reference tools of the test suite: plain one-sequence LSTM passes, the
finite-difference gradient check and the 10-fold check of the segment
classifiers. faultlab itself never runs them."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from faultlab.config import SegclassConfig
from faultlab.errors import DegenerateDataError, ShapeMismatchError
from faultlab.evaluation import EvalReport, confusion, metrics
from faultlab.nncore import LstmCellParams, lstm_forward_batch, sigmoid
from faultlab.segclass import WindowFeatures, predict_batch, train_classifier


# --- LSTM on plain vectors and one sequence ------------------------------------

def lstm_cell_forward(
    x: np.ndarray, h: np.ndarray, c: np.ndarray, p: LstmCellParams
) -> tuple[np.ndarray, np.ndarray]:
    """One LSTM step on plain vectors: returns (h_next, c_next)."""
    x = np.asarray(x, dtype=float)
    h = np.asarray(h, dtype=float)
    c = np.asarray(c, dtype=float)
    nh = p.hidden_size
    if x.shape != (p.input_size,) or h.shape != (nh,) or c.shape != (nh,):
        raise ShapeMismatchError(
            f"cell input shapes {x.shape}/{h.shape}/{c.shape} do not match params "
            f"(D={p.input_size}, H={nh})"
        )
    a = p.w_input @ x + p.w_hidden @ h + p.bias
    i = sigmoid(a[:nh])
    f = sigmoid(a[nh:2 * nh])
    g = np.tanh(a[2 * nh:3 * nh])
    o = sigmoid(a[3 * nh:])
    c_next = f * c + i * g
    h_next = o * np.tanh(c_next)
    return h_next, c_next


def lstm_layer_forward(seq: np.ndarray, p: LstmCellParams) -> np.ndarray:
    """Run the cell over a (T, D) sequence from a zero state; returns the
    (T, H) hidden sequence."""
    seq = np.asarray(seq, dtype=float)
    if seq.ndim != 2:
        raise ShapeMismatchError(f"expected (T, D) sequence, got shape {seq.shape}")
    if seq.shape[0] == 0:
        raise ShapeMismatchError("empty sequence")
    hs, _ = lstm_forward_batch(seq[None, :, :], p)
    return hs[0]


# --- central finite differences ----------------------------------------------

@dataclass
class GradCheckReport:
    max_rel_error: float
    n_checked: int
    worst_index: tuple[int, int]  # (array index, flat offset within it)

    def ok(self, tol: float = 1e-4) -> bool:
        return self.max_rel_error < tol


def check_gradients(
    loss_fn: Callable[[], float],
    param_arrays: list[np.ndarray],
    analytic_grads: list[np.ndarray],
    h: float = 1e-5,
    floor: float = 1e-5,
) -> GradCheckReport:
    """Compare analytic gradients against central differences.

    loss_fn re-evaluates the loss with whatever values currently sit in
    param_arrays (which are perturbed in place and restored). Relative error
    uses max(|analytic|, |numeric|, floor) in the denominator; the floor keeps
    coordinates whose true gradient is below finite-difference noise (~1e-10
    absolute for central differences at h=1e-5) from reporting spurious
    relative errors. At the floor, the check still bounds the absolute
    disagreement by floor * tol. Every coordinate of every array is probed.
    """
    if len(param_arrays) != len(analytic_grads):
        raise ValueError("param/grad list length mismatch")
    worst = 0.0
    worst_idx = (0, 0)
    checked = 0
    for ai, (arr, grad) in enumerate(zip(param_arrays, analytic_grads)):
        if arr.shape != grad.shape:
            raise ValueError(f"array {ai}: shape {arr.shape} vs grad {grad.shape}")
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            up = loss_fn()
            flat[j] = orig - h
            down = loss_fn()
            flat[j] = orig
            numeric = (up - down) / (2.0 * h)
            denom = max(abs(gflat[j]), abs(numeric), floor)
            rel = abs(gflat[j] - numeric) / denom
            checked += 1
            if rel > worst:
                worst = rel
                worst_idx = (ai, j)
    return GradCheckReport(max_rel_error=float(worst), n_checked=checked, worst_index=worst_idx)


# --- stratified k-fold of the segment classifiers ----------------------------

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
