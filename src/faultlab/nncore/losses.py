"""Loss functions and their gradients.

Both losses return (scalar_loss, gradient) so training loops never have to
re-derive the backward form.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeMismatchError

PROB_FLOOR = 1e-12


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error over every element.

    loss = mean((pred - target)^2), grad = 2 (pred - target) / n_elements.
    """
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape:
        raise ShapeMismatchError(f"pred {pred.shape} vs target {target.shape}")
    if pred.size == 0:
        raise ShapeMismatchError("empty arrays")
    diff = pred - target
    loss = float(np.mean(diff * diff))
    grad = (2.0 / pred.size) * diff
    return loss, grad


def one_hot_sequences(labels: np.ndarray, n_classes: int, length: int) -> np.ndarray:
    """Encode integer labels (N, T), 1-based, into (N, length, C) one-hot rows.

    Label 0 marks a padded step and produces an all-zero row, which the
    cross entropy then ignores.
    """
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise ShapeMismatchError(f"expected (N, T) labels, got shape {labels.shape}")
    if labels.min(initial=0) < 0 or labels.max(initial=0) > n_classes:
        raise ShapeMismatchError(
            f"labels must lie in [0, {n_classes}], found range "
            f"[{labels.min()}, {labels.max()}]"
        )
    if labels.shape[1] > length:
        raise ShapeMismatchError(
            f"labels span {labels.shape[1]} steps but sequences only {length}")
    out = np.zeros((labels.shape[0], length, n_classes))
    rows, cols = np.nonzero(labels)
    out[rows, cols, labels[rows, cols] - 1] = 1.0
    return out


def sequence_cross_entropy(
    probs: np.ndarray, targets: np.ndarray
) -> tuple[float, np.ndarray]:
    """Cross entropy summed over time and classes, averaged over sequences only.

    probs: (N, T, C) softmax outputs. targets: (N, T) integer labels,
    1-based with 0 = padding. Probabilities are floored at 1e-12 inside the
    log.

    Returns (loss, dlogits) where dlogits is the gradient w.r.t. the
    pre-softmax logits, shape (N, T, C). Taking the gradient at the logits
    rather than at probs keeps the softmax+CE backward in one numerically
    stable expression.
    """
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 3:
        raise ShapeMismatchError(f"expected (N, T, C) probs, got shape {probs.shape}")
    n, nt, nc = probs.shape
    if n == 0:
        raise ShapeMismatchError("empty batch")
    y = one_hot_sequences(targets, nc, length=nt)

    safe = np.maximum(probs, PROB_FLOOR)
    loss = float(-np.sum(y * np.log(safe)) / n)
    # d/dlogits of -sum(y log softmax)/N = (mass * p - y)/N where mass is the
    # per-step one-hot mass (0 on padded steps, 1 elsewhere).
    mass = y.sum(axis=-1, keepdims=True)
    dlogits = (mass * probs - y) / n
    return loss, dlogits
