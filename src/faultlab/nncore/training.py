"""Generic training loop: Adam + validation-based early stopping.

A trainable model exposes three methods:

    param_arrays() -> list[np.ndarray]   live views, updated in place
    loss_and_grads(batch) -> (float, list[np.ndarray])  grads align with params
    loss(batch) -> float                 forward-only, used for validation

The loop is deterministic given the rng passed to `make_batches`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Protocol

import numpy as np

from ..errors import TrainingDivergedError
from .optim import AdamState, adam_step, pack, unpack_into


class TrainableModel(Protocol):
    def param_arrays(self) -> list[np.ndarray]: ...

    def loss_and_grads(self, batch: Any) -> tuple[float, list[np.ndarray]]: ...

    def loss(self, batch: Any) -> float: ...


@dataclass
class EarlyStopConfig:
    patience: int = 6
    min_delta: float = 1e-5


@dataclass
class TrainResult:
    epochs_run: int
    best_epoch: int
    best_val_loss: float
    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    stopped_early: bool = False


def train(
    model: TrainableModel,
    make_batches: Callable[[np.random.Generator], Iterable[Any]],
    val_batch: Any,
    adam: AdamState | None = None,
    max_epochs: int = 100,
    early: EarlyStopConfig | None = None,
    rng: np.random.Generator | None = None,
) -> TrainResult:
    """Run up to max_epochs of Adam, stopping when validation stalls.

    `make_batches(rng)` is called once per epoch and must yield the minibatch
    objects the model understands; shuffling is the caller's business so the
    loop stays agnostic about batch layout.
    """
    if adam is None:
        adam = AdamState()
    if early is None:
        early = EarlyStopConfig()
    if rng is None:
        rng = np.random.default_rng(0)

    params = model.param_arrays()
    best_val = np.inf
    best_epoch = 0
    best_snapshot: np.ndarray | None = None
    bad_epochs = 0
    result = TrainResult(epochs_run=0, best_epoch=0, best_val_loss=np.inf)

    for epoch in range(1, max_epochs + 1):
        epoch_losses = []
        for batch in make_batches(rng):
            loss, grads = model.loss_and_grads(batch)
            if not np.isfinite(loss):
                raise TrainingDivergedError(f"non-finite loss at epoch {epoch}")
            flat = adam_step(adam, pack(params), pack(grads))
            if not np.all(np.isfinite(flat)):
                raise TrainingDivergedError(f"non-finite parameters at epoch {epoch}")
            unpack_into(flat, params)
            epoch_losses.append(loss)
        if not epoch_losses:
            raise ValueError("make_batches produced no batches")

        val_loss = model.loss(val_batch)
        if not np.isfinite(val_loss):
            raise TrainingDivergedError(f"non-finite validation loss at epoch {epoch}")
        result.train_losses.append(float(np.mean(epoch_losses)))
        result.val_losses.append(float(val_loss))
        result.epochs_run = epoch

        if val_loss < best_val - early.min_delta:
            best_val = float(val_loss)
            best_epoch = epoch
            bad_epochs = 0
            best_snapshot = pack(params)
        else:
            bad_epochs += 1
            if bad_epochs > early.patience:
                result.stopped_early = True
                break

    if best_snapshot is not None:
        unpack_into(best_snapshot, params)
    result.best_epoch = best_epoch
    result.best_val_loss = best_val if np.isfinite(best_val) else float(result.val_losses[-1])
    return result
