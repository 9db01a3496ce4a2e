"""Group trainer: Adam + validation-based early stopping, many models in lockstep.

A trainable model exposes three methods:

    param_arrays() -> list[np.ndarray]   live views, updated in place
    stack_key(batch) -> hashable         equal keys: the batches may run as one call
    group_losses(models, batches, want_grads) -> per model, loss or (loss, grads)

`group_losses` is a static method: for models of its class, each with its
own batch, it gives each model's loss, or with `want_grads` its (loss,
grads) pair, the grads aligned with `param_arrays()`. A validation pass is
the same call without `want_grads`.

`train` takes a list of `TrainJob`s. Each job is its own training loop with
its own rng, batches, Adam state, losses, validation and early stop, exactly
as if it trained alone. The loops advance side by side, one operation (a
minibatch step or a validation pass) per job per round. In each round the
jobs whose pending operations are of one kind, whose models are of one
class and whose stack keys are equal run them through one `group_losses`
call, up to MAX_GROUP models per call. As a model's arithmetic never mixes
with another's, its parameters and `TrainResult` do not depend on which
models train beside it. A job leaves the group when it stops early, runs out
of epochs or diverges; a single model trains as a group of one.

Every loop is deterministic given its job's rng, which only `make_batches`
draws from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, Protocol

import numpy as np

from ..errors import TrainingDivergedError
from .optim import AdamState, adam_step, pack, unpack_into

# Most models one `group_losses` call takes. A stacked training step keeps
# every member's forward cache alive at once (about 3.7 MB per task network
# at B=16, T=64, H=32), so this bounds the step's memory; past a handful of
# models, larger groups gain little time.
MAX_GROUP = 8


class TrainableModel(Protocol):
    def param_arrays(self) -> list[np.ndarray]: ...

    def stack_key(self, batch: Any) -> Hashable: ...

    @staticmethod
    def group_losses(models: list, batches: list, want_grads: bool) -> list: ...


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


@dataclass
class TrainJob:
    """One model's training: up to max_epochs of Adam over `make_batches(rng)`,
    stopping when the loss on `val_batch` stalls.

    `make_batches(rng)` is called once per epoch and must yield the minibatch
    objects the model understands; shuffling is the caller's business so the
    loop stays agnostic about batch layout.
    """

    model: TrainableModel
    make_batches: Callable[[np.random.Generator], Iterable[Any]]
    val_batch: Any
    adam: AdamState = field(default_factory=AdamState)
    max_epochs: int = 100
    early: EarlyStopConfig = field(default_factory=EarlyStopConfig)
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))


class TrainResults(list):
    """Per job, in order: its TrainResult, or the TrainingDivergedError that
    stopped it."""

    def result(self, i: int) -> TrainResult:
        """Job i's TrainResult; raises the error that stopped it instead."""
        if isinstance(self[i], TrainingDivergedError):
            raise self[i]
        return self[i]

    @property
    def epochs_run(self) -> int:
        """Epochs run by the jobs that finished."""
        return sum(r.epochs_run for r in self if isinstance(r, TrainResult))

    @property
    def stopped_early(self) -> int:
        """How many jobs stopped early."""
        return sum(r.stopped_early for r in self if isinstance(r, TrainResult))


_STEP, _VALIDATE = "step", "validate"


def _loop(job: TrainJob):
    """One job's training loop as a generator. It yields (_STEP, batch) and is
    sent the (loss, grads) of that batch, or yields (_VALIDATE, batch) and is
    sent its loss; it returns the job's TrainResult."""
    params = job.model.param_arrays()
    best_val = np.inf
    best_epoch = 0
    best_snapshot: np.ndarray | None = None
    bad_epochs = 0
    result = TrainResult(epochs_run=0, best_epoch=0, best_val_loss=np.inf)

    for epoch in range(1, job.max_epochs + 1):
        epoch_losses = []
        for batch in job.make_batches(job.rng):
            loss, grads = yield _STEP, batch
            if not np.isfinite(loss):
                raise TrainingDivergedError(f"non-finite loss at epoch {epoch}")
            flat = adam_step(job.adam, pack(params), pack(grads))
            if not np.all(np.isfinite(flat)):
                raise TrainingDivergedError(f"non-finite parameters at epoch {epoch}")
            unpack_into(flat, params)
            epoch_losses.append(loss)
        if not epoch_losses:
            raise ValueError("make_batches produced no batches")

        val_loss = yield _VALIDATE, job.val_batch
        if not np.isfinite(val_loss):
            raise TrainingDivergedError(f"non-finite validation loss at epoch {epoch}")
        result.train_losses.append(float(np.mean(epoch_losses)))
        result.val_losses.append(float(val_loss))
        result.epochs_run = epoch

        if val_loss < best_val - job.early.min_delta:
            best_val = float(val_loss)
            best_epoch = epoch
            bad_epochs = 0
            best_snapshot = pack(params)
        else:
            bad_epochs += 1
            if bad_epochs > job.early.patience:
                result.stopped_early = True
                break

    if best_snapshot is not None:
        unpack_into(best_snapshot, params)
    result.best_epoch = best_epoch
    result.best_val_loss = best_val if np.isfinite(best_val) else float(result.val_losses[-1])
    return result


def train(jobs: list[TrainJob]) -> TrainResults:
    """Train every job's model in lockstep; see the module docstring."""
    results = TrainResults([None] * len(jobs))
    loops = [_loop(job) for job in jobs]
    pending: dict[int, tuple[str, Any]] = {}

    def advance(i: int, sent) -> None:
        try:
            pending[i] = loops[i].send(sent)
        except StopIteration as done:
            results[i] = done.value
        except TrainingDivergedError as exc:
            results[i] = exc

    for i in range(len(jobs)):
        advance(i, None)
    while pending:
        groups: dict[Any, list[int]] = {}
        for i, (kind, batch) in pending.items():
            model = jobs[i].model
            groups.setdefault((kind, type(model), model.stack_key(batch)), []).append(i)
        ops, pending = pending, {}
        for (kind, cls, _), members in groups.items():
            for lo in range(0, len(members), MAX_GROUP):
                part = members[lo:lo + MAX_GROUP]
                outs = cls.group_losses([jobs[i].model for i in part],
                                        [ops[i][1] for i in part], want_grads=kind == _STEP)
                for i, out in zip(part, outs):
                    advance(i, out)
    return results
