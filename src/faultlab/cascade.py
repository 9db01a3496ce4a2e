"""The SMTCNN cascade: segment proposal, anomaly refinement, classification.

Task 1 turns the change-point detector's window errors into proposed segments
(mask O_t1). Task 2 is a two-layer LSTM with a 2-way softmax head, trained
only on steps inside proposed segments; its per-step anomaly probability is
O_t2 (zero outside segments). Task 3 is a two-layer LSTM over [X, O_t1, O_t2]
with a 12-way softmax head trained on the per-step class labels, optionally
warm started from segment-classifier predictions (a per-class head-bias prior).

`VARIANT_STAGES` says which shared stages each variant uses (b2_no_cpd
proposes one segment over the whole series; b3_no_segclass drops the warm
start). `smtcnn_infer`, training and every CV fold run the tasks through
`task1_proposal`, `build_task3_inputs` and `task3_predict`. `train_task2` and
`train_task3` each train a list of networks as one group, in lockstep (see
`nncore.training`); a network's weights do not depend on its group.

Long series are processed as fixed-length stateless chunks, during both
training and inference, so the two phases see identical input distributions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .changepoint import (
    N_CHANNELS,
    LstmAutoencoder,
    Segment,
    ThresholdSpec,
    as_features,
    propose_segments,
    reconstruction_errors,
    segments_to_mask,
)
from .config import CpdConfig, SegclassConfig, TaskNetConfig
from .errors import (
    DegenerateDataError,
    FaultlabError,
    InvariantViolation,
    ShapeMismatchError,
    attempt,
)
from .nncore import (
    AdamState,
    Checkpoint,
    DenseParams,
    EarlyStopConfig,
    LstmCellParams,
    Standardizer,
    TrainJob,
    dense_forward_batch,
    sequence_cross_entropy,
    train,
)
from .nncore.layers import (
    batch_bounds,
    dense_backward_batch,
    lstm_backward_batch,
    lstm_forward_batch,
    softmax,
)
from .segclass import ClassifierModel, predict_batch, windowize_features
from .simgen import NO_FAULT, TimeSeriesDataset

N_CLASSES = 12


class Stages(NamedTuple):
    """The shared stages a variant uses: the change-point detector proposes
    task 1's segments; the segment classifier's prior warm-starts task 3."""

    cpd: bool
    segclass: bool


VARIANT_STAGES = {
    "full": Stages(cpd=True, segclass=True),
    "b2_no_cpd": Stages(cpd=False, segclass=True),
    "b3_no_segclass": Stages(cpd=True, segclass=False),
}
VARIANTS = tuple(VARIANT_STAGES)
# Most chunks a task network scores in one forward pass (see infer_series).
INFER_BATCH_CHUNKS = 256


@dataclass
class CascadePrediction:
    classes: np.ndarray   # (T,) in 1..12
    anomaly: np.ndarray   # (T,) bool, class != 12
    probs: np.ndarray     # (T, 12)


class SequenceClassifier:
    """Two stacked LSTM layers + softmax head over every step."""

    def __init__(self, lstm1: LstmCellParams, lstm2: LstmCellParams, head: DenseParams):
        self.lstm1 = lstm1
        self.lstm2 = lstm2
        self.head = head
        self.train_result = None

    @classmethod
    def init(cls, rng: np.random.Generator, input_dim: int, hidden: int,
             n_out: int) -> "SequenceClassifier":
        return cls(
            LstmCellParams.init(rng, input_dim, hidden),
            LstmCellParams.init(rng, hidden, hidden),
            DenseParams.init(rng, hidden, n_out),
        )

    @property
    def n_out(self) -> int:
        return self.head.out_size

    def param_arrays(self) -> list[np.ndarray]:
        return [
            self.lstm1.w_input, self.lstm1.w_hidden, self.lstm1.bias,
            self.lstm2.w_input, self.lstm2.w_hidden, self.lstm2.bias,
            self.head.w, self.head.b,
        ]

    def forward_probs(self, x: np.ndarray) -> np.ndarray:
        h1, _ = lstm_forward_batch(x, self.lstm1)
        h2, _ = lstm_forward_batch(h1, self.lstm2)
        return softmax(dense_forward_batch(h2, self.head), axis=-1)

    def loss(self, batch) -> float:
        return self.group_losses([self], [batch], want_grads=False)[0]

    def loss_and_grads(self, batch):
        """batch = (x: (B, L, D), labels: (B, L) ints in 0..n_out, 0 = ignore)."""
        return self.group_losses([self], [batch], want_grads=True)[0]

    def stack_key(self, batch):
        """Models with equal keys can run their batches as one stacked call."""
        return batch[0].shape, self.lstm1.w_input.shape, self.lstm2.w_input.shape

    @staticmethod
    def group_losses(models: list["SequenceClassifier"], batches: list, want_grads: bool):
        """Each model's sequence cross entropy on its own batch, and with
        want_grads its gradients, as (loss, grads) pairs.

        Several models run their two LSTM layers as one stacked recurrence
        (see nncore.layers), then each its own head and loss; one model runs
        without the model axis. Either way a model gets the bits it gets alone.
        """
        one = len(models) == 1

        def stack(arrays):
            return arrays[0] if one else np.stack(arrays)

        def layer(name):
            cells = [getattr(m, name) for m in models]
            return cells[0] if one else LstmCellParams.stack(cells)

        def split(a):
            return [a] if one else list(a)

        h1, c1 = lstm_forward_batch(stack([x for x, _ in batches]), layer("lstm1"),
                                    want_cache=want_grads)
        h2, c2 = lstm_forward_batch(h1, layer("lstm2"), want_cache=want_grads)
        losses, heads, dh2 = [], [], []
        for model, (_, labels), h in zip(models, batches, split(h2)):
            probs = softmax(dense_forward_batch(h, model.head), axis=-1)
            value, dlogits = sequence_cross_entropy(probs, labels)
            losses.append(value)
            if want_grads:
                # the head is identity; dlogits already folds the softmax jacobian in
                dw_head, db_head, dh = dense_backward_batch(h, None, dlogits, model.head)
                heads.append([dw_head, db_head])
                dh2.append(dh)
        if not want_grads:
            return losses
        g2 = lstm_backward_batch(c2, stack(dh2))
        g1 = lstm_backward_batch(c1, g2.x, want_dx=False)
        layers = zip(*(split(a) for a in (g1.w_input, g1.w_hidden, g1.bias,
                                          g2.w_input, g2.w_hidden, g2.bias)))
        return [(value, [*grads, *head]) for value, grads, head in zip(losses, layers, heads)]

    def infer_series(self, x: np.ndarray, chunk_len: int) -> np.ndarray:
        """(T, D) -> per-step probabilities (T, n_out), stateless chunks.

        The chunks are cut and run through the network in near-equal batches
        of at most INFER_BATCH_CHUNKS (see `batch_bounds`), so the working set
        is one batch's whatever T is, and the bits are those of one pass over
        all chunks.
        """
        n = -(-len(x) // chunk_len)
        bounds = batch_bounds(n, INFER_BATCH_CHUNKS)
        probs = np.empty((n, chunk_len, self.n_out))
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            chunks = _pad_chunks(x[lo * chunk_len:hi * chunk_len], chunk_len)
            probs[lo:hi] = self.forward_probs(chunks)
        return probs.reshape(-1, self.n_out)[:len(x)]

    def to_checkpoint(self, kind: str, meta: dict | None = None) -> Checkpoint:
        arrays = {
            "l1_wx": self.lstm1.w_input, "l1_wh": self.lstm1.w_hidden, "l1_b": self.lstm1.bias,
            "l2_wx": self.lstm2.w_input, "l2_wh": self.lstm2.w_hidden, "l2_b": self.lstm2.bias,
            "head_w": self.head.w, "head_b": self.head.b,
        }
        return Checkpoint(kind=kind, meta=meta or {}, arrays=arrays)

    @classmethod
    def from_checkpoint(cls, ckpt: Checkpoint) -> "SequenceClassifier":
        lstm1 = LstmCellParams(ckpt.arrays["l1_wx"], ckpt.arrays["l1_wh"], ckpt.arrays["l1_b"])
        lstm2 = LstmCellParams(ckpt.arrays["l2_wx"], ckpt.arrays["l2_wh"], ckpt.arrays["l2_b"])
        head = DenseParams(ckpt.arrays["head_w"], ckpt.arrays["head_b"])
        lstm1.validate()
        lstm2.validate()
        if (lstm2.input_size != lstm1.hidden_size
                or head.w.shape != (len(head.b), lstm2.hidden_size)):
            raise ShapeMismatchError("layer sizes do not chain: l1 -> l2 -> head")
        return cls(lstm1, lstm2, head)


def _pad_chunks(a: np.ndarray, chunk_len: int, dtype=float) -> np.ndarray:
    """(T, ...) -> (ceil(T / chunk_len), chunk_len, ...), zero-padded at the tail."""
    n_chunks = -(-len(a) // chunk_len)
    padded = np.zeros((n_chunks * chunk_len,) + a.shape[1:], dtype=dtype)
    padded[:len(a)] = a
    return padded.reshape((n_chunks, chunk_len) + a.shape[1:])


def chunk_series(x: np.ndarray, labels: np.ndarray, chunk_len: int):
    """Split into stateless chunks; the tail keeps label 0 = ignored."""
    return _pad_chunks(x, chunk_len), _pad_chunks(labels, chunk_len, np.int64)


# A trained task network, or the error that stopped its training.
Trained = SequenceClassifier | FaultlabError


def _seq_job(model: SequenceClassifier, xs: np.ndarray, ys: np.ndarray,
             cfg: TaskNetConfig, rng: np.random.Generator, rare: np.ndarray) -> TrainJob:
    """The minibatch training of `model` over label chunks.

    `rare` marks chunks carrying the minority labels; they are repeated per
    epoch until they hold roughly cfg.rebalance_frac of the deck, otherwise
    the sequence loss is dominated by the majority class and the budgeted
    epoch count never leaves the all-majority solution. Only batch
    composition changes; the loss on any given batch stays the plain
    sequence cross entropy.
    """
    keep = np.nonzero(ys.any(axis=1))[0]  # chunks with at least one labeled step
    if len(keep) == 0:
        raise DegenerateDataError("no labeled chunks to train on")
    xs, ys, rare = xs[keep], ys[keep], rare[keep]
    n_val = max(1, int(cfg.val_frac * len(xs)))
    val = (xs[-n_val:], ys[-n_val:])
    trn_x, trn_y = xs[:-n_val], ys[:-n_val]
    trn_rare = rare[:-n_val]
    if len(trn_x) == 0:
        trn_x, trn_y = val
        trn_rare = rare[-n_val:]

    deck = np.arange(len(trn_x))
    if cfg.rebalance_frac:
        k = int(trn_rare.sum())
        frac = cfg.rebalance_frac
        if 0 < k < frac * len(trn_x):
            want = frac * (len(trn_x) - k) / (1.0 - frac)
            extra = int(round(want)) - k
            rare_idx = np.nonzero(trn_rare)[0]
            reps = np.tile(rare_idx, int(np.ceil(extra / k)))[:extra]
            deck = np.concatenate([deck, reps])

    def make_batches(batch_rng: np.random.Generator):
        # One batch at a time: a group of jobs trains side by side, and an
        # epoch's batches held at once would copy each job's whole deck.
        order = batch_rng.permutation(deck)
        for i in range(0, len(order), cfg.batch_chunks):
            yield trn_x[order[i:i + cfg.batch_chunks]], trn_y[order[i:i + cfg.batch_chunks]]

    return TrainJob(model, make_batches, val, adam=AdamState(alpha=cfg.lr),
                    max_epochs=cfg.max_epochs,
                    early=EarlyStopConfig(patience=cfg.patience, min_delta=cfg.min_delta),
                    rng=rng)


def _train_group(jobs: list) -> list[Trained]:
    """Train the TrainJobs among `jobs` as one group; the errors among them,
    from setting a job up, stay in their places."""
    results = iter(train([job for job in jobs if isinstance(job, TrainJob)]))

    def finish(job) -> Trained:
        if not isinstance(job, TrainJob):
            return job
        result = next(results)
        if isinstance(result, FaultlabError):
            return result
        job.model.train_result = result
        return job.model

    return [finish(job) for job in jobs]


# --- Task 2 -------------------------------------------------------------------

def task2_labels(anomaly: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """1 = normal, 2 = anomaly inside segments; 0 = outside (ignored)."""
    labels = np.where(np.asarray(anomaly, dtype=bool), 2, 1).astype(np.int64)
    labels[np.asarray(mask) == 0.0] = 0
    return labels


def _task2_job(mixed: TimeSeriesDataset, mask: np.ndarray, std: Standardizer, seed: int,
               cfg: TaskNetConfig) -> TrainJob:
    if mixed.regime != "mixed":
        raise InvariantViolation(f"task 2 trains on the mixed regime, got {mixed.regime}")
    if not np.any(np.asarray(mask) == 1.0):
        raise DegenerateDataError("no proposed segments; cannot train task 2")
    rng = np.random.default_rng(seed)
    model = SequenceClassifier.init(rng, 3, cfg.hidden, 2)
    xs, ys = chunk_series(std.apply(mixed.features()),
                          task2_labels(mixed.anomaly, mask), cfg.chunk_len)
    return _seq_job(model, xs, ys, cfg, rng, rare=(ys == 2).any(axis=1))


def train_task2(blocks: list[tuple[TimeSeriesDataset, np.ndarray, Standardizer, int]],
                cfg: TaskNetConfig) -> list[Trained]:
    """Task 2 on each (mixed block, task-1 mask, standardizer, seed), the nets
    trained as one group. Per block: its model, or the FaultlabError that
    stopped it."""
    return _train_group([attempt(_task2_job, *block, cfg) for block in blocks])


def task2_score(model: SequenceClassifier, x_std: np.ndarray, segments: list[Segment],
                chunk_len: int = 64) -> np.ndarray:
    """O_t2 of a standardized (T, 3) series: anomaly probability inside
    segments, exactly 0 outside."""
    mask = segments_to_mask(segments, len(x_std))
    probs = model.infer_series(x_std, chunk_len)
    return np.where(mask == 1.0, probs[:, 1], 0.0)


# --- segclass coupling ----------------------------------------------------------

def warm_start_bias(seg_model: ClassifierModel, x: np.ndarray,
                    segments: list[Segment], seg_cfg: SegclassConfig) -> np.ndarray:
    """Head-bias prior distilled from segment-classifier predictions.

    Each window inside a proposed segment casts its predicted class onto the
    steps it covers; later windows overwrite overlaps, which is fine for
    counting. Steps voted as fault class c count toward class c; all
    unassigned steps count toward class 12. Laplace smoothing keeps every
    bias finite.
    """
    votes = np.zeros(len(x), dtype=np.int64)  # 0 = unassigned
    w, s = seg_cfg.window, seg_cfg.stride
    spans = [(seg.start, seg.end) for seg in segments if seg.end - seg.start >= w]
    if spans:
        preds, _ = predict_batch(seg_model, np.concatenate(
            [windowize_features(x[a:b], w, s) for a, b in spans]))
        starts = np.concatenate([np.arange(a, b - w + 1, s) for a, b in spans])
        for start, pred in zip(starts, preds):
            votes[start:start + w] = pred
    per_vote = np.bincount(votes, minlength=N_CLASSES)  # index 0 = unassigned
    counts = np.append(per_vote[1:N_CLASSES], per_vote[0]).astype(float)
    smooth = seg_cfg.prior_smoothing_frac * len(x)
    priors = (counts + smooth) / (counts.sum() + N_CLASSES * smooth)
    return np.log(priors)


# --- Task 3 ---------------------------------------------------------------------

def _task3_job(inputs: np.ndarray, labels: np.ndarray, seed: int,
               init_bias: np.ndarray | None, cfg: TaskNetConfig) -> TrainJob:
    rng = np.random.default_rng(seed)
    model = SequenceClassifier.init(rng, inputs.shape[1], cfg.hidden, N_CLASSES)
    if init_bias is not None:
        if init_bias.shape != (N_CLASSES,):
            raise ShapeMismatchError(f"init bias shape {init_bias.shape}")
        model.head.b[:] = init_bias
    xs, ys = chunk_series(inputs, labels, cfg.chunk_len)
    rare = ((ys >= 1) & (ys < N_CLASSES)).any(axis=1)
    return _seq_job(model, xs, ys, cfg, rng, rare=rare)


def train_task3(nets: list[tuple[np.ndarray, np.ndarray, int, np.ndarray | None]],
                cfg: TaskNetConfig) -> list[Trained]:
    """The 12-way per-step classifier on each (task 3's (T, 5) inputs, labels,
    seed, head-bias warm start or None), with the sequence cross entropy loss,
    the nets trained as one group. Per net: its model, or the FaultlabError
    that stopped it."""
    return _train_group([attempt(_task3_job, *net, cfg) for net in nets])


def predict_classes(probs: np.ndarray) -> np.ndarray:
    """Argmax with ties broken toward class 12 (no fault)."""
    best = probs.max(axis=-1)
    classes = np.argmax(probs, axis=-1) + 1
    classes[probs[:, N_CLASSES - 1] >= best] = N_CLASSES
    return classes


# --- one cascade path ------------------------------------------------------------

def variant_stages(variant: str) -> Stages:
    if variant not in VARIANTS:  # not the dict: an unhashable value must not raise TypeError
        raise InvariantViolation(f"unknown variant {variant!r}")
    return VARIANT_STAGES[variant]


@dataclass
class SmtcnnModels:
    """One variant's trained models. `seg_model` and `seg_cfg` act only in
    training (task 3's warm start): `save_models` writes them as a record that
    is never read back, so `load_models` leaves both None."""

    variant: str
    autoencoder: LstmAutoencoder | None
    threshold: ThresholdSpec | None
    seg_model: ClassifierModel | None
    task2: SequenceClassifier
    task3: SequenceClassifier
    std: Standardizer
    cpd_cfg: CpdConfig
    seg_cfg: SegclassConfig | None
    chunk_len: int = 64

    def __post_init__(self):
        variant_stages(self.variant)


def task1_proposal(variant: str, length: int, errors: np.ndarray | None,
                   threshold: ThresholdSpec | None, cpd_cfg: CpdConfig,
                   ) -> tuple[list[Segment], np.ndarray]:
    """Task 1: the window errors of a `length`-step series -> segments, 0/1 mask.

    A variant without the change-point stage (b2_no_cpd) proposes one
    segment over the whole series and reads no errors.
    """
    if not variant_stages(variant).cpd:
        return [Segment(0, length)], np.ones(length)
    if errors is None or threshold is None:
        raise InvariantViolation(f"variant {variant} needs change-point errors and a threshold")
    return propose_segments(errors, threshold, cpd_cfg, length)


def build_task3_inputs(task2: SequenceClassifier, std: Standardizer, x: np.ndarray,
                       segments: list[Segment], mask: np.ndarray, chunk_len: int) -> np.ndarray:
    """Task 2 over a raw (T, 3) series and its task-1 proposal -> task 3's
    per-step inputs X_std | O_t1 | O_t2, (T, 5)."""
    if len(mask) != len(x):
        raise ShapeMismatchError(f"task 1 mask of {len(mask)} steps for {len(x)} steps")
    x_std = std.apply(x)
    return np.column_stack([x_std, mask, task2_score(task2, x_std, segments, chunk_len)])


def task3_predict(task3: SequenceClassifier, inputs: np.ndarray,
                  chunk_len: int) -> CascadePrediction:
    """Task 3 over its (T, 5) inputs -> per-step probabilities and classes."""
    probs = task3.infer_series(inputs, chunk_len)
    classes = predict_classes(probs)
    return CascadePrediction(classes=classes, anomaly=classes != NO_FAULT, probs=probs)


def smtcnn_infer(series, models: SmtcnnModels) -> CascadePrediction:
    """Tasks 1 -> 2 -> 3 in pipeline order."""
    x = as_features(series)
    errors = None if models.autoencoder is None else reconstruction_errors(models.autoencoder, x)
    segments, mask = task1_proposal(models.variant, len(x), errors, models.threshold,
                                    models.cpd_cfg)
    inputs = build_task3_inputs(models.task2, models.std, x, segments, mask, models.chunk_len)
    return task3_predict(models.task3, inputs, models.chunk_len)


# --- persistence ---------------------------------------------------------------

def cpd_to_checkpoint(auto: LstmAutoencoder, threshold: ThresholdSpec,
                      cpd_cfg: CpdConfig) -> Checkpoint:
    """Autoencoder weights plus the frozen threshold and segment params."""
    ckpt = auto.to_checkpoint()
    ckpt.meta["threshold"] = {"mu": threshold.mu, "sigma": threshold.sigma,
                              "k": threshold.k, "tau": threshold.tau}
    ckpt.meta["min_gap"] = cpd_cfg.min_gap
    ckpt.meta["min_len"] = cpd_cfg.min_len
    return ckpt


def save_models(models: SmtcnnModels, out_dir) -> None:
    from pathlib import Path

    from .nncore import save_checkpoint
    from .segclass import to_checkpoint as seg_to_checkpoint

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if models.autoencoder is not None:
        save_checkpoint(cpd_to_checkpoint(models.autoencoder, models.threshold,
                                          models.cpd_cfg), out / "cpd.json")
    if models.seg_model is not None:
        save_checkpoint(seg_to_checkpoint(models.seg_model), out / "segclass.json")
    save_checkpoint(models.task2.to_checkpoint("task2", {"variant": models.variant}),
                    out / "task2.json")
    save_checkpoint(models.task3.to_checkpoint("task3", {"variant": models.variant}),
                    out / "task3.json")
    meta = {"variant": models.variant, "chunk_len": models.chunk_len}
    if models.seg_cfg is not None:  # loaded models keep no record to write back
        meta.update(seg_window=models.seg_cfg.window, seg_stride=models.seg_cfg.stride)
    manifest = Checkpoint(kind="smtcnn_manifest", meta=meta,
                          arrays={"std_mu": models.std.mu, "std_sd": models.std.sd})
    save_checkpoint(manifest, out / "manifest.json")


def load_models(model_dir) -> SmtcnnModels:
    from pathlib import Path

    from .errors import ConfigError
    from .nncore import load_checkpoint

    d = Path(model_dir)

    def load(name: str, kind: str, parse):
        path = d / f"{name}.json"
        if not path.exists():
            raise ConfigError(f"missing model file: {path}")
        try:
            return parse(load_checkpoint(path, expect_kind=kind))
        except KeyError as exc:
            raise ConfigError(f"{path}: missing key {exc}") from None
        except (TypeError, ValueError) as exc:  # wrong-typed or wrong-shaped values
            raise ConfigError(f"{path}: {exc}") from None

    def parse_manifest(m: Checkpoint):
        chunk_len = m.meta["chunk_len"]
        TaskNetConfig(chunk_len=chunk_len).validate()
        std = Standardizer(m.arrays["std_mu"], m.arrays["std_sd"])
        std.validate(N_CHANNELS)
        variant = m.meta["variant"]
        return variant, variant_stages(variant), chunk_len, std

    def parse_cpd(ckpt: Checkpoint):
        cpd_cfg = CpdConfig(window=ckpt.meta["window"], min_gap=ckpt.meta["min_gap"],
                            min_len=ckpt.meta["min_len"])
        cpd_cfg.validate()
        auto = LstmAutoencoder.from_checkpoint(ckpt)
        t = ckpt.meta["threshold"]
        threshold = ThresholdSpec(mu=t["mu"], sigma=t["sigma"], k=t["k"], tau=t["tau"])
        return auto, threshold, cpd_cfg

    variant, use, chunk_len, std = load("manifest", "smtcnn_manifest", parse_manifest)
    auto = threshold = None
    cpd_cfg = CpdConfig()
    if use.cpd:
        auto, threshold, cpd_cfg = load("cpd", "lstm_autoencoder", parse_cpd)

    return SmtcnnModels(
        variant=variant, autoencoder=auto, threshold=threshold, seg_model=None,
        task2=load("task2", "task2", SequenceClassifier.from_checkpoint),
        task3=load("task3", "task3", SequenceClassifier.from_checkpoint),
        std=std, cpd_cfg=cpd_cfg, seg_cfg=None, chunk_len=chunk_len,
    )
