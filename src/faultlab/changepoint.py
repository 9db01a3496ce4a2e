"""Unsupervised change-point detection.

One LSTM encoder per channel reads a standardized window; the final hidden
states are concatenated into a latent z, and a single LSTM that reads z at
each of the W steps, plus an identity dense head, decodes it back to the
window. Windows that reconstruct badly (error > tau = mu + k*sigma of the
normal training errors) are change-points, and runs of flagged windows become
proposed segments.

Scoring runs the stride-1 windows through the autoencoder in batches of at
most SCORE_BATCH. The forward step is bound by its elementwise passes, so it
runs fastest when one step's temporaries stay in the core's 2 MiB L2 cache:
a (B, 4H) decoder temporary takes 512 KiB at B = 512 and 4 MiB at 4096. On a
2-core x86 host, 8192 windows scored at 16.5k windows/s in batches of 4096,
20.8k at 1024, 22.7k at 512, 23.0k at 256 and 20.6k at 128, with the same
errors byte for byte. 512 is the largest batch on that plateau; below it the
per-call overhead of the NumPy steps starts to show. The batches are
near-equal in size (`nncore.layers.batch_bounds`), so that a window's error
does not depend on where the series was cut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import CpdConfig
from .errors import InvariantViolation, ShapeMismatchError
from .nncore import (
    AdamState,
    Checkpoint,
    DenseParams,
    EarlyStopConfig,
    LstmCellParams,
    Standardizer,
    TrainJob,
    dense_forward_batch,
    mse_loss,
    train,
)
from .nncore.layers import (
    batch_bounds,
    dense_backward_batch,
    lstm_backward_batch,
    lstm_forward_batch,
)
from .simgen import TimeSeriesDataset

N_CHANNELS = 3
# Most windows per forward pass of reconstruction_errors: one step's
# temporaries then fit in L2 (see the module docstring). The batches are
# near-equal, so each holds at least min(n, SCORE_BATCH // 2) windows.
SCORE_BATCH = 512


@dataclass
class ThresholdSpec:
    mu: float
    sigma: float
    k: float
    tau: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.mu, self.sigma, self.k, self.tau))):
            raise InvariantViolation("threshold values must be finite")
        if self.sigma < 0:
            raise InvariantViolation("sigma must be >= 0")
        if abs(self.tau - (self.mu + self.k * self.sigma)) > 1e-9 * max(1.0, abs(self.tau)):
            raise InvariantViolation("tau != mu + k*sigma")


@dataclass
class Segment:
    """Half-open record-index interval [start, end)."""

    start: int
    end: int

    def __post_init__(self):
        if not 0 <= self.start < self.end:
            raise InvariantViolation(f"bad segment [{self.start}, {self.end})")

    def __len__(self) -> int:
        return self.end - self.start


class LstmAutoencoder:
    """Per-channel encoders + joint decoder + identity head."""

    def __init__(self, encoders: list[LstmCellParams], decoder: LstmCellParams,
                 head: DenseParams, window: int, std: Standardizer):
        if len(encoders) != N_CHANNELS:
            raise ShapeMismatchError(f"expected {N_CHANNELS} encoders, got {len(encoders)}")
        latent = sum(e.hidden_size for e in encoders)
        if decoder.input_size != latent:
            raise ShapeMismatchError(
                f"decoder input {decoder.input_size} != concat latent {latent}"
            )
        self.encoders = encoders
        self.decoder = decoder
        self.head = head
        self.window = window
        self.std = std
        self.train_result = None

    @classmethod
    def init(cls, rng: np.random.Generator, cfg: CpdConfig,
             std: Standardizer) -> "LstmAutoencoder":
        encoders = [LstmCellParams.init(rng, 1, cfg.enc_hidden) for _ in range(N_CHANNELS)]
        decoder = LstmCellParams.init(rng, N_CHANNELS * cfg.enc_hidden, cfg.dec_hidden)
        head = DenseParams.init(rng, cfg.dec_hidden, N_CHANNELS, activation="identity")
        return cls(encoders, decoder, head, cfg.window, std)

    # -- parameter plumbing ---------------------------------------------
    def param_arrays(self) -> list[np.ndarray]:
        arrays = []
        for enc in self.encoders:
            arrays += [enc.w_input, enc.w_hidden, enc.bias]
        arrays += [self.decoder.w_input, self.decoder.w_hidden, self.decoder.bias]
        arrays += [self.head.w, self.head.b]
        return arrays

    # -- forward / backward ----------------------------------------------
    def _forward(self, xs: np.ndarray, want_cache: bool):
        """xs: standardized (B, W, 3). Returns (recon, caches)."""
        if xs.ndim != 3 or xs.shape[2] != N_CHANNELS:
            raise ShapeMismatchError(f"expected (B, W, {N_CHANNELS}) windows, got {xs.shape}")
        nb, nw = xs.shape[0], xs.shape[1]
        z = np.empty((nb, self.decoder.input_size))
        col = 0
        enc_caches = []
        for ch, enc in enumerate(self.encoders):
            hs, cache = lstm_forward_batch(xs[:, :, ch:ch + 1], enc, want_cache=want_cache)
            # Copy the final state into z and drop hs, so that no view keeps
            # the (B, W, H) outputs alive through the decoder.
            z[:, col:col + enc.hidden_size] = hs[:, -1, :]
            col += enc.hidden_size
            enc_caches.append(cache)
            del hs
        # A zero-copy view: the decoder sees z at every step and projects it once.
        dec_in = np.broadcast_to(z[:, None, :], (nb, nw, z.shape[1]))
        hd, dec_cache = lstm_forward_batch(dec_in, self.decoder, want_cache=want_cache)
        recon = dense_forward_batch(hd, self.head)
        caches = (enc_caches, dec_cache, hd) if want_cache else None
        return recon, caches

    def loss(self, batch: np.ndarray) -> float:
        recon, _ = self._forward(batch, want_cache=False)
        value, _ = mse_loss(recon, batch)
        return value

    def loss_and_grads(self, batch: np.ndarray) -> tuple[float, list[np.ndarray]]:
        """batch: standardized windows (B, W, 3)."""
        recon, caches = self._forward(batch, want_cache=True)
        enc_caches, dec_cache, hd = caches
        value, d_recon = mse_loss(recon, batch)

        dw_head, db_head, dhd = dense_backward_batch(hd, recon, d_recon, self.head)
        dec_grads = lstm_backward_batch(dec_cache, dhd)
        dz = dec_grads.x.sum(axis=1)  # the decoder reads z at every step

        arrays = []
        h = self.encoders[0].hidden_size
        for ch, cache in enumerate(enc_caches):
            g = lstm_backward_batch(cache, dh_last=dz[:, ch * h:(ch + 1) * h], want_dx=False)
            arrays += [g.w_input, g.w_hidden, g.bias]
        arrays += [dec_grads.w_input, dec_grads.w_hidden, dec_grads.bias]
        arrays += [dw_head, db_head]
        return value, arrays

    # -- persistence -------------------------------------------------------
    def to_checkpoint(self) -> Checkpoint:
        arrays = {"mu": self.std.mu, "sd": self.std.sd,
                  "dec_wx": self.decoder.w_input, "dec_wh": self.decoder.w_hidden,
                  "dec_b": self.decoder.bias, "head_w": self.head.w, "head_b": self.head.b}
        for ch, enc in enumerate(self.encoders):
            arrays[f"enc{ch}_wx"] = enc.w_input
            arrays[f"enc{ch}_wh"] = enc.w_hidden
            arrays[f"enc{ch}_b"] = enc.bias
        return Checkpoint(kind="lstm_autoencoder", meta={"window": self.window}, arrays=arrays)

    @classmethod
    def from_checkpoint(cls, ckpt: Checkpoint) -> "LstmAutoencoder":
        encoders = [
            LstmCellParams(ckpt.arrays[f"enc{ch}_wx"], ckpt.arrays[f"enc{ch}_wh"],
                           ckpt.arrays[f"enc{ch}_b"])
            for ch in range(N_CHANNELS)
        ]
        decoder = LstmCellParams(ckpt.arrays["dec_wx"], ckpt.arrays["dec_wh"],
                                 ckpt.arrays["dec_b"])
        for cell in (*encoders, decoder):
            cell.validate()
        head = DenseParams(ckpt.arrays["head_w"], ckpt.arrays["head_b"], "identity")
        std = Standardizer(ckpt.arrays["mu"], ckpt.arrays["sd"])
        std.validate(N_CHANNELS)
        return cls(encoders, decoder, head, int(ckpt.meta["window"]), std)


def as_features(series) -> np.ndarray:
    """(T, 3) float feature matrix of a dataset or of an array-like series."""
    if isinstance(series, TimeSeriesDataset):
        return series.features()
    x = np.asarray(series, dtype=float)
    if x.ndim != 2 or x.shape[1] != N_CHANNELS:
        raise ShapeMismatchError(f"expected (T, {N_CHANNELS}) series, got {x.shape}")
    return x


def sliding_windows(x: np.ndarray, window: int) -> np.ndarray:
    """(T, C) -> (T - W + 1, W, C), stride 1, read-only views."""
    if len(x) < window:
        raise ShapeMismatchError(f"series length {len(x)} shorter than window {window}")
    return np.lib.stride_tricks.sliding_window_view(x, window, axis=0).transpose(0, 2, 1)


def train_autoencoder(normal: TimeSeriesDataset, cfg: CpdConfig,
                      seed: int = 0) -> LstmAutoencoder:
    """Fit the autoencoder on normal data only (unsupervised contract)."""
    if normal.regime != "normal_only":
        raise InvariantViolation(
            f"autoencoder must train on normal_only data, got {normal.regime}"
        )
    x = normal.features()
    if len(x) < cfg.window:
        raise InvariantViolation("normal series shorter than one window")
    rng = np.random.default_rng(seed)

    model = LstmAutoencoder.init(rng, cfg, Standardizer.fit(x))

    n_positions = len(x) - cfg.window + 1
    n_take = min(cfg.max_train_windows, n_positions)
    positions = rng.choice(n_positions, size=n_take, replace=False)
    windows = model.std.apply(sliding_windows(x, cfg.window)[positions])
    n_val = max(1, int(cfg.val_frac * n_take))
    val, trn = windows[:n_val], windows[n_val:]
    if len(trn) == 0:
        trn = val

    def make_batches(batch_rng: np.random.Generator):
        order = batch_rng.permutation(len(trn))
        return [trn[order[i:i + cfg.batch_windows]]
                for i in range(0, len(order), cfg.batch_windows)]

    job = TrainJob(model, make_batches, val, adam=AdamState(alpha=cfg.lr),
                   max_epochs=cfg.max_epochs,
                   early=EarlyStopConfig(patience=cfg.patience, min_delta=cfg.min_delta),
                   rng=rng)
    model.train_result = train([job]).result(0)
    return model


def reconstruction_errors(model: LstmAutoencoder, series) -> np.ndarray:
    """Per-window MSE in standardized space; length T - W + 1, stride 1.

    The windows are scored in near-equal batches of at most SCORE_BATCH, so
    the errors of any stretch of the series are a slice of the whole
    series' errors, byte for byte.
    """
    x = as_features(series)
    windows = sliding_windows(x, model.window)
    bounds = batch_bounds(len(windows), SCORE_BATCH)
    out = np.empty(len(windows))
    std = model.std
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        # the same (x - mu) / sd and (recon - x)^2 as Standardizer.apply and
        # the plain MSE, computed in the batch's own buffers
        chunk = np.subtract(windows[lo:hi], std.mu, order="C")
        chunk /= std.sd
        diff, _ = model._forward(chunk, want_cache=False)
        diff -= chunk
        diff *= diff
        out[lo:hi] = np.mean(diff, axis=(1, 2))
    return out


def compute_threshold(errors: np.ndarray, k: float) -> ThresholdSpec:
    """tau = mu + k*sigma over the given errors (population sigma)."""
    errors = np.asarray(errors, dtype=float)
    if errors.size == 0:
        raise InvariantViolation("cannot compute threshold from empty errors")
    mu = float(np.mean(errors))
    sigma = float(np.std(errors))
    return ThresholdSpec(mu=mu, sigma=sigma, k=float(k), tau=mu + k * sigma)


def detect_changepoints(errors: np.ndarray, spec: ThresholdSpec) -> np.ndarray:
    """Boolean flags, strict inequality: error > tau."""
    return np.asarray(errors, dtype=float) > spec.tau


def flags_to_segments(flags: np.ndarray, min_gap: int = 0, min_len: int = 0,
                      window: int = 1) -> list[Segment]:
    """Merge runs of true flags into record-index segments.

    Runs separated by fewer than min_gap false flags are merged, merged runs
    shorter than min_len (in window positions) are dropped, and a surviving
    run [s, e) of window indices covers records [s, e - 1 + window).
    """
    if min_gap < 0 or min_len < 0:
        raise InvariantViolation("min_gap and min_len must be >= 0")
    flags = np.asarray(flags, dtype=bool)
    runs: list[list[int]] = []
    t = 0
    n = len(flags)
    while t < n:
        if flags[t]:
            s = t
            while t < n and flags[t]:
                t += 1
            runs.append([s, t])
        else:
            t += 1

    merged: list[list[int]] = []
    for run in runs:
        if merged and run[0] - merged[-1][1] < min_gap:
            merged[-1][1] = run[1]
        else:
            merged.append(run)

    return [
        Segment(s, e - 1 + window)
        for s, e in merged
        if e - s >= max(min_len, 1)
    ]


def propose_segments(errors: np.ndarray, threshold: ThresholdSpec, cfg: CpdConfig,
                     length: int) -> tuple[list[Segment], np.ndarray]:
    """Task 1: window errors of a `length`-step series -> segments and 0/1 mask."""
    flags = detect_changepoints(errors, threshold)
    segments = flags_to_segments(flags, min_gap=cfg.min_gap, min_len=cfg.min_len,
                                 window=cfg.window)
    return segments, segments_to_mask(segments, length)


def segments_to_mask(segments: list[Segment], length: int) -> np.ndarray:
    mask = np.zeros(length, dtype=float)
    for seg in segments:
        if seg.end > length:
            raise InvariantViolation(f"segment [{seg.start},{seg.end}) exceeds length {length}")
        mask[seg.start:seg.end] = 1.0
    return mask
