"""From-scratch neural numerics: LSTM/dense layers, losses, Adam, training.

Importing this package pins glibc's malloc thresholds (see
`_pin_malloc_thresholds`).
"""

import ctypes

from .layers import (
    DenseParams,
    LstmCellParams,
    Standardizer,
    dense_forward_batch,
    lstm_forward_batch,
    sigmoid,
    softmax,
)
from .losses import mse_loss, one_hot_sequences, sequence_cross_entropy
from .optim import AdamState, adam_step, pack, unpack_into
from .training import EarlyStopConfig, TrainJob, TrainResult, train
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint

__all__ = [
    "AdamState",
    "Checkpoint",
    "DenseParams",
    "EarlyStopConfig",
    "LstmCellParams",
    "Standardizer",
    "TrainJob",
    "TrainResult",
    "adam_step",
    "dense_forward_batch",
    "load_checkpoint",
    "lstm_forward_batch",
    "mse_loss",
    "one_hot_sequences",
    "pack",
    "save_checkpoint",
    "sequence_cross_entropy",
    "sigmoid",
    "softmax",
    "train",
    "unpack_into",
]


def _pin_malloc_thresholds() -> None:
    """Keep freed arrays of up to 8 MiB in glibc's heap for reuse.

    glibc serves an allocation above its mmap threshold (128 KiB at start)
    with a fresh mmap and returns it to the kernel when freed; so each
    training step, which allocates and frees about 17 MB of LSTM caches and
    temporaries at the autoencoder's batch of 256, would fault all of it in
    again. glibc raises the threshold to the size of each larger mmapped
    chunk that is freed, and the trim threshold to twice that, but only as a
    side effect of what happens to be freed first: a freed 16 MiB scoring
    batch used to raise them to 16/32 MiB, while after 512-window scoring
    batches the largest such chunk is about 2 MiB. Setting either value
    turns off glibc's adjustment of both, so both are set, to fixed values
    that do not depend on what ran first.

    Measured per warm `train_autoencoder` call at the benchmark's cpd_detect
    config, with scoring between calls: 4.3k minor faults after 4096-window
    batches, 47k-50k after 512-window batches, 41k with an mmap/trim pair
    of 32/16 MiB, and at most 28 with 8/32 MiB, which also leaves scoring
    with none. A higher mmap threshold keeps the O(T) arrays of a long
    series in the heap, where the freed ones fragment it: a paper-scale
    `faultlab infer` peaked at 237 MB RSS with 32/64 MiB, 221 MB with
    16/64, 204 MB with 8/32 and 213 MB under glibc's own adjustment. This
    is a no-op where the C library has no `mallopt`.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3  # glibc's malloc.h
    mallopt(m_mmap_threshold, 8 << 20)
    mallopt(m_trim_threshold, 32 << 20)


_pin_malloc_thresholds()
