"""From-scratch neural numerics: LSTM/dense layers, losses, Adam, training."""

from .layers import (
    DenseParams,
    LstmCellParams,
    Standardizer,
    dense_forward_batch,
    lstm_cell_forward,
    lstm_forward_batch,
    lstm_layer_forward,
    sigmoid,
    softmax,
)
from .losses import mse_loss, one_hot_sequences, sequence_cross_entropy
from .optim import AdamState, adam_step, pack, unpack_into
from .training import EarlyStopConfig, TrainResult, train
from .gradcheck import GradCheckReport, check_gradients
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint

__all__ = [
    "AdamState",
    "Checkpoint",
    "DenseParams",
    "EarlyStopConfig",
    "GradCheckReport",
    "LstmCellParams",
    "Standardizer",
    "TrainResult",
    "adam_step",
    "check_gradients",
    "dense_forward_batch",
    "load_checkpoint",
    "lstm_cell_forward",
    "lstm_forward_batch",
    "lstm_layer_forward",
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
