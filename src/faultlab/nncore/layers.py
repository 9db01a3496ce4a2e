"""LSTM and dense layer primitives with hand-derived backward passes, plus
the z-score Standardizer every model applies to its inputs.

All math is float64. Batched sequence arrays are shaped (B, T, dim); the
thin single-sequence wrappers near the bottom take (T, dim) and plain
vectors, and serve the tests as reference oracles for the batched pass.

LSTM gate layout: the 4H rows of ``w_input``/``w_hidden`` (and entries of
``bias``) are sliced as [input gate | forget gate | candidate | output gate].
Gates use the logistic sigmoid, the candidate uses tanh.

The batched LSTM keeps the per-step floating-point work fixed: every step
runs the same GEMMs and elementwise operations, in the same order, whatever
the call needs around them. Only the work a call does not need is left out:

- An input that is constant over time, passed as a zero-stride view such as
  ``np.broadcast_to(z[:, None, :], (B, T, D))``, is projected once per call
  instead of once per step; it is the same (B, D) @ (D, 4H) product on the
  same rows.
- Without ``want_cache`` the forward pass keeps no per-step gates or cell
  states, only the hidden outputs it returns.
- The backward pass takes no per-step gradient when only the final state
  feeds downstream (``dh_seq=None``), and computes no input gradient when
  nothing reads it (``want_dx=False``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvariantViolation, ShapeMismatchError

ACTIVATIONS = ("identity", "softmax")


def sigmoid(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + e) for x >= 0 and e / (1 + e) below, with e = exp(-|x|), so
    # exp never overflows. min(x, -x) is -|x| that also keeps a NaN's sign.
    e = np.negative(x, out=np.empty_like(x))
    np.exp(np.minimum(x, e, out=e), out=e)
    num = np.where(x >= 0, 1.0, e)
    e += 1.0
    return np.divide(num, e, out=num)


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Shift-invariant softmax; rows sum to 1 and are strictly positive."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    ex = np.exp(shifted)
    return ex / np.sum(ex, axis=axis, keepdims=True)


@dataclass
class Standardizer:
    """Per-column z-score: (x - mu) / sd, with sd floored at 1e-9."""

    mu: np.ndarray
    sd: np.ndarray

    @classmethod
    def fit(cls, x: np.ndarray) -> "Standardizer":
        return cls(x.mean(axis=0), np.maximum(x.std(axis=0), 1e-9))

    def apply(self, x: np.ndarray) -> np.ndarray:
        return (x - self.mu) / self.sd

    def validate(self, n_cols: int) -> None:
        if self.mu.shape != (n_cols,) or self.sd.shape != (n_cols,):
            raise ShapeMismatchError(
                f"standardizer shapes {self.mu.shape}/{self.sd.shape}, expected ({n_cols},)")
        if not (np.all(np.isfinite(self.mu)) and np.all(self.sd > 0)):
            raise InvariantViolation("standardizer needs a finite mu and a positive sd")


@dataclass
class LstmCellParams:
    """Weights of one LSTM cell.

    w_input: (4H, D), w_hidden: (4H, H), bias: (4H,).
    """

    w_input: np.ndarray
    w_hidden: np.ndarray
    bias: np.ndarray

    @property
    def hidden_size(self) -> int:
        return self.w_hidden.shape[1]

    @property
    def input_size(self) -> int:
        return self.w_input.shape[1]

    def validate(self) -> None:
        if self.w_input.ndim != 2 or self.w_hidden.ndim != 2:
            raise ShapeMismatchError("LSTM weights must be matrices")
        h = self.hidden_size
        if self.w_input.shape[0] != 4 * h or self.w_hidden.shape != (4 * h, h):
            raise ShapeMismatchError(
                f"inconsistent LSTM shapes: w_input {self.w_input.shape}, "
                f"w_hidden {self.w_hidden.shape}"
            )
        if self.bias.shape != (4 * h,):
            raise ShapeMismatchError(f"bias shape {self.bias.shape}, expected ({4 * h},)")
        for arr in (self.w_input, self.w_hidden, self.bias):
            if not np.all(np.isfinite(arr)):
                raise ShapeMismatchError("non-finite LSTM parameter")

    @classmethod
    def init(cls, rng: np.random.Generator, input_size: int, hidden_size: int) -> "LstmCellParams":
        """Uniform +-1/sqrt(fan_in) weights, zero bias."""
        lim_x = 1.0 / np.sqrt(input_size)
        lim_h = 1.0 / np.sqrt(hidden_size)
        return cls(
            w_input=rng.uniform(-lim_x, lim_x, size=(4 * hidden_size, input_size)),
            w_hidden=rng.uniform(-lim_h, lim_h, size=(4 * hidden_size, hidden_size)),
            bias=np.zeros(4 * hidden_size),
        )

    @classmethod
    def zeros(cls, input_size: int, hidden_size: int) -> "LstmCellParams":
        return cls(
            w_input=np.zeros((4 * hidden_size, input_size)),
            w_hidden=np.zeros((4 * hidden_size, hidden_size)),
            bias=np.zeros(4 * hidden_size),
        )


@dataclass
class DenseParams:
    """Fully connected layer: activation(w @ x + b). w: (out, in), b: (out,)."""

    w: np.ndarray
    b: np.ndarray
    activation: str = "identity"

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def out_size(self) -> int:
        return self.w.shape[0]

    @property
    def in_size(self) -> int:
        return self.w.shape[1]

    @classmethod
    def init(cls, rng: np.random.Generator, in_size: int, out_size: int,
             activation: str = "identity") -> "DenseParams":
        lim = 1.0 / np.sqrt(in_size)
        return cls(
            w=rng.uniform(-lim, lim, size=(out_size, in_size)),
            b=np.zeros(out_size),
            activation=activation,
        )


@dataclass
class LstmCache:
    """Forward-pass intermediates needed by lstm_backward_batch."""

    x: np.ndarray        # (B, T, D)
    gate_i: np.ndarray   # (B, T, H)
    gate_f: np.ndarray
    gate_g: np.ndarray
    gate_o: np.ndarray
    c: np.ndarray        # cell states after each step
    tanh_c: np.ndarray
    h: np.ndarray        # hidden outputs
    h0: np.ndarray       # (B, H)
    c0: np.ndarray
    params: LstmCellParams


@dataclass
class LstmGrads:
    w_input: np.ndarray
    w_hidden: np.ndarray
    bias: np.ndarray
    x: np.ndarray | None  # gradient w.r.t. the input sequence, None if not asked for
    h0: np.ndarray
    c0: np.ndarray


def lstm_forward_batch(
    x: np.ndarray,
    p: LstmCellParams,
    h0: np.ndarray | None = None,
    c0: np.ndarray | None = None,
    want_cache: bool = False,
) -> tuple[np.ndarray, LstmCache | None]:
    """Run an LSTM over a batch of sequences.

    x: (B, T, D) -> hidden outputs (B, T, H). A zero-stride time axis marks an
    input that is constant over time; its projection is computed once.
    """
    if x.ndim != 3:
        raise ShapeMismatchError(f"expected (B, T, D) input, got shape {x.shape}")
    nb, nt, nd = x.shape
    if nt == 0:
        raise ShapeMismatchError("empty sequence (T=0)")
    if nd != p.input_size:
        raise ShapeMismatchError(f"input dim {nd} != layer input size {p.input_size}")
    nh = p.hidden_size
    h_prev = np.zeros((nb, nh)) if h0 is None else h0
    c_prev = np.zeros((nb, nh)) if c0 is None else c0
    if h_prev.shape != (nb, nh) or c_prev.shape != (nb, nh):
        raise ShapeMismatchError("initial state shape mismatch")

    wx_t = p.w_input.T   # (D, 4H)
    wh_t = p.w_hidden.T  # (H, 4H)
    x_proj = x[:, 0] @ wx_t if x.strides[1] == 0 else None
    hs = np.empty((nb, nt, nh))
    if want_cache:
        gi, gf, gg, go, cs, tcs = (np.empty((nb, nt, nh)) for _ in range(6))
    h0_saved, c0_saved = h_prev, c_prev

    for t in range(nt):
        # (x W_x^T + h W_h^T) + b and f c + i g, summed in place; the sums
        # commute, so the bits are those of the textbook expressions.
        a = h_prev @ wh_t
        a += x[:, t] @ wx_t if x_proj is None else x_proj
        a += p.bias
        i_f = sigmoid(a[:, :2 * nh])
        i, f = i_f[:, :nh], i_f[:, nh:]
        g = np.tanh(a[:, 2 * nh:3 * nh])
        o = sigmoid(a[:, 3 * nh:])
        c = f * c_prev
        c += i * g
        tc = np.tanh(c)
        h_prev = np.multiply(o, tc, out=hs[:, t])
        if want_cache:
            gi[:, t], gf[:, t], gg[:, t], go[:, t] = i, f, g, o
            cs[:, t], tcs[:, t] = c, tc
        c_prev = c

    cache = None
    if want_cache:
        cache = LstmCache(x, gi, gf, gg, go, cs, tcs, hs, h0_saved, c0_saved, p)
    return hs, cache


def lstm_backward_batch(
    cache: LstmCache,
    dh_seq: np.ndarray | None = None,
    dh_last: np.ndarray | None = None,
    dc_last: np.ndarray | None = None,
    want_dx: bool = True,
) -> LstmGrads:
    """Backpropagate through time.

    dh_seq: (B, T, H) upstream gradient on every hidden output, or None when
    only the final state feeds downstream; dh_last/dc_last add extra gradient
    on the final hidden/cell state. With want_dx=False the input gradient is
    not computed and the returned ``x`` is None.
    """
    p = cache.params
    nb, nt, nd = cache.x.shape
    nh = p.hidden_size
    if dh_seq is not None and dh_seq.shape != cache.h.shape:
        raise ShapeMismatchError("dh_seq shape mismatch")

    d_wx = np.zeros_like(p.w_input)
    d_wh = np.zeros_like(p.w_hidden)
    d_b = np.zeros_like(p.bias)
    dx = np.empty((nb, nt, nd)) if want_dx else None  # C order, also for a broadcast x
    da = np.empty((nb, 4 * nh))  # same gate order as the parameter rows
    dh_carry = np.zeros((nb, nh)) if dh_last is None else dh_last.copy()
    dc_carry = np.zeros((nb, nh)) if dc_last is None else dc_last.copy()

    for t in range(nt - 1, -1, -1):
        i, f, g, o = cache.gate_i[:, t], cache.gate_f[:, t], cache.gate_g[:, t], cache.gate_o[:, t]
        tc = cache.tanh_c[:, t]
        c_prev = cache.c[:, t - 1] if t > 0 else cache.c0
        h_prev = cache.h[:, t - 1] if t > 0 else cache.h0

        dh = dh_carry if dh_seq is None else dh_seq[:, t] + dh_carry
        do = dh * tc
        dc = dh * o * (1.0 - tc * tc) + dc_carry
        di = dc * g
        dg = dc * i
        df = dc * c_prev
        dc_carry = dc * f

        np.multiply(di * i, 1.0 - i, out=da[:, :nh])
        np.multiply(df * f, 1.0 - f, out=da[:, nh:2 * nh])
        np.multiply(dg, 1.0 - g * g, out=da[:, 2 * nh:3 * nh])
        np.multiply(do * o, 1.0 - o, out=da[:, 3 * nh:])
        d_wx += da.T @ cache.x[:, t]
        d_wh += da.T @ h_prev
        d_b += da.sum(axis=0)
        if dx is not None:
            dx[:, t] = da @ p.w_input
        dh_carry = da @ p.w_hidden

    return LstmGrads(d_wx, d_wh, d_b, dx, dh_carry, dc_carry)


def dense_forward_batch(x: np.ndarray, p: DenseParams) -> np.ndarray:
    """Apply a dense layer to the last axis of x (any leading shape)."""
    if x.shape[-1] != p.in_size:
        raise ShapeMismatchError(f"input dim {x.shape[-1]} != layer in_size {p.in_size}")
    z = x @ p.w.T + p.b
    if p.activation == "identity":
        return z
    return softmax(z, axis=-1)


def dense_backward_batch(
    x: np.ndarray, out: np.ndarray, d_out: np.ndarray, p: DenseParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradient of a dense layer given upstream d_out.

    Returns (dw, db, dx). `out` must be the forward activation output for the
    same x. Works on any leading shape; parameters accumulate over it.
    """
    if p.activation == "identity":
        dz = d_out
    else:  # softmax: full Jacobian-vector product, row-wise
        dz = out * (d_out - np.sum(d_out * out, axis=-1, keepdims=True))
    flat_x = x.reshape(-1, p.in_size)
    flat_dz = dz.reshape(-1, p.out_size)
    dw = flat_dz.T @ flat_x
    db = flat_dz.sum(axis=0)
    dx = dz @ p.w
    return dw, db, dx


# --- single-sequence / vector wrappers -------------------------------------

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


def lstm_layer_forward(
    seq: np.ndarray,
    p: LstmCellParams,
    h0: np.ndarray | None = None,
    c0: np.ndarray | None = None,
) -> np.ndarray:
    """Run the cell over a (T, D) sequence; returns the (T, H) hidden sequence."""
    seq = np.asarray(seq, dtype=float)
    if seq.ndim != 2:
        raise ShapeMismatchError(f"expected (T, D) sequence, got shape {seq.shape}")
    if seq.shape[0] == 0:
        raise ShapeMismatchError("empty sequence")
    batched = seq[None, :, :]
    h0b = None if h0 is None else np.asarray(h0, dtype=float)[None, :]
    c0b = None if c0 is None else np.asarray(c0, dtype=float)[None, :]
    hs, _ = lstm_forward_batch(batched, p, h0b, c0b)
    return hs[0]
