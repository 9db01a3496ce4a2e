"""LSTM and dense layer primitives with hand-derived backward passes, plus
the z-score Standardizer every model applies to its inputs.

All math is float64. Batched sequence arrays are shaped (B, T, dim).

LSTM gate layout: the 4H rows of ``w_input``/``w_hidden`` (and entries of
``bias``) are sliced as [input gate | forget gate | candidate | output gate].
Gates use the logistic sigmoid, the candidate uses tanh.

The batched LSTM also runs K independent layers of one shape as one
recurrence over a leading model axis: weights (K, 4H, D), (K, 4H, H) and
(K, 4H) (see ``LstmCellParams.stack``), input (K, B, T, D), states
(K, B, H). The code is the same; every product becomes K products of the
same operands through one ``np.matmul`` call, and every elementwise step
covers all K layers at once. Each layer's outputs and gradients are byte
for byte those of its own call, so a trainer can group models freely; the
gain is fewer NumPy calls per step at small batches, where the step is
bound by call overhead.

The batched LSTM keeps the per-step floating-point work fixed: every step
runs the same products and sums, in the same order, whatever the call needs
around them. What it changes is only how the work is laid out and what is
left out:

- The parameters, their gradients and the checkpoints stay in [i|f|g|o]
  order, but the forward pass computes the pre-activations in [i|f|o|g]
  order, through row-permuted copies of the weights made once per call. The
  three sigmoid gates are then one contiguous block and take one ``sigmoid``
  call per step; permuting a product's output columns leaves its bits alone.
  The backward pass keeps the gate gradients in [i|f|g|o] order.
- A one-wide input (D=1) is projected as the broadcast product
  ``x[:, t] * w``, which is faster than the (B, 1) @ (1, 4H) matrix product
  and, being one rounded product per entry, gives the same sums.
- An input that is constant over time, passed as a zero-stride view such as
  ``np.broadcast_to(z[:, None, :], (B, T, D))``, is projected once per call
  instead of once per step; it is the same product on the same rows.
- Without ``want_cache`` the forward pass keeps no per-step gates or cell
  states, only the hidden outputs it returns. The cache it keeps otherwise
  is time-major, (T, B, H) or (T, K, B, H), so every step writes and the
  backward pass reads contiguous blocks.
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
    # The numerator max(x >= 0, e) is 1 or e, as 0 <= e <= 1.
    e = np.negative(x, out=np.empty_like(x))
    np.exp(np.minimum(x, e, out=e), out=e)
    num = np.greater_equal(x, 0.0, out=np.empty_like(x))
    np.maximum(num, e, out=num)
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

    w_input: (4H, D), w_hidden: (4H, H), bias: (4H,); with a leading model
    axis of K cells when built by `stack`.
    """

    w_input: np.ndarray
    w_hidden: np.ndarray
    bias: np.ndarray

    @property
    def hidden_size(self) -> int:
        return self.w_hidden.shape[-1]

    @property
    def input_size(self) -> int:
        return self.w_input.shape[-1]

    @classmethod
    def stack(cls, cells: list["LstmCellParams"]) -> "LstmCellParams":
        """K cells of one shape as one, along a leading model axis (copies)."""
        return cls(*(np.stack([getattr(c, name) for c in cells])
                     for name in ("w_input", "w_hidden", "bias")))

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
    """Forward-pass intermediates needed by lstm_backward_batch.

    The per-step arrays are time-major, so step t is one contiguous (B, H)
    block, or (K, B, H) with a model axis; only the hidden outputs keep the
    (B, T, H) layout the forward pass returns.
    """

    x: np.ndarray        # (B, T, D) input
    gate_i: np.ndarray   # (T, B, H) input gate
    gate_f: np.ndarray   # (T, B, H) forget gate
    gate_g: np.ndarray   # (T, B, H) candidate
    gate_o: np.ndarray   # (T, B, H) output gate
    c: np.ndarray        # (T, B, H) cell state after each step
    tanh_c: np.ndarray   # (T, B, H) tanh of c
    h: np.ndarray        # (B, T, H) hidden outputs
    h0: np.ndarray       # (B, H)
    c0: np.ndarray       # (B, H)
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

    x: (B, T, D) -> hidden outputs (B, T, H), or (K, B, T, D) -> (K, B, T, H)
    for K stacked cells. A zero-stride time axis marks an input that is
    constant over time; its projection is computed once.
    """
    stacked = p.w_input.ndim == 3
    if x.ndim != 3 + stacked:
        want = "(K, B, T, D)" if stacked else "(B, T, D)"
        raise ShapeMismatchError(f"expected {want} input, got shape {x.shape}")
    if stacked and x.shape[0] != p.w_input.shape[0]:
        raise ShapeMismatchError(f"{x.shape[0]} inputs for {p.w_input.shape[0]} stacked cells")
    lead, (nt, nd) = x.shape[:-2], x.shape[-2:]
    if nt == 0:
        raise ShapeMismatchError("empty sequence (T=0)")
    if nd != p.input_size:
        raise ShapeMismatchError(f"input dim {nd} != layer input size {p.input_size}")
    nh = p.hidden_size
    h_prev = np.zeros(lead + (nh,)) if h0 is None else h0
    c_prev = np.zeros(lead + (nh,)) if c0 is None else c0
    if h_prev.shape != lead + (nh,) or c_prev.shape != lead + (nh,):
        raise ShapeMismatchError("initial state shape mismatch")

    # Weights permuted to [i|f|o|g] rows; the transposed views keep the
    # layout of p.w_*.T.
    order = np.r_[0:2 * nh, 3 * nh:4 * nh, 2 * nh:3 * nh]
    wx_t = p.w_input[..., order, :].swapaxes(-1, -2)   # (D, 4H)
    wh_t = p.w_hidden[..., order, :].swapaxes(-1, -2)  # (H, 4H)
    bias = p.bias[..., None, order]                    # (1, 4H)

    def project(xt):
        return xt * wx_t if nd == 1 else xt @ wx_t

    x_proj = project(x[..., 0, :]) if x.strides[-2] == 0 else None
    hs = np.empty(lead + (nt, nh))
    if want_cache:
        gi, gf, gg, go, cs, tcs = (np.empty((nt,) + lead + (nh,)) for _ in range(6))
    h0_saved, c0_saved = h_prev, c_prev

    for t in range(nt):
        # (x W_x^T + h W_h^T) + b and f c + i g, summed in place; the sums
        # commute, so the bits are those of the textbook expressions.
        a = h_prev @ wh_t
        a += project(x[..., t, :]) if x_proj is None else x_proj
        a += bias
        ifo = sigmoid(a[..., :3 * nh])
        i, f, o = ifo[..., :nh], ifo[..., nh:2 * nh], ifo[..., 2 * nh:]
        g = np.tanh(a[..., 3 * nh:], out=gg[t] if want_cache else None)
        c = np.multiply(f, c_prev, out=cs[t] if want_cache else None)
        c += i * g
        tc = np.tanh(c, out=tcs[t] if want_cache else None)
        h_prev = np.multiply(o, tc, out=hs[..., t, :])
        if want_cache:
            gi[t], gf[t], go[t] = i, f, o
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
    not computed and the returned ``x`` is None. A cache of stacked cells
    takes and gives every array with the leading model axis.
    """
    p = cache.params
    lead, (nt, nd) = cache.x.shape[:-2], cache.x.shape[-2:]
    nh = p.hidden_size
    if dh_seq is not None and dh_seq.shape != cache.h.shape:
        raise ShapeMismatchError("dh_seq shape mismatch")
    for name, d in (("dh_last", dh_last), ("dc_last", dc_last)):
        if d is not None and d.shape != lead + (nh,):
            raise ShapeMismatchError(f"{name} shape {d.shape}, expected {lead + (nh,)}")

    d_wx = np.zeros_like(p.w_input)
    d_wh = np.zeros_like(p.w_hidden)
    d_b = np.zeros_like(p.bias)
    dx = np.empty(cache.x.shape) if want_dx else None  # C order, also for a broadcast x
    da = np.empty(lead + (4 * nh,))  # same gate order as the parameter rows
    da_t = da.swapaxes(-1, -2)
    dh_carry = np.zeros(lead + (nh,)) if dh_last is None else dh_last.copy()
    dc_carry = np.zeros(lead + (nh,)) if dc_last is None else dc_last.copy()

    for t in range(nt - 1, -1, -1):
        i, f, g, o = cache.gate_i[t], cache.gate_f[t], cache.gate_g[t], cache.gate_o[t]
        tc = cache.tanh_c[t]
        c_prev = cache.c[t - 1] if t > 0 else cache.c0
        h_prev = cache.h[..., t - 1, :] if t > 0 else cache.h0

        dh = dh_carry if dh_seq is None else dh_seq[..., t, :] + dh_carry
        do = dh * tc
        dc = dh * o * (1.0 - tc * tc) + dc_carry
        di = dc * g
        dg = dc * i
        df = dc * c_prev
        dc_carry = dc * f

        np.multiply(di * i, 1.0 - i, out=da[..., :nh])
        np.multiply(df * f, 1.0 - f, out=da[..., nh:2 * nh])
        np.multiply(dg, 1.0 - g * g, out=da[..., 2 * nh:3 * nh])
        np.multiply(do * o, 1.0 - o, out=da[..., 3 * nh:])
        d_wx += da_t @ cache.x[..., t, :]
        d_wh += da_t @ h_prev
        d_b += da.sum(axis=-2)
        if dx is not None:
            dx[..., t, :] = da @ p.w_input
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
