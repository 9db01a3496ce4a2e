import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from numpy.testing import assert_allclose

from faultlab.errors import (
    ConfigError,
    InvariantViolation,
    ShapeMismatchError,
    TrainingDivergedError,
)
from faultlab.nncore import (
    AdamState,
    Checkpoint,
    DenseParams,
    EarlyStopConfig,
    LstmCellParams,
    adam_step,
    check_gradients,
    dense_forward_batch,
    load_checkpoint,
    lstm_cell_forward,
    lstm_forward_batch,
    lstm_layer_forward,
    mse_loss,
    one_hot_sequences,
    pack,
    save_checkpoint,
    sequence_cross_entropy,
    sigmoid,
    softmax,
    train,
    unpack_into,
)
from faultlab.nncore.checkpoint import checkpoint_text
from faultlab.nncore.layers import dense_backward_batch, lstm_backward_batch


# --- activations --------------------------------------------------------------

def test_sigmoid_at_zero():
    assert sigmoid(np.array(0.0)) == 0.5


def test_sigmoid_saturates_without_overflow():
    out = sigmoid(np.array([-1000.0, 1000.0]))
    assert np.all(np.isfinite(out))
    assert_allclose(out, [0.0, 1.0], atol=1e-12)


@given(st.floats(min_value=-50, max_value=50))
def test_sigmoid_symmetry(x):
    a = sigmoid(np.array(x))
    b = sigmoid(np.array(-x))
    assert_allclose(a + b, 1.0, atol=1e-12)


def _sign_split_sigmoid(x):
    """The masked formula sigmoid replaced: the bit-level oracle."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 1e3, -1e3,
                  5e-324, -5e-324, 709.0, -745.0]


@given(st.lists(st.floats(width=64), max_size=40))
@example(SPECIAL_FLOATS)
def test_sigmoid_matches_sign_split_bit_for_bit(values):
    x = np.array(values + SPECIAL_FLOATS)
    with np.errstate(all="ignore"):
        got, want = sigmoid(x), _sign_split_sigmoid(x)
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    # strided gate slices, as the LSTM passes them
    a = x[:len(x) // 2 * 2].reshape(2, -1)
    assert sigmoid(a[:, ::2]).tobytes() == _sign_split_sigmoid(a[:, ::2].copy()).tobytes()


def test_softmax_oracle():
    # frozen: softmax(1, 2, 3)
    out = softmax(np.array([1.0, 2.0, 3.0]))
    assert_allclose(
        out,
        [0.09003057317038046, 0.24472847105479767, 0.6652409557748219],
        rtol=0,
        atol=1e-15,
    )


@given(
    st.lists(st.floats(min_value=-30, max_value=30), min_size=1, max_size=6),
    st.floats(min_value=-100, max_value=100),
)
def test_softmax_shift_invariance(logits, shift):
    logits = np.array(logits)
    assert_allclose(softmax(logits), softmax(logits + shift), atol=1e-12)
    assert_allclose(softmax(logits).sum(), 1.0, atol=1e-12)


def test_softmax_handles_extreme_logits():
    out = softmax(np.array([[1000.0, -1000.0], [0.0, 0.0]]), axis=1)
    assert np.all(np.isfinite(out))
    assert_allclose(out[0], [1.0, 0.0], atol=1e-12)


# --- LSTM cell ----------------------------------------------------------------

def test_lstm_zero_params_oracle():
    # all-zero weights: every gate is sigmoid(0)=0.5, g=tanh(0)=0, so
    # c' = 0.5*c and h' = 0.5*tanh(c'). With c=1: h' = 0.5*tanh(0.5).
    p = LstmCellParams.zeros(2, 3)
    h, c = lstm_cell_forward(np.zeros(2), np.zeros(3), np.ones(3), p)
    assert_allclose(c, 0.5, rtol=0, atol=1e-15)
    assert_allclose(h, 0.23105857863000487, rtol=0, atol=1e-15)


def test_lstm_gate_order_is_ifgo():
    # a huge forget-gate bias (second block of rows) must preserve the cell
    # state exactly; any other gate layout would scale or overwrite it.
    p = LstmCellParams.zeros(1, 2)
    p.bias[2:4] = 50.0
    c0 = np.array([0.7, -1.2])
    h, c = lstm_cell_forward(np.zeros(1), np.zeros(2), c0, p)
    assert_allclose(c, c0, atol=1e-12)
    assert_allclose(h, 0.5 * np.tanh(c0), atol=1e-12)


def test_lstm_cell_shape_errors():
    p = LstmCellParams.zeros(2, 3)
    with pytest.raises(ShapeMismatchError):
        lstm_cell_forward(np.zeros(3), np.zeros(3), np.zeros(3), p)


def test_lstm_layer_matches_batch():
    rng = np.random.default_rng(3)
    p = LstmCellParams.init(rng, 2, 4)
    seq = rng.normal(size=(5, 2))
    single = lstm_layer_forward(seq, p)
    batch, _ = lstm_forward_batch(seq[None], p)
    assert_allclose(single, batch[0], atol=1e-14)


def test_lstm_layer_matches_manual_unroll():
    rng = np.random.default_rng(4)
    p = LstmCellParams.init(rng, 3, 2)
    seq = rng.normal(size=(4, 3))
    h = np.zeros(2)
    c = np.zeros(2)
    rows = []
    for t in range(4):
        h, c = lstm_cell_forward(seq[t], h, c, p)
        rows.append(h)
    assert_allclose(lstm_layer_forward(seq, p), np.array(rows), atol=1e-14)


def test_lstm_gradcheck_small():
    rng = np.random.default_rng(11)
    p = LstmCellParams.init(rng, 2, 3)
    x = rng.normal(size=(2, 4, 2))
    target = rng.normal(size=(2, 4, 3))
    params = [p.w_input, p.w_hidden, p.bias]

    def loss_fn():
        hs, _ = lstm_forward_batch(x, p)
        return mse_loss(hs, target)[0]

    hs, cache = lstm_forward_batch(x, p, want_cache=True)
    _, dh = mse_loss(hs, target)
    grads = lstm_backward_batch(cache, dh)
    report = check_gradients(loss_fn, params, [grads.w_input, grads.w_hidden, grads.bias])
    assert report.ok(1e-5), report


@pytest.mark.parametrize("nb", [1, 5])
def test_lstm_forward_without_cache_and_with_constant_input(nb):
    rng = np.random.default_rng(21)
    p = LstmCellParams.init(rng, 3, 4)
    p.bias[:] = rng.normal(size=16)
    x = rng.normal(size=(nb, 6, 3))
    hs_cached, cache = lstm_forward_batch(x, p, want_cache=True)
    hs_plain, none = lstm_forward_batch(x, p)
    assert none is None
    assert np.array_equal(hs_cached, hs_plain)
    assert np.array_equal(cache.h, hs_plain)

    z = rng.normal(size=(nb, 3))
    view = np.broadcast_to(z[:, None, :], (nb, 6, 3))
    assert view.strides[1] == 0
    copy = np.repeat(z[:, None, :], 6, axis=1)
    for want_cache in (False, True):
        hs_view, _ = lstm_forward_batch(view, p, want_cache=want_cache)
        hs_copy, _ = lstm_forward_batch(copy, p, want_cache=want_cache)
        assert np.array_equal(hs_view, hs_copy)


def test_lstm_backward_skipped_inputs_keep_weight_grads():
    rng = np.random.default_rng(22)
    p = LstmCellParams.init(rng, 2, 3)
    x = rng.normal(size=(4, 5, 2))
    _, cache = lstm_forward_batch(x, p, want_cache=True)
    dh_seq = rng.normal(size=(4, 5, 3))
    dh_last, dc_last = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))

    def kept(g):
        return [g.w_input, g.w_hidden, g.bias, g.h0, g.c0]

    full = lstm_backward_batch(cache, dh_seq, dh_last, dc_last)
    no_dx = lstm_backward_batch(cache, dh_seq, dh_last, dc_last, want_dx=False)
    assert no_dx.x is None and full.x.shape == x.shape
    assert [a.tobytes() for a in kept(no_dx)] == [a.tobytes() for a in kept(full)]

    # only the final state feeds downstream: no dh_seq is the all-zero one
    last_only = lstm_backward_batch(cache, dh_last=dh_last, want_dx=False)
    zeros = lstm_backward_batch(cache, np.zeros_like(dh_seq), dh_last=dh_last)
    assert all(np.array_equal(a, b) for a, b in zip(kept(last_only), kept(zeros)))


def test_dense_gradcheck_ce_head():
    # identity head feeding the fused softmax+CE gradient
    rng = np.random.default_rng(12)
    p = DenseParams.init(rng, 3, 4)
    x = rng.normal(size=(5, 3))
    labels = rng.integers(1, 5, size=(5, 1))

    def loss_fn():
        probs = softmax(dense_forward_batch(x, p), axis=-1)
        return sequence_cross_entropy(probs[:, None, :], labels)[0]

    z = dense_forward_batch(x, p)
    _, dlogits = sequence_cross_entropy(softmax(z, axis=-1)[:, None, :], labels)
    dw, db, _ = dense_backward_batch(x, z, dlogits[:, 0, :], p)
    report = check_gradients(loss_fn, [p.w, p.b], [dw, db])
    assert report.ok(1e-5), report


def test_dense_gradcheck_softmax_jvp():
    # softmax activation applies its own Jacobian-vector product
    rng = np.random.default_rng(13)
    p = DenseParams.init(rng, 3, 4, activation="softmax")
    x = rng.normal(size=(5, 3))
    target = rng.normal(size=(5, 4))

    def loss_fn():
        return mse_loss(dense_forward_batch(x, p), target)[0]

    out = dense_forward_batch(x, p)
    _, d_out = mse_loss(out, target)
    dw, db, _ = dense_backward_batch(x, out, d_out, p)
    report = check_gradients(loss_fn, [p.w, p.b], [dw, db])
    assert report.ok(1e-5), report


# --- losses -------------------------------------------------------------------

def test_mse_oracle():
    loss, grad = mse_loss(np.array([1.0, 2.0]), np.array([0.0, 0.0]))
    assert loss == 2.5
    assert_allclose(grad, [1.0, 2.0], atol=1e-15)


def test_one_hot_padding_rows_are_zero():
    y = one_hot_sequences(np.array([[1, 0], [2, 2]]), 3)
    assert y.shape == (2, 2, 3)
    assert_allclose(y[0, 0], [1, 0, 0])
    assert_allclose(y[0, 1], [0, 0, 0])  # label 0 = padding
    assert_allclose(y[1], [[0, 1, 0], [0, 1, 0]])


def test_cross_entropy_oracles():
    # frozen: -log(0.5) = ln 2
    probs = np.array([[[0.5, 0.5]]])
    loss, _ = sequence_cross_entropy(probs, np.array([[1]]))
    assert_allclose(loss, 0.6931471805599453, rtol=0, atol=1e-15)

    # padding step contributes nothing
    probs = np.full((1, 2, 2), 0.5)
    loss, _ = sequence_cross_entropy(probs, np.array([[1, 0]]))
    assert_allclose(loss, 0.6931471805599453, rtol=0, atol=1e-15)

    # normalized by sequence count only, never by length: two real steps
    loss, _ = sequence_cross_entropy(probs, np.array([[1, 1]]))
    assert_allclose(loss, 1.3862943611198906, rtol=0, atol=1e-15)


def test_cross_entropy_gradient_oracle():
    probs = np.array([[[0.5, 0.5]]])
    _, dlogits = sequence_cross_entropy(probs, np.array([[1]]))
    assert_allclose(dlogits, [[[-0.5, 0.5]]], atol=1e-15)
    _, dpad = sequence_cross_entropy(probs, np.array([[0]]))
    assert_allclose(dpad, 0.0, atol=1e-15)


@given(st.integers(min_value=0, max_value=10_000))
def test_cross_entropy_matches_hand_loop(seed):
    # independent route: plain python loops and math.log
    rng = np.random.default_rng(seed)
    n, t, c = rng.integers(1, 4), rng.integers(1, 5), rng.integers(2, 5)
    logits = rng.normal(size=(n, t, c))
    probs = softmax(logits, axis=-1)
    labels = rng.integers(0, c + 1, size=(n, t))
    expected = 0.0
    for i in range(n):
        for j in range(t):
            if labels[i, j] > 0:
                expected -= math.log(max(probs[i, j, labels[i, j] - 1], 1e-12))
    expected /= n
    loss, _ = sequence_cross_entropy(probs, labels)
    assert_allclose(loss, expected, rtol=0, atol=1e-12)


def test_cross_entropy_shape_errors():
    with pytest.raises(ShapeMismatchError):
        sequence_cross_entropy(np.full((2, 2), 0.5), np.array([[1, 1]]))
    with pytest.raises(ShapeMismatchError):
        sequence_cross_entropy(np.full((1, 2, 2), 0.5), np.array([[1, 1, 1]]))
    with pytest.raises(ShapeMismatchError):  # targets are integer labels, not one-hot rows
        sequence_cross_entropy(np.full((1, 2, 2), 0.5), np.eye(2)[None])


# --- optimizer ----------------------------------------------------------------

def test_adam_first_step_is_alpha_sized():
    state = AdamState(alpha=1e-3)
    p1 = adam_step(state, np.zeros(1), np.ones(1))
    assert_allclose(p1, [-1e-3], rtol=1e-7)
    assert state.t == 1


def test_adam_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        adam_step(AdamState(), np.zeros(2), np.zeros(3))


@given(st.integers(min_value=0, max_value=1000))
def test_pack_unpack_round_trip(seed):
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=s) for s in [(2, 3), (4,), (1, 2, 2)]]
    flat = pack(arrays)
    assert flat.shape == (14,)
    copies = [np.zeros_like(a) for a in arrays]
    unpack_into(flat, copies)
    for a, b in zip(arrays, copies):
        assert_allclose(a, b, rtol=0, atol=0)


def test_unpack_rejects_size_mismatch():
    with pytest.raises(ValueError):
        unpack_into(np.zeros(5), [np.zeros(2), np.zeros(2)])


# --- training loop ------------------------------------------------------------

class _Quadratic:
    """Minimal TrainableModel: loss = (w - 3)^2."""

    def __init__(self):
        self.w = np.array([0.0])

    def param_arrays(self):
        return [self.w]

    def loss_and_grads(self, batch):
        return float((self.w[0] - 3.0) ** 2), [2.0 * (self.w - 3.0)]

    def loss(self, batch):
        return float((self.w[0] - 3.0) ** 2)


def test_train_converges_on_quadratic():
    model = _Quadratic()
    result = train(model, lambda rng: [None] * 4, None,
                   adam=AdamState(alpha=0.05), max_epochs=200)
    assert abs(model.w[0] - 3.0) < 0.05
    assert result.epochs_run <= 200
    assert result.train_losses[0] > result.best_val_loss


class _Flat(_Quadratic):
    def loss(self, batch):
        return 1.0  # validation never improves after the first epoch


def test_early_stopping_and_restore():
    model = _Flat()
    early = EarlyStopConfig(patience=3, min_delta=1e-5)
    result = train(model, lambda rng: [None], None,
                   adam=AdamState(alpha=0.1), max_epochs=50, early=early)
    assert result.stopped_early
    assert result.best_epoch == 1
    assert result.epochs_run == early.patience + 2
    # training rewinds to the epoch-1 snapshot
    exp = _Flat()
    train(exp, lambda rng: [None], None, adam=AdamState(alpha=0.1), max_epochs=1)
    assert_allclose(model.w, exp.w, atol=1e-15)


class _Diverging(_Quadratic):
    def loss_and_grads(self, batch):
        return float("inf"), [np.zeros(1)]


def test_train_raises_on_divergence():
    with pytest.raises(TrainingDivergedError):
        train(_Diverging(), lambda rng: [None], None, max_epochs=3)


def test_train_requires_batches():
    with pytest.raises(ValueError):
        train(_Quadratic(), lambda rng: [], None, max_epochs=1)


# --- checkpoints --------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path):
    ckpt = Checkpoint(
        kind="test",
        meta={"note": "hello", "n": 3},
        arrays={"w": np.arange(6, dtype=float).reshape(2, 3) / 7.0,
                "idx": np.array([3, 1], dtype=np.int64)},
    )
    path = tmp_path / "m.json"
    save_checkpoint(ckpt, path)
    back = load_checkpoint(path, expect_kind="test")
    assert back.meta == ckpt.meta
    assert back.arrays["idx"].dtype == np.int64
    assert_allclose(back.arrays["w"], ckpt.arrays["w"], rtol=0, atol=0)


def test_checkpoint_text_is_canonical():
    a = Checkpoint(kind="k", meta={"a": 1, "b": 2}, arrays={})
    b = Checkpoint(kind="k", meta={"b": 2, "a": 1}, arrays={})
    assert checkpoint_text(a) == checkpoint_text(b)


def test_checkpoint_bitexact_floats(tmp_path):
    # repr round-trip must preserve doubles bit for bit
    vals = np.array([1 / 3, 1e-300, math.pi, -0.1])
    path = tmp_path / "v.json"
    save_checkpoint(Checkpoint(kind="k", meta={}, arrays={"v": vals}), path)
    back = load_checkpoint(path)
    assert np.array_equal(back.arrays["v"], vals)


def test_checkpoint_rejects_nonfinite():
    bad = Checkpoint(kind="k", meta={}, arrays={"v": np.array([np.nan])})
    with pytest.raises(InvariantViolation):
        checkpoint_text(bad)


def test_checkpoint_kind_mismatch(tmp_path):
    path = tmp_path / "m.json"
    save_checkpoint(Checkpoint(kind="a", meta={}, arrays={}), path)
    with pytest.raises(ConfigError):
        load_checkpoint(path, expect_kind="b")


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "nope"}')
    with pytest.raises(ConfigError):
        load_checkpoint(path)
    path.write_text("not json at all")
    with pytest.raises(ConfigError):
        load_checkpoint(path)
