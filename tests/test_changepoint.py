"""Change-point detection: thresholding, segment assembly, autoencoder plumbing."""

import os
import platform
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from faultlab.changepoint import (
    LstmAutoencoder,
    Segment,
    ThresholdSpec,
    compute_threshold,
    detect_changepoints,
    flags_to_segments,
    reconstruction_errors,
    segments_to_mask,
    sliding_windows,
    train_autoencoder,
)
from faultlab.config import CpdConfig
from faultlab.errors import InvariantViolation, ShapeMismatchError
from faultlab.nncore import Standardizer, load_checkpoint, save_checkpoint
from oracles import check_gradients, model_loss


TINY_CPD = CpdConfig(
    window=8,
    enc_hidden=4,
    dec_hidden=8,
    lr=5e-3,
    max_epochs=3,
    patience=5,
    batch_windows=64,
    max_train_windows=400,
)


# --- threshold ------------------------------------------------------------------


def test_threshold_oracle():
    # mean 1, population sigma sqrt(3), so tau = 1 + sqrt(3)
    spec = compute_threshold(np.array([0.0, 0.0, 0.0, 4.0]), k=1.0)
    assert spec.mu == 1.0
    assert spec.sigma == pytest.approx(np.sqrt(3.0), abs=0)
    assert spec.tau == pytest.approx(2.732050807568877, abs=1e-15)


def test_threshold_uses_population_sigma():
    errs = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    spec = compute_threshold(errs, k=2.0)
    assert spec.sigma == pytest.approx(np.std(errs, ddof=0), abs=0)
    assert spec.tau == pytest.approx(spec.mu + 2.0 * spec.sigma, abs=0)


def test_threshold_empty_rejected():
    with pytest.raises(InvariantViolation):
        compute_threshold(np.array([]), k=3.0)


def test_threshold_spec_validates():
    with pytest.raises(InvariantViolation):
        ThresholdSpec(mu=1.0, sigma=-0.5, k=3.0, tau=0.0)
    with pytest.raises(InvariantViolation):
        ThresholdSpec(mu=1.0, sigma=1.0, k=3.0, tau=99.0)


def test_detect_strict_inequality():
    spec = ThresholdSpec(mu=1.0, sigma=1.0, k=2.0, tau=3.0)
    flags = detect_changepoints(np.array([2.9, 3.0, 3.0000001]), spec)
    # exactly tau is not a change-point
    assert flags.tolist() == [False, False, True]


# --- segment assembly -----------------------------------------------------------


def test_segment_validates():
    assert len(Segment(2, 5)) == 3
    with pytest.raises(InvariantViolation):
        Segment(5, 5)
    with pytest.raises(InvariantViolation):
        Segment(-1, 4)


def test_flags_to_segments_oracle():
    # F F T T F T F: runs [2,4) and [5,6), gap of 1 merges under min_gap=2,
    # and the merged window run [2,6) covers records [2, 5 + W).
    flags = np.array([False, False, True, True, False, True, False])
    segs = flags_to_segments(flags, min_gap=2, min_len=0, window=16)
    assert segs == [Segment(2, 21)]


def test_flags_to_segments_no_merge_when_gap_allows():
    flags = np.array([False, False, True, True, False, True, False])
    segs = flags_to_segments(flags, min_gap=1, min_len=0, window=1)
    assert segs == [Segment(2, 4), Segment(5, 6)]


def test_flags_to_segments_min_len_after_merge():
    flags = np.array([False, False, True, True, False, True, False])
    # merged run spans window positions [2, 6): length 4 survives min_len=4
    assert flags_to_segments(flags, min_gap=2, min_len=4, window=1) == [Segment(2, 6)]
    assert flags_to_segments(flags, min_gap=2, min_len=5, window=1) == []
    # unmerged runs of length 2 and 1 both drop under min_len=3
    assert flags_to_segments(flags, min_gap=1, min_len=3, window=1) == []


def test_flags_to_segments_edges():
    assert flags_to_segments(np.zeros(5, dtype=bool), min_gap=0, min_len=0, window=1) == []
    assert (flags_to_segments(np.ones(4, dtype=bool), min_gap=0, min_len=0, window=3)
            == [Segment(0, 6)])
    with pytest.raises(InvariantViolation):
        flags_to_segments(np.ones(4, dtype=bool), min_gap=-1, min_len=0, window=1)


def test_segments_to_mask():
    mask = segments_to_mask([Segment(1, 3), Segment(6, 8)], length=9)
    assert mask.tolist() == [0, 1, 1, 0, 0, 0, 1, 1, 0]
    with pytest.raises(InvariantViolation):
        segments_to_mask([Segment(6, 10)], length=9)


# --- windowing ------------------------------------------------------------------


def test_sliding_windows_values():
    x = np.arange(18, dtype=float).reshape(6, 3)
    win = sliding_windows(x, 4)
    assert win.shape == (3, 4, 3)
    for i in range(3):
        assert np.array_equal(win[i], x[i:i + 4])


def test_sliding_windows_too_short():
    with pytest.raises(ShapeMismatchError):
        sliding_windows(np.zeros((3, 3)), 4)


# --- autoencoder ----------------------------------------------------------------


def test_autoencoder_ctor_shape_checks(rng):
    from faultlab.nncore import LstmCellParams

    cfg = TINY_CPD
    model = LstmAutoencoder.init(rng, cfg, Standardizer(np.zeros(3), np.ones(3)))
    with pytest.raises(ShapeMismatchError):
        LstmAutoencoder(model.encoders[:2], model.decoder, model.head, cfg.window, model.std)
    # decoder expecting the wrong latent width is rejected
    narrow = LstmCellParams.init(rng, 2 * cfg.enc_hidden, cfg.dec_hidden)
    with pytest.raises(ShapeMismatchError):
        LstmAutoencoder(model.encoders, narrow, model.head, cfg.window, model.std)


def test_autoencoder_gradcheck(rng):
    # covers the decoder's summed input gradient dz and the encoders'
    # final-state-only backward pass
    cfg = CpdConfig(window=4, enc_hidden=2, dec_hidden=3)
    model = LstmAutoencoder.init(rng, cfg, Standardizer(np.zeros(3), np.ones(3)))
    for cell in (*model.encoders, model.decoder):
        cell.bias[:] = rng.normal(scale=0.5, size=cell.bias.shape)
    batch = rng.normal(size=(2, cfg.window, 3))
    _, grads = model_loss(model, batch, want_grads=True)
    report = check_gradients(lambda: model_loss(model, batch, want_grads=False),
                             model.param_arrays(), grads)
    assert report.n_checked == sum(a.size for a in model.param_arrays())
    assert report.ok(1e-5), report


def test_train_rejects_non_normal_regime(mixed_small):
    with pytest.raises(InvariantViolation):
        train_autoencoder(mixed_small, TINY_CPD, seed=0)


def test_train_and_errors_smoke(normal_small):
    model = train_autoencoder(normal_small, TINY_CPD, seed=3)
    errs = reconstruction_errors(model, normal_small)
    assert errs.shape == (len(normal_small.energy) - TINY_CPD.window + 1,)
    assert np.all(np.isfinite(errs)) and np.all(errs >= 0)


def test_train_deterministic(normal_small):
    e1 = reconstruction_errors(train_autoencoder(normal_small, TINY_CPD, seed=5),
                               normal_small)
    e2 = reconstruction_errors(train_autoencoder(normal_small, TINY_CPD, seed=5),
                               normal_small)
    assert np.array_equal(e1, e2)


def test_shifted_series_reconstructs_worse(normal_small):
    """A gross mean shift on one channel must raise reconstruction error."""
    model = train_autoencoder(normal_small, TINY_CPD, seed=3)
    base = reconstruction_errors(model, normal_small)
    spec = compute_threshold(base, k=3.0)

    x = normal_small.features().copy()
    x[1000:1400, 0] -= 10.0 * 0.7  # 10 aggregated-sigma energy drop
    shifted = reconstruction_errors(model, x)
    inside = shifted[1000:1400 - TINY_CPD.window + 1]
    assert np.median(inside) > spec.tau
    # untouched region stays mostly below threshold
    outside = shifted[:900]
    assert np.mean(outside > spec.tau) < 0.2


def test_checkpoint_round_trip(tmp_path, normal_small):
    model = train_autoencoder(normal_small, TINY_CPD, seed=3)
    path = tmp_path / "ae.json"
    save_checkpoint(model.to_checkpoint(), path)
    ckpt = load_checkpoint(path, expect_kind="lstm_autoencoder")
    clone = LstmAutoencoder.from_checkpoint(ckpt)
    assert clone.window == model.window
    a = reconstruction_errors(model, normal_small)
    b = reconstruction_errors(clone, normal_small)
    assert np.array_equal(a, b)


def test_reconstruction_errors_batch_working_set():
    # 4096 windows at the real shapes (window 16, encoders 16, decoder 32),
    # scored as eight 512-window batches. One batch's decoder (B, W, 32)
    # outputs take 2 MiB, and the whole call peaks at about 5.3 MiB.
    cfg = CpdConfig()
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4096 + cfg.window - 1, 3))
    model = LstmAutoencoder.init(rng, cfg, Standardizer.fit(x))
    reconstruction_errors(model, x)
    tracemalloc.start()
    try:
        errs = reconstruction_errors(model, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert errs.shape == (4096,)
    assert peak < 8 * 2**20, f"scoring peaked at {peak / 2**20:.1f} MiB"


def test_reconstruction_errors_rejects_bad_series():
    model = LstmAutoencoder.init(np.random.default_rng(0), TINY_CPD,
                                 Standardizer(np.zeros(3), np.ones(3)))
    with pytest.raises(ShapeMismatchError):
        reconstruction_errors(model, np.zeros((50, 2)))


@pytest.fixture(scope="module")
def scoring_stream():
    """An untrained autoencoder at the real shapes, a series and its errors."""
    cfg = CpdConfig()
    rng = np.random.default_rng(1)
    x = rng.normal(size=(4105 + 64 + cfg.window - 1, 3))
    model = LstmAutoencoder.init(rng, cfg, Standardizer.fit(x))
    return model, x, reconstruction_errors(model, x)


@pytest.mark.parametrize("n", [255, 256, 257, 511, 512, 513, 4095, 4096, 4097, 4104, 4105])
def test_reconstruction_errors_do_not_depend_on_batching(scoring_stream, n):
    # The errors of a stretch of the series are a slice of the whole series'
    # errors, byte for byte, wherever the batch boundaries fall. Cut into
    # 4096-window batches plus a tail, n = 4104 and 4105 would end with 8 and
    # 9 windows, which OpenBLAS multiplies with another kernel.
    model, x, full = scoring_stream
    span = n + model.window - 1
    for start in (0, 13, 64):
        part = reconstruction_errors(model, x[start:start + span])
        assert part.tobytes() == full[start:start + n].tobytes(), start


@pytest.mark.skipif(platform.system() != "Linux" or platform.libc_ver()[0] != "glibc",
                    reason="the malloc thresholds are glibc's")
def test_training_after_scoring_reuses_freed_memory():
    # Importing faultlab.nncore pins glibc's mmap and trim thresholds. Without
    # the pin, glibc leaves its 128 KiB start threshold in place after
    # 512-window scoring batches, so every training step maps its caches anew
    # and faults them in: about 25k minor faults in this call (4k per step),
    # against about 70 with the pin. A fresh interpreter makes the count
    # independent of what earlier tests allocated and freed.
    script = textwrap.dedent("""
        import resource
        from faultlab import changepoint
        from faultlab.config import CpdConfig, SimConfig
        from faultlab.simgen import generate_dataset

        normal = generate_dataset("normal_only", SimConfig(seed=3, n_points=4000))
        cfg = CpdConfig(max_epochs=1, patience=1, max_train_windows=1500)
        model = changepoint.train_autoencoder(normal, cfg, seed=0)
        changepoint.reconstruction_errors(model, normal)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        changepoint.train_autoencoder(normal, cfg, seed=0)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    faults = int(done.stdout.split()[-1])
    assert faults < 2000, f"training faulted in {faults} pages"
