"""Cascade plumbing: chunking, task wiring, the warm-start prior, persistence."""

import numpy as np
import pytest

from faultlab.cascade import (
    INFER_BATCH_CHUNKS,
    N_CLASSES,
    SequenceClassifier,
    SmtcnnModels,
    Standardizer,
    build_task3_inputs,
    chunk_series,
    load_models,
    predict_classes,
    save_models,
    smtcnn_infer,
    task2_labels,
    task1_proposal,
    task2_score,
    train_task2,
    warm_start_bias,
)
from faultlab.changepoint import Segment, ThresholdSpec, propose_segments
from faultlab.config import CpdConfig, SegclassConfig, TaskNetConfig
from faultlab.errors import (
    ConfigError,
    DegenerateDataError,
    InvariantViolation,
    ShapeMismatchError,
)
from faultlab.segclass import ClassifierModel, _LinearImpl


def tiny_models(variant="b2_no_cpd", seed=0, with_seg=False):
    from faultlab.changepoint import LstmAutoencoder, ThresholdSpec

    rng = np.random.default_rng(seed)
    cpd_cfg = CpdConfig(window=4, enc_hidden=3, dec_hidden=4, min_gap=2, min_len=1)
    auto = threshold = None
    if variant != "b2_no_cpd":
        auto = LstmAutoencoder.init(rng, cpd_cfg, Standardizer(np.zeros(3), np.ones(3)))
        threshold = ThresholdSpec(mu=0.5, sigma=0.1, k=3.0, tau=0.8)
    seg_model = None
    if with_seg:
        seg_model = ClassifierModel(
            kind="sgd_linear", classes=np.array([4, 7]),
            impl=_LinearImpl(w=np.zeros((2, 15)), b=np.zeros(2),
                             std=Standardizer(np.zeros(15), np.ones(15))))
    return SmtcnnModels(
        variant=variant,
        autoencoder=auto,
        threshold=threshold,
        seg_model=seg_model,
        task2=SequenceClassifier.init(rng, 3, 6, 2),
        task3=SequenceClassifier.init(rng, 5, 6, N_CLASSES),
        std=Standardizer(np.zeros(3), np.ones(3)),
        cpd_cfg=cpd_cfg,
        seg_cfg=SegclassConfig(),
        chunk_len=8,
    )


# --- chunking -----------------------------------------------------------------


def test_chunk_series_pads_tail_with_ignore_label():
    x = np.arange(20, dtype=float).reshape(10, 2)
    labels = np.arange(1, 11)
    xs, ys = chunk_series(x, labels, chunk_len=4)
    assert xs.shape == (3, 4, 2)
    assert np.array_equal(xs[0], x[:4])
    assert ys[2].tolist() == [9, 10, 0, 0]
    assert np.array_equal(xs[2, 2:], np.zeros((2, 2)))


# --- task 2 -------------------------------------------------------------------


def test_task2_labels_partition():
    labels = task2_labels(anomaly=np.array([False, True, False, True]),
                          mask=np.array([1.0, 1.0, 0.0, 0.0]))
    assert labels.tolist() == [1, 2, 0, 0]


def test_task2_score_exactly_zero_outside_segments():
    models = tiny_models()
    x = np.random.default_rng(1).normal(size=(12, 3))
    scores = task2_score(models.task2, models.std.apply(x), [Segment(3, 7)], chunk_len=8)
    assert scores.shape == (12,)
    assert np.all(scores[:3] == 0.0) and np.all(scores[7:] == 0.0)
    assert np.all((scores[3:7] > 0.0) & (scores[3:7] < 1.0))


def test_train_task2_rejects_bad_inputs(normal_small, mixed_small):
    cfg = TaskNetConfig(max_epochs=1)
    std = Standardizer(np.zeros(3), np.ones(3))
    wrong_regime, no_segments = train_task2(
        [(normal_small, np.ones(len(normal_small.energy)), std, 0),
         (mixed_small, np.zeros(len(mixed_small.energy)), std, 0)], cfg)
    assert isinstance(wrong_regime, InvariantViolation)
    assert isinstance(no_segments, DegenerateDataError)


# --- warm start prior -----------------------------------------------------------


def test_warm_start_bias_no_segments_prefers_no_fault():
    x = np.zeros((100, 3))
    cfg = SegclassConfig()
    bias = warm_start_bias(None, x, [], cfg)
    assert bias.shape == (N_CLASSES,)
    smooth = cfg.prior_smoothing_frac * 100
    denom = 100 + N_CLASSES * smooth
    assert bias[-1] == pytest.approx(np.log((100 + smooth) / denom), abs=1e-12)
    assert np.allclose(bias[:-1], np.log(smooth / denom), atol=1e-12)
    assert np.exp(bias).sum() == pytest.approx(1.0, abs=1e-12)


def test_warm_start_bias_counts_votes():
    # stub classifier always answers class 4 (tie broken to lowest of {4, 7})
    stub = ClassifierModel(
        kind="sgd_linear", classes=np.array([4, 7]),
        impl=_LinearImpl(w=np.zeros((2, 15)), b=np.zeros(2),
                         std=Standardizer(np.zeros(15), np.ones(15))))
    cfg = SegclassConfig(window=16, stride=8)
    x = np.random.default_rng(0).normal(size=(200, 3))
    bias = warm_start_bias(stub, x, [Segment(0, 40)], cfg)
    smooth = cfg.prior_smoothing_frac * 200
    denom = 200 + N_CLASSES * smooth
    assert bias[3] == pytest.approx(np.log((40 + smooth) / denom), abs=1e-12)
    assert bias[-1] == pytest.approx(np.log((160 + smooth) / denom), abs=1e-12)
    # non-voted fault classes sit at the smoothing floor
    assert bias[0] == pytest.approx(np.log(smooth / denom), abs=1e-12)


def test_warm_start_bias_skips_short_segments():
    cfg = SegclassConfig(window=16, stride=8)
    x = np.zeros((50, 3))
    # segment shorter than one window casts no votes
    bias = warm_start_bias(None, x, [Segment(10, 20)], cfg)
    assert np.argmax(bias) == N_CLASSES - 1


# --- task 3 -------------------------------------------------------------------


def test_build_task3_inputs_column_order():
    models = tiny_models()
    models.std = Standardizer(np.full(3, 7.0), np.full(3, 2.0))
    x = np.random.default_rng(5).normal(size=(12, 3))
    segments = [Segment(1, 3)]
    o1 = np.zeros(12)
    o1[1:3] = 1.0
    inp = build_task3_inputs(models.task2, models.std, x, segments, o1, chunk_len=8)
    x_std = (x - 7.0) / 2.0
    assert inp.shape == (12, 5)
    assert np.array_equal(inp[:, :3], x_std)
    assert np.array_equal(inp[:, 3], o1)
    assert np.array_equal(inp[:, 4], task2_score(models.task2, x_std, segments, chunk_len=8))
    with pytest.raises(ShapeMismatchError):
        build_task3_inputs(models.task2, models.std, x, segments, o1[:11], chunk_len=8)


def test_predict_classes_tie_goes_to_no_fault():
    uniform = np.full((1, N_CLASSES), 1.0 / N_CLASSES)
    assert predict_classes(uniform).tolist() == [12]

    peaked = np.zeros((1, N_CLASSES))
    peaked[0, 2] = 1.0
    assert predict_classes(peaked).tolist() == [3]

    tie = np.zeros((1, N_CLASSES))
    tie[0, 2] = 0.5
    tie[0, 11] = 0.5
    assert predict_classes(tie).tolist() == [12]


# --- sequence classifier -------------------------------------------------------


def test_sequence_classifier_checkpoint_round_trip():
    model = SequenceClassifier.init(np.random.default_rng(5), 5, 8, N_CLASSES)
    clone = SequenceClassifier.from_checkpoint(model.to_checkpoint("task3"))
    x = np.random.default_rng(6).normal(size=(2, 7, 5))
    assert np.array_equal(model.forward_probs(x), clone.forward_probs(x))


def test_sequence_classifier_gradcheck():
    # covers the layer-2 input gradient feeding layer 1, whose own input
    # gradient is skipped
    from oracles import check_gradients

    rng = np.random.default_rng(5)
    model = SequenceClassifier.init(rng, 3, 4, 3)
    x = rng.normal(size=(2, 5, 3))
    labels = np.array([[1, 2, 0, 3, 1], [0, 3, 3, 2, 1]])  # 0 = ignored step
    _, grads = model.loss_and_grads((x, labels))
    report = check_gradients(lambda: model.loss((x, labels)), model.param_arrays(), grads)
    assert report.n_checked == sum(a.size for a in model.param_arrays())
    assert report.ok(1e-5), report


def test_infer_series_handles_ragged_tail():
    model = SequenceClassifier.init(np.random.default_rng(2), 3, 4, 2)
    x = np.random.default_rng(3).normal(size=(10, 3))
    probs = model.infer_series(x, chunk_len=4)
    assert probs.shape == (10, 2)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    # shorter-than-chunk series pass through the same padding path
    short = model.infer_series(x[:2], chunk_len=4)
    assert short.shape == (2, 2)
    assert np.allclose(short, probs[:2], atol=1e-12)


@pytest.mark.parametrize("input_dim,n_out", [(3, 2), (5, N_CLASSES)])  # task 2, task 3
def test_infer_series_batches_match_one_pass(input_dim, n_out):
    # k * INFER_BATCH_CHUNKS + 1 chunks at the real shapes: the near-equal
    # batches give every step the bits of one pass over all the chunks.
    rng = np.random.default_rng(4)
    model = SequenceClassifier.init(rng, input_dim, 32, n_out)
    chunk_len = 64
    x = rng.normal(size=((2 * INFER_BATCH_CHUNKS + 1) * chunk_len - 5, input_dim))
    padded = np.zeros((len(x) + 5, input_dim))
    padded[:len(x)] = x
    whole = model.forward_probs(padded.reshape(-1, chunk_len, input_dim))
    assert model.infer_series(x, chunk_len).tobytes() == \
        whole.reshape(-1, n_out)[:len(x)].tobytes()


# --- bundle + persistence --------------------------------------------------------


def test_models_variant_validated():
    with pytest.raises(InvariantViolation):
        tiny_models(variant="b9_mystery")


def test_task1_proposal_without_cpd_is_one_whole_series_segment():
    segments, mask = task1_proposal("b2_no_cpd", 30, None, None, CpdConfig())
    assert segments == [Segment(0, 30)]
    assert mask.tolist() == [1.0] * 30


@pytest.mark.parametrize("variant", ["full", "b3_no_segclass"])
def test_task1_proposal_with_cpd_needs_errors_and_threshold(variant):
    cfg = CpdConfig(window=4, min_gap=2, min_len=1)
    threshold = ThresholdSpec(mu=0.5, sigma=0.1, k=3.0, tau=0.8)
    errors = np.zeros(27)
    errors[5:9] = 1.0
    segments, mask = task1_proposal(variant, 30, errors, threshold, cfg)
    want_segments, want_mask = propose_segments(errors, threshold, cfg, 30)
    assert segments == want_segments and mask.tolist() == want_mask.tolist()
    assert mask.sum() > 0
    with pytest.raises(InvariantViolation, match=variant):
        task1_proposal(variant, 30, None, threshold, cfg)
    with pytest.raises(InvariantViolation, match=variant):
        task1_proposal(variant, 30, errors, None, cfg)

    broken = tiny_models(variant=variant)
    broken.autoencoder = None
    with pytest.raises(InvariantViolation, match=variant):
        smtcnn_infer(np.zeros((30, 3)), broken)


def test_smtcnn_infer_consistency():
    models = tiny_models(variant="b2_no_cpd")
    x = np.random.default_rng(4).normal(size=(20, 3))
    pred = smtcnn_infer(x, models)
    assert pred.probs.shape == (20, N_CLASSES)
    assert set(np.unique(pred.classes)) <= set(range(1, 13))
    assert np.array_equal(pred.anomaly, pred.classes != 12)


@pytest.mark.parametrize("variant,with_seg", [("b2_no_cpd", True), ("b3_no_segclass", False)])
def test_save_load_round_trip(tmp_path, variant, with_seg):
    models = tiny_models(variant=variant, with_seg=with_seg)
    out = tmp_path / variant
    save_models(models, out)
    assert (out / "cpd.json").exists() == (variant != "b2_no_cpd")
    assert (out / "segclass.json").exists() == with_seg
    loaded = load_models(out)
    assert loaded.variant == variant
    assert loaded.seg_model is None and loaded.seg_cfg is None  # never read back
    assert loaded.chunk_len == models.chunk_len
    x = np.random.default_rng(7).normal(size=(16, 3))
    a = smtcnn_infer(x, models)
    b = smtcnn_infer(x, loaded)
    assert np.array_equal(a.probs, b.probs)
    save_models(loaded, tmp_path / "again")  # the record stays behind
    assert np.array_equal(smtcnn_infer(x, load_models(tmp_path / "again")).probs, a.probs)


def test_load_models_missing_files(tmp_path):
    with pytest.raises(ConfigError):
        load_models(tmp_path / "nowhere")
    models = tiny_models()
    out = tmp_path / "partial"
    save_models(models, out)
    (out / "task3.json").unlink()
    with pytest.raises(ConfigError):
        load_models(out)
