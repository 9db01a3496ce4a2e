"""Acceptance gate: the eight criteria the toolkit has to clear before a cut.

Every test prints exactly one `CRITERION n: PASS|FAIL (...)` line so the
pytest log doubles as the sign-off sheet. Criteria 4, 5, 7 and 8 train real
models on the default desk-scale data and are the slow part of the suite;
their runtime budgets are asserted where a budget is part of the criterion.
"""

from __future__ import annotations

import io
import logging
import math
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from faultlab import cli
from faultlab.changepoint import (
    compute_threshold,
    detect_changepoints,
    flags_to_segments,
    reconstruction_errors,
    segments_to_mask,
    train_autoencoder,
)
from faultlab.config import (
    CpdConfig,
    EvalPlanConfig,
    RunConfig,
    SegclassConfig,
    TaskNetConfig,
    save_run_config,
)
from faultlab.evaluation import ConfusionMatrix, metrics, seq_cv_plan
from faultlab.experiment import build_assets, run_all_variants
from faultlab.nncore import (
    DenseParams,
    LstmCellParams,
    dense_forward_batch,
    load_checkpoint,
    lstm_forward_batch,
    mse_loss,
    save_checkpoint,
    sequence_cross_entropy,
    softmax,
)
from faultlab.nncore.layers import dense_backward_batch, lstm_backward_batch
from faultlab.segclass import (
    KINDS,
    predict_batch,
    to_checkpoint,
    train_classifier,
    windowize,
)
from faultlab.simgen import NO_FAULT, generate_dataset
from oracles import check_gradients, crossval_10fold


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"\nCRITERION {num}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(autouse=True)
def _quiet_metric_warnings():
    # empty-denominator warnings are expected noise under randomized inputs
    logger = logging.getLogger("faultlab.evaluation")
    before = logger.level
    logger.setLevel(logging.ERROR)
    yield
    logger.setLevel(before)


# --- criterion 1: analytic gradients vs central differences -----------------

def _gradcheck_case(kind: str, seed: int) -> float:
    rng = np.random.default_rng(seed)
    nb = int(rng.integers(1, 4))
    nt = int(rng.integers(2, 6))
    nd = int(rng.integers(1, 5))
    nh = int(rng.integers(2, 6))
    nc = int(rng.integers(2, 7))

    if kind == "dense_mse":
        p = DenseParams.init(rng, nd, nh)
        x = rng.normal(size=(nb, nd))
        target = rng.normal(size=(nb, nh))

        def loss_fn():
            return mse_loss(dense_forward_batch(x, p), target)[0]

        out = dense_forward_batch(x, p)
        _, d_out = mse_loss(out, target)
        dw, db, _ = dense_backward_batch(x, out, d_out, p)
        report = check_gradients(loss_fn, [p.w, p.b], [dw, db])

    elif kind == "dense_softmax_mse":
        p = DenseParams.init(rng, nd, nc, activation="softmax")
        x = rng.normal(size=(nb, nd))
        target = rng.normal(size=(nb, nc))

        def loss_fn():
            return mse_loss(dense_forward_batch(x, p), target)[0]

        out = dense_forward_batch(x, p)
        _, d_out = mse_loss(out, target)
        dw, db, _ = dense_backward_batch(x, out, d_out, p)
        report = check_gradients(loss_fn, [p.w, p.b], [dw, db])

    elif kind == "dense_ce":
        p = DenseParams.init(rng, nd, nc)
        x = rng.normal(size=(nb, nt, nd))
        labels = rng.integers(1, nc + 1, size=(nb, nt))

        def loss_fn():
            probs = softmax(dense_forward_batch(x, p), axis=-1)
            return sequence_cross_entropy(probs, labels)[0]

        z = dense_forward_batch(x, p)
        _, dlogits = sequence_cross_entropy(softmax(z, axis=-1), labels)
        dw, db, _ = dense_backward_batch(x, z, dlogits, p)
        report = check_gradients(loss_fn, [p.w, p.b], [dw, db])

    elif kind == "lstm_mse":
        p = LstmCellParams.init(rng, nd, nh)
        x = rng.normal(size=(nb, nt, nd))
        target = rng.normal(size=(nb, nt, nh))
        params = [p.w_input, p.w_hidden, p.bias]

        def loss_fn():
            hs, _ = lstm_forward_batch(x, p)
            return mse_loss(hs, target)[0]

        hs, cache = lstm_forward_batch(x, p, want_cache=True)
        _, dh = mse_loss(hs, target)
        g = lstm_backward_batch(cache, dh)
        report = check_gradients(loss_fn, params, [g.w_input, g.w_hidden, g.bias])

    elif kind == "stacked_lstm_ce":
        p1 = LstmCellParams.init(rng, nd, nh)
        p2 = LstmCellParams.init(rng, nh, nh)
        head = DenseParams.init(rng, nh, nc)
        x = rng.normal(size=(nb, nt, nd))
        labels = rng.integers(1, nc + 1, size=(nb, nt))
        labels[rng.random(labels.shape) < 0.2] = 0  # padded steps must not leak
        labels[0, 0] = 1
        params = [p1.w_input, p1.w_hidden, p1.bias,
                  p2.w_input, p2.w_hidden, p2.bias, head.w, head.b]

        def loss_fn():
            h1, _ = lstm_forward_batch(x, p1)
            h2, _ = lstm_forward_batch(h1, p2)
            probs = softmax(dense_forward_batch(h2, head), axis=-1)
            return sequence_cross_entropy(probs, labels)[0]

        h1, cache1 = lstm_forward_batch(x, p1, want_cache=True)
        h2, cache2 = lstm_forward_batch(h1, p2, want_cache=True)
        z = dense_forward_batch(h2, head)
        _, dlogits = sequence_cross_entropy(softmax(z, axis=-1), labels)
        dw, db, dh2 = dense_backward_batch(h2, z, dlogits, head)
        g2 = lstm_backward_batch(cache2, dh2)
        g1 = lstm_backward_batch(cache1, g2.x)
        report = check_gradients(loss_fn, params,
                                 [g1.w_input, g1.w_hidden, g1.bias,
                                  g2.w_input, g2.w_hidden, g2.bias, dw, db])
    else:
        raise AssertionError(kind)
    return report.max_rel_error


def test_criterion_1_gradients():
    t0 = time.perf_counter()
    kinds = ("dense_mse", "dense_softmax_mse", "dense_ce", "lstm_mse",
             "stacked_lstm_ce")
    worst = 0.0
    n_cases = 0
    for rep in range(5):
        for ki, kind in enumerate(kinds):
            worst = max(worst, _gradcheck_case(kind, seed=1000 + 31 * rep + ki))
            n_cases += 1
    took = time.perf_counter() - t0
    ok = n_cases >= 20 and worst < 1e-4 and took < 60.0
    _verdict(1, ok, f"{n_cases} layer configs, max rel err {worst:.2e} < 1e-4, "
                    f"{took:.1f}s < 60s")


# --- criterion 2: training loss equals a hand-written Eq. 1 loop ------------

def test_criterion_2_loss_oracle():
    rng = np.random.default_rng(202)
    worst = 0.0
    n_cases = 120
    for _ in range(n_cases):
        n = int(rng.integers(1, 5))
        nt = int(rng.integers(1, 9))
        probs = softmax(rng.uniform(-5.0, 5.0, size=(n, nt, 12)), axis=-1)
        labels = rng.integers(0, 13, size=(n, nt))  # 0 = unlabeled padding
        labels[0, 0] = int(rng.integers(1, 13))

        got = sequence_cross_entropy(probs, labels)[0]
        total = 0.0
        for b in range(n):
            for t in range(nt):
                y = int(labels[b, t])
                if y > 0:
                    total -= math.log(probs[b, t, y - 1])
        want = total / n  # averaged over sequences, *not* over time
        worst = max(worst, abs(got - want))
    ok = worst <= 1e-12
    _verdict(2, ok, f"{n_cases} random (N<=4, T<=8, C=12) instances, "
                    f"max |loss - hand loop| = {worst:.2e} <= 1e-12")


# --- criterion 3: macro metrics match a brute-force per-class loop ----------

def _brute_force_metrics(counts: np.ndarray) -> dict:
    total = counts.sum()
    present = [i for i in range(len(counts)) if counts[i].sum() > 0]
    acc = {"balanced_accuracy": [], "precision": [], "recall": [],
           "specificity": [], "f1": []}
    for i in present:
        tp = counts[i, i]
        fn = counts[i].sum() - tp
        fp = counts[:, i].sum() - tp
        tn = total - tp - fn - fp
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        spec = tn / (tn + fp) if tn + fp else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        acc["balanced_accuracy"].append(rec)
        acc["precision"].append(prec)
        acc["recall"].append(rec)
        acc["specificity"].append(spec)
        acc["f1"].append(f1)
    return {k: sum(v) / len(v) for k, v in acc.items()}


def test_criterion_3_metric_oracle():
    rng = np.random.default_rng(303)
    worst = 0.0
    n_cases = 600
    sink = io.StringIO()
    with redirect_stdout(sink):
        for _ in range(n_cases):
            nc = int(rng.integers(2, 7))
            counts = rng.integers(0, 41, size=(nc, nc))
            while counts.sum() == 0:
                counts = rng.integers(0, 41, size=(nc, nc))
            got = metrics(ConfusionMatrix(counts, classes=list(range(1, nc + 1))))
            want = _brute_force_metrics(np.asarray(counts, dtype=np.int64))
            for key, val in want.items():
                worst = max(worst, abs(got[key] - val))
    ok = worst <= 1e-12
    _verdict(3, ok, f"{n_cases} random confusion matrices, "
                    f"max metric deviation {worst:.2e} <= 1e-12")


# --- criterion 4: change-point detection coverage on desk-scale data --------

def test_criterion_4_changepoint_property():
    t0 = time.perf_counter()
    cfg = RunConfig()
    normal = generate_dataset("normal_only", cfg.sim)
    mixed = generate_dataset("mixed", cfg.sim)

    # detectability premise: every injected class moves some channel's median
    # by >= 5 sigma of the aggregated per-channel noise
    xn = normal.features()
    xm = mixed.features()
    diffs = np.diff(xn, axis=0)
    sigma = np.median(np.abs(diffs - np.median(diffs, axis=0)), axis=0) / 0.6745
    sigma /= math.sqrt(2.0)  # differencing doubles the variance
    base = np.median(xm[mixed.fault_class == NO_FAULT], axis=0)
    fault_classes = sorted(set(mixed.fault_class.tolist()) - {NO_FAULT})
    assert len(fault_classes) == 11, f"expected all 11 classes, got {fault_classes}"
    weakest = math.inf
    for c in fault_classes:
        shift = np.abs(np.median(xm[mixed.fault_class == c], axis=0) - base)
        weakest = min(weakest, float(np.max(shift / sigma)))
    assert weakest >= 5.0, f"premise broken: weakest class shift {weakest:.2f} sigma"

    assert cfg.cpd.k == 3.0
    auto = train_autoencoder(normal, cfg.cpd, seed=cfg.stage_seed("cpd"))
    spec = compute_threshold(reconstruction_errors(auto, normal), cfg.cpd.k)
    flags = detect_changepoints(reconstruction_errors(auto, mixed), spec)
    segments = flags_to_segments(flags, min_gap=cfg.cpd.min_gap,
                                 min_len=cfg.cpd.min_len, window=cfg.cpd.window)
    mask = segments_to_mask(segments, len(mixed)).astype(bool)

    is_fault = mixed.fault_class != NO_FAULT
    coverage = float(mask[is_fault].mean())
    false_rate = float(mask[~is_fault].mean())
    took = time.perf_counter() - t0
    ok = coverage >= 0.90 and false_rate <= 0.05 and took < 300.0
    _verdict(4, ok, f"coverage {coverage:.1%} >= 90%, "
                    f"normal flagged {false_rate:.2%} <= 5%, "
                    f"weakest shift {weakest:.1f} sigma, {took:.0f}s < 300s")


# --- criterion 5: ablation ordering on the default experiment ---------------

def test_criterion_5_ablation_ordering():
    t0 = time.perf_counter()
    cfg = RunConfig()
    assets = build_assets(cfg)
    reports = run_all_variants(assets)
    took = time.perf_counter() - t0

    by_label = {r.label: r for r in reports}
    assert set(by_label) == {"full", "b2_no_cpd", "b3_no_segclass"}
    for r in reports:
        assert len(r.fold_metrics) == cfg.plan.folds, (r.label, r.skipped_folds)

    bacc = {v: by_label[v].mean["balanced_accuracy"] * 100 for v in by_label}
    spec = {v: by_label[v].mean["specificity"] * 100 for v in by_label}
    # margin per metric: full minus the better of the two ablations
    m_bacc = bacc["full"] - max(bacc["b2_no_cpd"], bacc["b3_no_segclass"])
    m_spec = spec["full"] - max(spec["b2_no_cpd"], spec["b3_no_segclass"])
    ok = m_bacc >= 1.0 and m_spec >= 1.0 and m_spec > m_bacc and took < 900.0
    _verdict(5, ok, f"bacc margin {m_bacc:+.2f}pp, spec margin {m_spec:+.2f}pp, "
                    f"spec margin largest: {m_spec > m_bacc}, {took:.0f}s < 900s")


# --- criterion 6: sequential CV contract over 100 seeds ---------------------

def test_criterion_6_cv_contract():
    violations = 0
    checked = 0
    for total in (50000, 21, 137, 8432):
        for seed in range(100):
            plan = seq_cv_plan(total, folds=10, seed=seed, lo=0.5, hi=0.8)
            again = seq_cv_plan(total, folds=10, seed=seed, lo=0.5, hi=0.8)
            assert plan == again, "plan is not deterministic in its seed"
            half = total // 2
            size2 = total - half
            assert len(plan.folds) == 10
            for f in plan.folds:
                checked += 1
                ok_fold = (
                    0 <= f.train_start
                    and f.train_start + f.train_len <= half
                    and half <= f.test_start
                    and f.test_start + f.test_len <= total
                    and math.ceil(0.5 * half) <= f.train_len <= math.floor(0.8 * half)
                    and math.ceil(0.5 * size2) <= f.test_len <= math.floor(0.8 * size2)
                )
                violations += 0 if ok_fold else 1
    ok = violations == 0
    _verdict(6, ok, f"{checked} folds over 100 seeds x 4 sizes, "
                    f"{violations} contract violations")


# --- criterion 7: byte-identical pipeline reruns -----------------------------

def _tiny_run_config(tmp: Path) -> Path:
    cfg = RunConfig(seed=11, out_dir=str(tmp / "unused"))
    cfg.sim.n_points = 4000
    cfg.sim.fault_rate = 0.10
    cfg.cpd = CpdConfig(window=8, enc_hidden=4, dec_hidden=8, max_epochs=2,
                        patience=2, batch_windows=64, max_train_windows=300)
    cfg.seg = SegclassConfig(rf_trees=8)
    cfg.task2 = TaskNetConfig(hidden=8, max_epochs=2, chunk_len=32, batch_chunks=8)
    cfg.task3 = TaskNetConfig(hidden=8, max_epochs=2, chunk_len=32, batch_chunks=8)
    cfg.plan = EvalPlanConfig(folds=3, min_valid_folds=1)
    path = tmp / "tiny.json"
    save_run_config(cfg, path)
    return path


def _file_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_criterion_7_pipeline_determinism(tmp_path, capsys):
    cfg_path = _tiny_run_config(tmp_path)
    outs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        code = cli.main(["pipeline", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        outs.append(_file_bytes(out))
    capsys.readouterr()  # swallow the two report printouts
    names_a, names_b = set(outs[0]), set(outs[1])
    assert names_a == names_b
    diff = [n for n in sorted(names_a) if outs[0][n] != outs[1][n]]
    expect = {"config.json", "report.csv", "report.md"}
    ok = not diff and expect.issubset(names_a) and any("models/" in n for n in names_a)
    _verdict(7, ok, f"{len(names_a)} files byte-compared across two runs, "
                    f"mismatches: {diff if diff else 'none'}")


# --- criterion 8: classical classifier sanity --------------------------------

def _scores_from_checkpoint(ckpt, feats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Re-evaluate a saved classifier from its raw arrays alone."""
    kind = ckpt.meta["kind"]
    classes = np.asarray(ckpt.arrays["classes"])
    if kind in ("decision_tree", "random_forest"):
        n_trees = int(ckpt.meta["n_trees"])
        scores = np.zeros((len(feats), len(classes)))
        for i in range(n_trees):
            feat = ckpt.arrays[f"t{i}_feat"]
            thr = ckpt.arrays[f"t{i}_thr"]
            left = ckpt.arrays[f"t{i}_left"]
            right = ckpt.arrays[f"t{i}_right"]
            dist = ckpt.arrays[f"t{i}_dist"]
            for r in range(len(feats)):
                j = 0
                while left[j] >= 0:
                    j = int(left[j]) if feats[r, feat[j]] <= thr[j] else int(right[j])
                scores[r] += dist[j]
        scores /= n_trees
    elif kind == "naive_bayes":
        mu, var = ckpt.arrays["mu"], ckpt.arrays["var"]
        lp = ckpt.arrays["log_prior"]
        scores = np.empty((len(feats), len(classes)))
        for c in range(len(classes)):
            z2 = ((feats - mu[c]) / np.sqrt(var[c])) ** 2
            scores[:, c] = lp[c] - 0.5 * np.sum(z2 + np.log(2 * math.pi * var[c]), axis=1)
    else:
        xs = (feats - ckpt.arrays["mu"]) / ckpt.arrays["sd"]
        scores = xs @ ckpt.arrays["w"].T + ckpt.arrays["b"]
    return classes[np.argmax(scores, axis=1)], scores


def test_criterion_8_classical_classifiers(tmp_path):
    cfg = RunConfig()
    anomaly = generate_dataset("anomaly_only", cfg.sim)
    rows = windowize(anomaly, cfg.seg.window, cfg.seg.stride)

    accs = {}
    agree = {}
    for kind in KINDS:
        report = crossval_10fold(rows, kind, seed=808, cfg=cfg.seg)
        accs[kind] = report.mean["balanced_accuracy"]

        model = train_classifier(kind, rows, cfg.seg, seed=808)
        path = tmp_path / f"{kind}.json"
        save_checkpoint(to_checkpoint(model), path)
        preds_ref, _ = _scores_from_checkpoint(load_checkpoint(path), rows.features)
        preds, _ = predict_batch(model, rows.features)
        agree[kind] = bool(np.array_equal(preds, preds_ref))

    low = min(accs, key=accs.get)
    ok = all(a >= 0.95 for a in accs.values()) and all(agree.values())
    _verdict(8, ok, f"10-fold accuracy lowest {low} {accs[low]:.1%} (need >= 95%), "
                    f"checkpoint re-evaluation agreement: "
                    f"{'all six kinds' if all(agree.values()) else agree}")
