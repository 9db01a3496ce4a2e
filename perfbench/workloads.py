"""The three benchmark workloads, driven through faultlab's public API.

Every workload is a closed loop with one client in one process. Inputs
(configs, datasets, request CSVs) are generated from the workload seed;
faultlab only ever sees those inputs. Functions are called through their
module attribute (``changepoint.train_autoencoder``, not a local name) so
that the traced run's wrappers see every call.

A workload sets up several times and reports the median set-up time, then
repeats its timed pass while another pass is predicted to end within the
time budget. Output checks run after the timed phase. Each check marks the
operation it belongs to as failed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import logging
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import faultlab.cascade as cascade
import faultlab.changepoint as changepoint
import faultlab.cli as cli
import faultlab.experiment as experiment
import faultlab.segclass as segclass
import faultlab.simgen as simgen
from faultlab.config import (
    CpdConfig,
    EvalPlanConfig,
    RunConfig,
    SegclassConfig,
    SimConfig,
    TaskNetConfig,
)

from stats import median, tail_percentile
from tracing import Tracer, installed

# Set up at least SETUP_REPS times and for at least SETUP_MIN_S seconds, so
# a set-up of milliseconds is not timed mostly cold.
SETUP_REPS = 3
SETUP_MIN_S = 1.0
# Autoencoder train-and-score calls a probe adds, half before the timed
# phase and half after it.
PROBE_REPS = 5
clock = time.perf_counter

# Real autoencoder shapes (window 16, encoder 16, decoder 32, batch 256) with
# a fixed epoch count: patience >= max_epochs, so the amount of training work
# never depends on the numerics.
CPD_CFG = CpdConfig(max_epochs=2, patience=2, max_train_windows=1500)
# The training stream has criterion 4's desk-scale 50k rows, of which
# max_train_windows are sampled. 4111 rows give 4096 stride-1 windows: one
# full scoring batch per scoring stream.
CPD_ROWS = {"train": 50000, "normal": 4111, "mixed": 4111}

CASCADE_ROWS = {"normal_only": 3000, "anomaly_only": 2000, "mixed": 6000}
SERVE_ROWS = {"normal_only": 3000, "anomaly_only": 2000, "mixed": 4000}
# A higher fault rate than the default so every CV block holds faults and
# no fold is skipped at this scale.
FAULT_RATE = 0.08

# Request mixes as (count, shortest, longest) groups. Many short requests
# of similar length keep the latency quantiles steady: each quantile lands
# among requests that cost about the same. A few long requests carry most
# of the rows and are GEMM-bound. With 40 requests the tail is p75.
SERVE_MIX = ((36, 200, 600), (4, 8000, 20000))
PROBE_MIX = ((40, 200, 600),)
PRED_HEADER = "index,class,p_anomaly"


def child_seed(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"perfbench:{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class Ledger:
    """Operations attempted and failed; a failed check fails its operation."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def op(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems = (self.problems + [f"{what}: {p}" for p in problems])[:20]


@dataclass
class Context:
    seed: int
    seconds: float
    work: Path
    tracer: Tracer | None = None
    ledger: Ledger = field(default_factory=Ledger)
    info: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    trace_walls: tuple[list[float], list[float]] = field(default_factory=lambda: ([], []))


@dataclass
class Measured:
    state: object
    setup_s: list[float]
    walls: list[float]
    results: list
    warm: object = None


def measure(ctx: Context, setup: Callable[[], object], unit: Callable[[object], object],
            warmup: Callable[[object], object] | None = None,
            trace_unit: Callable[[object], object] | None = None) -> Measured:
    """Set up, then run timed passes of `unit(state)`.

    Untraced: set up SETUP_REPS times or more (see SETUP_MIN_S), run
    `warmup(state)` untimed, then
    repeat the pass while another is predicted to end within the budget (at
    least one pass). Traced: one traced set-up (unit 0), the warm-up, then
    pairs of an untraced and a traced pass of `trace_unit` (default `unit`),
    so their difference is the tracing overhead.
    """
    if ctx.tracer is None:
        setup_s = []
        while len(setup_s) < SETUP_REPS or sum(setup_s) < SETUP_MIN_S:
            t0 = clock()
            state = setup()
            setup_s.append(clock() - t0)
        warm = warmup(state) if warmup else None
        walls, results = [], []
        begin = clock()
        while True:
            t0 = clock()
            results.append(unit(state))
            t1 = clock()
            walls.append(t1 - t0)
            if t1 - begin + median(walls) > ctx.seconds:
                return Measured(state, setup_s, walls, results, warm)

    tracer = ctx.tracer
    traced_unit = trace_unit or unit
    with installed(tracer) as bindings:
        t0 = clock()
        state = setup()
        setup_s = [clock() - t0]
    ctx.info["wrapped_bindings"] = bindings
    warm = warmup(state) if warmup else None
    plain, traced = ctx.trace_walls
    results = []
    begin = clock()
    while True:
        t0 = clock()
        results.append(traced_unit(state))
        t1 = clock()
        tracer.unit += 1
        with installed(tracer):
            results.append(traced_unit(state))
        t2 = clock()
        plain.append(t1 - t0)
        traced.append(t2 - t1)
        if t2 - begin + median(plain) + median(traced) > ctx.seconds:
            return Measured(state, setup_s, plain, results, warm)


def common_metrics(ctx: Context, m: Measured) -> None:
    # Pass times are averaged, not medianed: the machine's speed flips
    # between two states every few seconds, and a median of a few passes
    # jumps between them where a mean moves smoothly.
    ctx.metrics["setup_s"] = median(m.setup_s)
    ctx.metrics["wall_s"] = sum(m.walls) / len(m.walls)
    ctx.info["setup_reps"] = len(m.setup_s)
    ctx.info["timed_passes"] = len(m.walls)


# --- serving: `faultlab infer` requests ----------------------------------------

@dataclass
class Request:
    path: Path
    rows: int


def request_lengths(seed: int, mix) -> np.ndarray:
    """Request lengths for a mix of (count, shortest, longest) groups.

    Each group's range is cut into `count` log-spaced strata and one length
    is drawn from the middle half of each, so the seed changes the inputs
    but hardly the length mix. The order is shuffled by the seed.
    """
    rng = np.random.default_rng(child_seed(seed, "request-lengths"))
    logs = []
    for n, lo, hi in mix:
        edges = np.linspace(math.log(lo), math.log(hi), n + 1)
        logs.append(edges[:-1] + (0.25 + 0.5 * rng.random(n)) * np.diff(edges))
    lengths = np.round(np.exp(np.concatenate(logs))).astype(int)
    return lengths[rng.permutation(len(lengths))]


def request_datasets(seed: int, tag: str, lengths) -> list:
    return [simgen.generate_dataset("mixed", SimConfig(seed=child_seed(seed, f"{tag}:{i}"),
                                                       n_points=int(n)))
            for i, n in enumerate(lengths)]


def write_requests(seed: int, tag: str, lengths, folder: Path) -> list[Request]:
    folder.mkdir(parents=True, exist_ok=True)
    requests = []
    for i, ds in enumerate(request_datasets(seed, tag, lengths)):
        path = folder / f"{tag}-{i}.csv"
        simgen.write_csv(ds, path)
        requests.append(Request(path, len(ds)))
    return requests


def serve(model_dir: Path, requests: list[Request], out_dir: Path) -> list[tuple]:
    """One `faultlab infer` call per request; returns (index, seconds, exit code)."""
    done = []
    with contextlib.redirect_stdout(io.StringIO()):
        for i, req in enumerate(requests):
            t0 = clock()
            code = cli.main(["infer", "--models", str(model_dir), "--in", str(req.path),
                             "--out", str(out_dir / f"pred-{req.path.stem}.csv")])
            done.append((i, clock() - t0, code))
    return done


def read_predictions(path: Path, rows: int) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Problems found in one prediction CSV, plus its classes and p_anomaly."""
    lines = path.read_text().splitlines()
    if not lines or lines[0] != PRED_HEADER:
        return [f"bad header in {path.name}"], np.empty(0), np.empty(0)
    cells = [ln.split(",") for ln in lines[1:]]
    if len(cells) != rows or any(len(c) != 3 for c in cells):
        return [f"{len(cells)} prediction rows for {rows} input rows"], np.empty(0), np.empty(0)
    index = np.array([int(c[0]) for c in cells])
    classes = np.array([int(c[1]) for c in cells])
    p_anom = np.array([float(c[2]) for c in cells])
    problems = []
    if not np.array_equal(index, np.arange(rows)):
        problems.append("index column is not 0..n-1")
    if np.any((classes < 1) | (classes > 12)):
        problems.append("class outside 1..12")
    if not np.all(np.isfinite(p_anom)) or np.any((p_anom < 0) | (p_anom > 1)):
        problems.append("p_anomaly outside [0, 1]")
    return problems, classes, p_anom


def check_serving(ctx: Context, model_dir: Path, requests: list[Request],
                  done: list[tuple], out_dir: Path, label: str) -> None:
    """Exit code and prediction file of every request; sampled requests must
    equal in-process `smtcnn_infer` on the same loaded models and input."""
    rng = np.random.default_rng(child_seed(ctx.seed, f"{label}:sample"))
    sampled = set(rng.choice(len(requests), size=min(3, len(requests)), replace=False).tolist())
    file_problems = {}
    for i, req in enumerate(requests):
        path = out_dir / f"pred-{req.path.stem}.csv"
        if not path.exists():
            continue
        problems, classes, p_anom = read_predictions(path, req.rows)
        if not problems and i in sampled:
            pred = cascade.smtcnn_infer(simgen.read_csv(req.path), cascade.load_models(model_dir))
            ref_p = 1.0 - pred.probs[:, simgen.NO_FAULT - 1]
            if not (np.array_equal(classes, pred.classes) and np.array_equal(p_anom, ref_p)):
                problems.append("CLI output differs from in-process smtcnn_infer")
        file_problems[i] = problems
    for i, _, code in done:
        problems = [f"exit code {code}"] if code != 0 else file_problems.get(i, ["no output"])
        ctx.ledger.op(f"{label} request {i}", problems)


def infer_metrics(ctx: Context, requests: list[Request], done: list[tuple]) -> None:
    lat = [dt for _, dt, _ in done]
    pct, tail = tail_percentile(lat)
    ctx.metrics["infer_p50_ms"] = 1000.0 * median(lat)
    ctx.metrics["infer_tail_ms"] = 1000.0 * tail
    ctx.metrics["infer_rows_per_s"] = sum(requests[i].rows for i, _, _ in done) / sum(lat)
    ctx.info["infer_requests"] = len(done)
    ctx.info["infer_tail_percentile"] = pct


class ServingProbe:
    """`faultlab infer` latency on a workload whose own phase serves nothing.

    The autoencoder, threshold and segment classifier are the workload's own.
    The task networks keep their seeded initial weights: inference runs the
    same operations whatever the weights are, and training them would only
    add set-up time. Half of the requests are served before the timed phase
    and half after it, so the probe sees the machine at both ends of the run.
    """

    def __init__(self, ctx: Context, auto, threshold, cpd_cfg: CpdConfig, seg_model, mixed):
        rng = np.random.default_rng(child_seed(ctx.seed, "probe:init"))
        net = TaskNetConfig()
        models = cascade.SmtcnnModels(
            variant="full", autoencoder=auto, threshold=threshold, seg_model=seg_model,
            task2=cascade.SequenceClassifier.init(rng, 3, net.hidden, 2),
            task3=cascade.SequenceClassifier.init(rng, 5, net.hidden, cascade.N_CLASSES),
            std=cascade.Standardizer.fit(mixed.features()), cpd_cfg=cpd_cfg,
            seg_cfg=SegclassConfig(), chunk_len=net.chunk_len)
        self.ctx = ctx
        self.model_dir = ctx.work / "probe-models"
        cascade.save_models(models, self.model_dir)
        self.requests = write_requests(ctx.seed, "probe", request_lengths(ctx.seed, PROBE_MIX),
                                       ctx.work / "probe-requests")
        self.done: list[tuple] = []

    def serve_half(self, half: int) -> None:
        start = half * ((len(self.requests) + 1) // 2)
        part = self.requests[start:start + (len(self.requests) + 1) // 2]
        self.done += [(start + i, dt, code)
                      for i, dt, code in serve(self.model_dir, part, self.ctx.work)]

    def finish(self) -> None:
        check_serving(self.ctx, self.model_dir, self.requests, self.done, self.ctx.work,
                      "probe")
        infer_metrics(self.ctx, self.requests, self.done)
        self.ctx.info["infer_source"] = "serving probe around the timed phase"


# --- change-point checks -------------------------------------------------------

def check_errors(errors: np.ndarray, rows: int, window: int) -> list[str]:
    problems = []
    if len(errors) != rows - window + 1:
        problems.append(f"{len(errors)} errors for {rows} rows")
    if not np.all(np.isfinite(errors)):
        problems.append("non-finite reconstruction error")
    return problems


def check_threshold(spec, errors: np.ndarray, k: float) -> list[str]:
    want = float(np.mean(errors)) + k * float(np.std(errors))
    if abs(spec.tau - want) > 1e-9 * max(1.0, abs(want)):
        return [f"tau {spec.tau!r} != mu + k*sigma {want!r}"]
    return []


def check_segments(segments, rows: int) -> list[str]:
    return [f"segment [{s.start}, {s.end}) outside stream of {rows}"
            for s in segments if not 0 <= s.start < s.end <= rows]


def check_rescore(auto, series: np.ndarray, errors: np.ndarray, start: int,
                  length: int) -> list[str]:
    """Scoring a block must match the slice of the full-stream errors
    (experiment.block_proposals relies on it)."""
    block = changepoint.reconstruction_errors(auto, series[start:start + length])
    full = errors[start:start + len(block)]
    if not np.allclose(block, full, rtol=1e-12, atol=0.0):
        worst = float(np.max(np.abs(block - full) / np.abs(full)))
        return [f"block rescoring differs by {worst:.3g} relative"]
    return []


def fault_coverage(segments, ds) -> dict:
    """Criterion 4's quality numbers at the workload's scale (information only)."""
    mask = changepoint.segments_to_mask(segments, len(ds)).astype(bool)
    is_fault = ds.fault_class != simgen.NO_FAULT
    return {"coverage": float(mask[is_fault].mean()) if is_fault.any() else None,
            "normal_flagged": float(mask[~is_fault].mean())}


@dataclass
class CpdTimes:
    """Autoencoder work and the time it took, summed over every timed call.

    The rates are totals over totals, as their definitions read, so they
    average over the machine's speed changes instead of picking one call.
    """

    windows_trained: int = 0
    train_s: float = 0.0
    windows_scored: int = 0
    score_s: float = 0.0

    def report(self, ctx: Context) -> None:
        ctx.metrics["cpd_train_windows_per_s"] = self.windows_trained / self.train_s
        ctx.metrics["cpd_score_windows_per_s"] = self.windows_scored / self.score_s


def cpd_probe(ctx: Context, times: CpdTimes, cfg: CpdConfig, seed: int, normal, mixed, auto,
              reps: int, cached: np.ndarray | None = None) -> None:
    """Time `train_autoencoder` on `normal` and `auto`'s scoring of `mixed`.

    With `cached`, each rescoring must reproduce those errors: the error
    cache that experiment.block_proposals slices.
    """
    for _ in range(reps):
        t0 = clock()
        changepoint.train_autoencoder(normal, cfg, seed=seed)
        t1 = clock()
        errors = changepoint.reconstruction_errors(auto, mixed)
        t2 = clock()
        times.windows_trained += trained_windows(cfg, len(normal), cfg.max_epochs)
        times.train_s += t1 - t0
        times.windows_scored += len(errors)
        times.score_s += t2 - t1
        if cached is not None:
            problems = check_errors(errors, len(mixed), cfg.window)
            if not problems and not np.allclose(errors, cached, rtol=1e-12, atol=0.0):
                problems.append("rescored mixed errors differ from the cached errors")
            ctx.ledger.op("rescore mixed", problems)


# --- workload: cpd_detect --------------------------------------------------------

def cpd_inputs(seed: int) -> dict:
    return {
        "train": simgen.generate_dataset("normal_only", SimConfig(
            seed=child_seed(seed, "cpd:train"), n_points=CPD_ROWS["train"])),
        "normal": simgen.generate_dataset("normal_only", SimConfig(
            seed=child_seed(seed, "cpd:normal"), n_points=CPD_ROWS["normal"])),
        "mixed": simgen.generate_dataset("mixed", SimConfig(
            seed=child_seed(seed, "cpd:mixed"), n_points=CPD_ROWS["mixed"])),
    }


def trained_windows(cfg: CpdConfig, rows: int, epochs: int) -> int:
    """Windows per epoch that train_autoencoder trains on, times epochs."""
    n_take = min(cfg.max_train_windows, rows - cfg.window + 1)
    return epochs * (n_take - max(1, int(cfg.val_frac * n_take)))


@dataclass
class CpdPass:
    auto: object
    err_normal: np.ndarray
    err_mixed: np.ndarray
    spec: object
    segments: list
    train_s: float
    score_s: float


def cpd_pass(data: dict, seed: int) -> CpdPass:
    cfg = CPD_CFG
    t0 = clock()
    auto = changepoint.train_autoencoder(data["train"], cfg, seed=seed)
    t1 = clock()
    err_n = changepoint.reconstruction_errors(auto, data["normal"])
    err_m = changepoint.reconstruction_errors(auto, data["mixed"])
    t2 = clock()
    spec = changepoint.compute_threshold(err_n, cfg.k)
    flags = changepoint.detect_changepoints(err_m, spec)
    segments = changepoint.flags_to_segments(flags, min_gap=cfg.min_gap,
                                             min_len=cfg.min_len, window=cfg.window)
    return CpdPass(auto, err_n, err_m, spec, segments, t1 - t0, t2 - t1)


def cpd_detect(ctx: Context) -> None:
    """Train the change-point autoencoder, score two streams, detect segments."""
    cfg = CPD_CFG
    train_seed = child_seed(ctx.seed, "cpd:fit")
    probe = {}

    def warmup(data):
        # An untimed first pass; its autoencoder serves the probe's first half.
        warm = cpd_pass(data, train_seed)
        if ctx.tracer is None:
            probe["serving"] = ServingProbe(ctx, warm.auto, warm.spec, cfg, None, data["mixed"])
            probe["serving"].serve_half(0)
        return warm

    m = measure(ctx, lambda: cpd_inputs(ctx.seed), lambda data: cpd_pass(data, train_seed),
                warmup=warmup)
    data = m.state
    n_train = trained_windows(cfg, len(data["train"]), cfg.max_epochs)
    for p in [m.warm] + m.results:
        epochs = p.auto.train_result.epochs_run
        ctx.ledger.op("train", [] if epochs == cfg.max_epochs else
                      [f"{epochs} epochs run, {cfg.max_epochs} expected"])
        ctx.ledger.op("score normal", check_errors(p.err_normal, len(data["normal"]), cfg.window)
                      + check_threshold(p.spec, p.err_normal, cfg.k))
        ctx.ledger.op("score mixed", check_errors(p.err_mixed, len(data["mixed"]), cfg.window)
                      + check_segments(p.segments, len(data["mixed"])))
    last = m.results[-1]
    rng = np.random.default_rng(child_seed(ctx.seed, "cpd:block"))
    rows = len(data["mixed"])
    start = int(rng.integers(0, rows // 2))
    ctx.ledger.op("rescore block", check_rescore(last.auto, data["mixed"].features(),
                                                 last.err_mixed, start, rows // 4))
    ctx.info["quality"] = {**fault_coverage(last.segments, data["mixed"]),
                           "tau": last.spec.tau, "segments": len(last.segments)}
    ctx.info["config"] = {"cpd": dataclasses.asdict(cfg), "rows": CPD_ROWS}
    if ctx.tracer is not None:
        return
    common_metrics(ctx, m)
    CpdTimes(n_train * len(m.results), sum(p.train_s for p in m.results),
             sum(len(p.err_normal) + len(p.err_mixed) for p in m.results),
             sum(p.score_s for p in m.results)).report(ctx)
    probe["serving"].serve_half(1)
    probe["serving"].finish()


# --- workload: cascade_cv ----------------------------------------------------------

def cascade_config(seed: int) -> RunConfig:
    """Real task-network shapes (hidden 32, chunk 64, batch 16, 5 epochs).

    The CV blocks have a fixed length (len_frac_lo == len_frac_hi) and the
    epoch decks are not rebalanced, so the work of a fold is set by the
    block length: a rebalanced deck grows with the number of fault-touched
    chunks, which at this block size moves it by a fifth between seeds.
    """
    cfg = RunConfig(seed=child_seed(seed, "cascade:run"))
    cfg.sim = SimConfig(seed=child_seed(seed, "cascade:sim"), fault_rate=FAULT_RATE)
    cfg.cpd = CpdConfig(max_epochs=2, patience=2, max_train_windows=1000)
    cfg.task2 = TaskNetConfig(rebalance_frac=None)
    cfg.task3 = TaskNetConfig(rebalance_frac=None)
    cfg.plan = EvalPlanConfig(folds=2, len_frac_lo=0.65, len_frac_hi=0.65, min_valid_folds=0)
    return cfg


def regime_inputs(cfg: RunConfig, rows: dict) -> dict:
    return {r: simgen.generate_dataset(r, dataclasses.replace(cfg.sim, n_points=n))
            for r, n in rows.items()}


def check_reports(reports, plan) -> list[list[str]]:
    """Problems per (fold, variant) cell, in run order."""
    cells = []
    for fold in range(len(plan.folds)):
        for rep in reports:
            if fold in rep.skipped_folds:
                cells.append(["fold skipped"])
                continue
            k = fold - sum(1 for s in rep.skipped_folds if s < fold)
            values = rep.fold_metrics[k].values()
            ok = all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values)
            cells.append([] if ok else [f"metric outside [0, 1]: {rep.fold_metrics[k]}"])
    return cells


def checked_cv_pass(assets, plan) -> tuple[list, list[list[str]]]:
    """One CV pass that also records every confusion matrix total."""
    totals = []
    original = experiment.confusion

    def recording(preds, truth, classes=None):
        cm = original(preds, truth, classes=classes)
        totals.append(cm.total)
        return cm

    experiment.confusion = recording
    try:
        reports = experiment.run_all_variants(assets, plan)
    finally:
        experiment.confusion = original
    cells = check_reports(reports, plan)
    want = [f.test_len for f in plan.folds for _ in reports]
    if totals != want:
        cells = [c + [f"confusion totals {totals} != test-block lengths {want}"] for c in cells]
    return reports, cells


def ablation_margins(reports) -> dict:
    """Criterion 5's margins in percentage points (information only)."""
    by = {r.label: r for r in reports}
    if any(not r.fold_metrics for r in reports):
        return {}
    out = {}
    for metric, key in (("balanced_accuracy", "bacc_margin_pp"), ("specificity", "spec_margin_pp")):
        v = {label: r.mean[metric] * 100 for label, r in by.items()}
        out[key] = v["full"] - max(v["b2_no_cpd"], v["b3_no_segclass"])
    return out


def cascade_cv(ctx: Context) -> None:
    """Sequential CV of the cascade and its two ablations over shared assets."""
    cfg = cascade_config(ctx.seed)

    def setup():
        assets = experiment.build_assets(cfg, regime_inputs(cfg, CASCADE_ROWS))
        return assets, experiment.default_plan(assets)

    def cv_pass(state):
        return experiment.run_all_variants(*state)

    times, probe = CpdTimes(), {}

    def cpd_reps(assets, reps):
        # The autoencoder trains and scores inside build_assets; time the
        # same two calls again.
        cpd_probe(ctx, times, cfg.cpd, cfg.stage_seed("cpd"), assets.normal, assets.mixed,
                  assets.autoencoder, reps, cached=assets.mixed_errors)

    def warmup(state):
        # An untimed first pass records the confusion totals; the probes run
        # their first half right after it and their second after the timed
        # phase.
        checked = checked_cv_pass(*state)
        if ctx.tracer is None:
            assets = state[0]
            cpd_reps(assets, PROBE_REPS // 2)
            probe["serving"] = ServingProbe(ctx, assets.autoencoder, assets.threshold, cfg.cpd,
                                            assets.seg_model, assets.mixed)
            probe["serving"].serve_half(0)
        return checked

    m = measure(ctx, setup, cv_pass, warmup=warmup)
    assets, plan = m.state
    for c, problems in enumerate(m.warm[1]):
        ctx.ledger.op(f"checked cell {c}", problems)
    for reports in m.results:
        for c, problems in enumerate(check_reports(reports, plan)):
            ctx.ledger.op(f"cell {c}", problems)
    ctx.info["quality"] = ablation_margins(m.results[-1])
    ctx.info["config"] = {"run": dataclasses.asdict(cfg), "rows": CASCADE_ROWS,
                          "plan": [dataclasses.asdict(f) for f in plan.folds]}
    if ctx.tracer is not None:
        return
    common_metrics(ctx, m)
    cpd_reps(assets, PROBE_REPS - PROBE_REPS // 2)
    times.report(ctx)
    probe["serving"].serve_half(1)
    probe["serving"].finish()


# --- workload: infer_serve -----------------------------------------------------------

def serve_config(seed: int) -> RunConfig:
    """Real shapes everywhere, a small epoch budget for the task networks."""
    cfg = RunConfig(seed=child_seed(seed, "serve:run"))
    cfg.sim = SimConfig(seed=child_seed(seed, "serve:sim"), fault_rate=FAULT_RATE)
    cfg.cpd = CpdConfig(max_epochs=2, patience=2, max_train_windows=1000)
    cfg.task2 = TaskNetConfig(max_epochs=1, patience=1)
    cfg.task3 = TaskNetConfig(max_epochs=1, patience=1)
    return cfg


def infer_serve(ctx: Context) -> None:
    """A stream of `faultlab infer` requests of widely spread lengths."""
    cfg = serve_config(ctx.seed)
    lengths = request_lengths(ctx.seed, SERVE_MIX)
    model_dir = ctx.work / "models"
    times, trained = CpdTimes(), {}

    def setup():
        # build_assets step by step, so the autoencoder calls can be timed,
        # then the pipeline's train_whole and save_models.
        ds = regime_inputs(cfg, SERVE_ROWS)
        normal, anomaly, mixed = ds["normal_only"], ds["anomaly_only"], ds["mixed"]
        t0 = clock()
        auto = changepoint.train_autoencoder(normal, cfg.cpd, seed=cfg.stage_seed("cpd"))
        t1 = clock()
        err_n = changepoint.reconstruction_errors(auto, normal)
        err_m = changepoint.reconstruction_errors(auto, mixed)
        t2 = clock()
        times.windows_trained += trained_windows(cfg.cpd, len(normal), cfg.cpd.max_epochs)
        times.train_s += t1 - t0
        times.windows_scored += len(err_n) + len(err_m)
        times.score_s += t2 - t1
        trained.update(normal=normal, mixed=mixed, auto=auto)
        threshold = changepoint.compute_threshold(err_n, cfg.cpd.k)
        rows = segclass.windowize(anomaly, cfg.seg.window, cfg.seg.stride)
        seg_model = segclass.train_classifier(cfg.seg.kind, rows, cfg.seg,
                                              seed=cfg.stage_seed("segclass"))
        assets = experiment.ExperimentAssets(cfg, normal, anomaly, mixed, auto, threshold,
                                             seg_model, err_m)
        cascade.save_models(experiment.train_whole(assets, "full"), model_dir)
        return write_requests(ctx.seed, "request", lengths, ctx.work / "requests")

    def subset(requests):
        # Every fourth request by length keeps the traced pass short but spread.
        order = np.argsort([r.rows for r in requests], kind="stable")
        return [requests[i] for i in order[::4]]

    def cpd_reps(reps):
        # More autoencoder calls than the set-ups make, half before the
        # timed phase and half after it.
        cpd_probe(ctx, times, cfg.cpd, cfg.stage_seed("cpd"), trained["normal"],
                  trained["mixed"], trained["auto"], reps)

    m = measure(ctx, setup, lambda requests: serve(model_dir, requests, ctx.work),
                warmup=lambda requests: None if ctx.tracer else cpd_reps(PROBE_REPS // 2),
                trace_unit=lambda requests: serve(model_dir, subset(requests), ctx.work))
    requests = m.state
    if ctx.tracer is not None:
        for done in m.results:
            check_serving(ctx, model_dir, subset(requests), done, ctx.work, "request")
        return
    done = [d for pass_done in m.results for d in pass_done]
    check_serving(ctx, model_dir, requests, done, ctx.work, "request")
    common_metrics(ctx, m)
    infer_metrics(ctx, requests, done)
    cpd_reps(PROBE_REPS - PROBE_REPS // 2)
    times.report(ctx)
    ctx.info["config"] = {"run": dataclasses.asdict(cfg), "rows": SERVE_ROWS,
                          "request_rows": sorted(int(n) for n in lengths)}


WORKLOADS = {"cpd_detect": cpd_detect, "cascade_cv": cascade_cv, "infer_serve": infer_serve}


class _WarningCount(logging.Handler):
    def __init__(self):
        super().__init__()
        self.n = 0

    def emit(self, record):
        self.n += 1


@contextlib.contextmanager
def quiet_evaluation_warnings():
    """Count the `faultlab.evaluation` warnings instead of printing them."""
    log = logging.getLogger("faultlab.evaluation")
    counter = _WarningCount()
    propagate = log.propagate
    log.addHandler(counter)
    log.propagate = False
    try:
        yield counter
    finally:
        log.removeHandler(counter)
        log.propagate = propagate
