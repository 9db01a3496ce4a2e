"""Configuration dataclasses for every stage, plus seed plumbing.

All experiment randomness flows from one global seed: each stage derives its
own child seed via `derive_seed(global_seed, stage_name)`, so stages can be
rerun in isolation and still reproduce.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any

from .errors import ConfigError

REGIMES = ("anomaly_only", "normal_only", "mixed")
# The segment classifier kinds (see segclass).
KINDS = ("decision_tree", "random_forest", "naive_bayes",
         "logistic_regression", "sgd_linear", "linear_svm")

# Desk-scale defaults; the paper-scale sizes sit behind SimConfig.paper_scale.
DESK_SIZES = {"anomaly_only": 8432, "normal_only": 50000, "mixed": 50000}
PAPER_SIZES = {"anomaly_only": 8432, "normal_only": 740448, "mixed": 718444}


def derive_seed(global_seed: int, stage: str) -> int:
    """Stable per-stage child seed: first 8 bytes of sha256("seed:stage")."""
    digest = hashlib.sha256(f"{global_seed}:{stage}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise ConfigError(message)


def _is_number(value: Any) -> bool:
    """An int or float that is finite as a float64; a bool is no number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int past the float64 range
        return False


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_ints(obj: Any, minimum: int, *names: str) -> None:
    """Integers >= minimum that fit an int64."""
    for name in names:
        value = getattr(obj, name)
        _check(_is_int(value) and minimum <= value < 2**63,
               f"{name} must be an integer >= {minimum} and < 2**63, got {value!r}")


def _check_numbers(obj: Any, minimum: float, *names: str, strict: bool = False) -> None:
    """Numbers >= minimum, or > minimum when strict. A zero must be +0.0:
    NumPy's samplers refuse a scale whose sign bit is set."""
    for name in names:
        value = getattr(obj, name)
        _check(_is_number(value) and (value > minimum if strict else value >= minimum)
               and (value != 0 or math.copysign(1.0, value) > 0),
               f"{name} must be a number {'>' if strict else '>='} {minimum}, got {value!r}")


def _check_tuple(name: str, value: Any, length: int, of=_is_number) -> None:
    _check(isinstance(value, tuple) and len(value) == length and all(map(of, value)),
           f"{name} must hold {length} {'integers' if of is _is_int else 'numbers'}, "
           f"got {value!r}")


def _check_fraction(name: str, value: Any) -> None:
    """A share of the data held out or added: 0 <= value < 1."""
    _check(_is_number(value) and 0.0 <= value < 1.0,
           f"{name} must be a number in [0, 1), got {value!r}")


@dataclass
class FaultSignatures:
    """How each fault family manifests in the three channels.

    Entirely synthetic: magnitudes are severity-ordered within a family and
    tunable so dataset difficulty can be dialed up or down.
    """

    # Undervoltage, classes 1..6: nominal 3.3 V sagging to a class-specific
    # floor; energy drops proportionally to (nominal - floor), noise grows.
    uv_nominal_v: float = 3.3
    uv_floors_v: tuple = (3.0, 2.84, 2.68, 2.52, 2.36, 2.2)
    uv_energy_per_volt: float = 20.0
    uv_noise_gain: float = 1.0
    # Sensor stuck, classes 7..8: one channel frozen at its start value,
    # plus a small side effect on another channel so the window is visible
    # to mean-level detectors as well. The side effects avoid the energy
    # channel, where benign excursions would camouflage them.
    stuck7_duration_shift: float = 0.018
    stuck8_cpu_shift: float = 0.05
    # MCU high temperature, classes 9..10: cpu ramps toward a saturation
    # target over the first quarter of the window, duration inflates.
    mcu_cpu_targets: tuple = (0.95, 0.80)
    mcu_duration_gains: tuple = (1.6, 1.3)
    mcu_ramp_frac: float = 0.25
    # Buffer overflow, class 11: duration spikes and cpu bursts.
    overflow_duration_gain: float = 3.0
    overflow_duration_base_gain: float = 1.5
    overflow_cpu_burst: float = 0.97
    overflow_spike_prob: float = 0.5


@dataclass
class SimConfig:
    """Telemetry simulator knobs (four devices aggregated into one stream)."""

    seed: int = 0
    n_points: int | None = None  # None -> per-regime default size
    paper_scale: bool = False
    n_devices: int = 4
    start_timestamp: int = 1_577_836_800
    period_s: int = 60
    # Per-device channel baselines; aggregation sums energy and averages
    # cpu/duration, so channel-level noise is what detectors actually see.
    energy_base: tuple = (10.5, 12.0, 9.0, 11.2)
    cpu_base: tuple = (0.32, 0.38, 0.30, 0.35)
    duration_base: tuple = (0.21, 0.26, 0.19, 0.24)
    energy_noise: float = 0.35
    cpu_noise: float = 0.012
    duration_noise: float = 0.006
    cpu_diurnal_amp: float = 0.03
    diurnal_period_steps: int = 1440
    # Benign excursions: sustained dips in energy that are part of normal
    # behavior (load shifts), the main false-positive bait.
    benign_rate: float = 0.004
    benign_len: tuple = (30, 60)
    benign_mag_sigma: tuple = (2.0, 4.5)
    benign_ramp: int = 6  # steps to reach full excursion depth
    # Fault placement.
    fault_rate: float = 0.03
    fault_len: tuple = (10, 60)
    anomaly_window_len: tuple = (240, 400)
    mixed_classes: tuple | None = None  # None -> all classes 1..11
    signatures: FaultSignatures = field(default_factory=FaultSignatures)

    def size_for(self, regime: str) -> int:
        if regime not in REGIMES:
            raise ConfigError(f"unknown regime {regime!r}")
        if self.n_points is not None:
            return self.n_points
        table = PAPER_SIZES if self.paper_scale else DESK_SIZES
        return table[regime]

    def validate(self) -> None:
        _check(_is_int(self.seed), f"seed must be an integer, got {self.seed!r}")
        if self.n_points is not None:
            _check_ints(self, 1, "n_points")
        _check_ints(self, 1, "n_devices", "period_s", "diurnal_period_steps", "benign_ramp")
        _check_ints(self, 0, "start_timestamp")
        _check(isinstance(self.paper_scale, bool),
               f"paper_scale must be true or false, got {self.paper_scale!r}")
        # the last timestamp of the longest stream must fit the int64 column
        n = max(self.size_for(r) for r in REGIMES)
        _check(self.start_timestamp + (n - 1) * self.period_s < 2**63,
               f"start_timestamp {self.start_timestamp} + (n - 1) * period_s "
               f"{self.period_s} overflows int64 at n = {n} rows")
        for name in ("energy_base", "cpu_base", "duration_base"):
            _check_tuple(name, getattr(self, name), self.n_devices)
        _check_numbers(self, 0.0, "energy_noise", "cpu_noise", "duration_noise",
                       "cpu_diurnal_amp")
        for name in ("benign_rate", "fault_rate"):
            value = getattr(self, name)
            _check(_is_number(value) and 0.0 <= value <= 1.0,
                   f"{name} must be a number in [0, 1], got {value!r}")
        for name in ("benign_len", "fault_len", "anomaly_window_len"):
            lo_hi = getattr(self, name)
            _check_tuple(name, lo_hi, 2, of=_is_int)
            _check(1 <= lo_hi[0] <= lo_hi[1] < 2**63,
                   f"{name} must be (lo, hi) with 1 <= lo <= hi < 2**63")
        _check_tuple("benign_mag_sigma", self.benign_mag_sigma, 2)
        if self.mixed_classes is not None:
            classes = self.mixed_classes
            _check(isinstance(classes, tuple) and all(_is_int(c) and 1 <= c <= 11 for c in classes),
                   f"mixed_classes must list fault classes 1..11, got {classes!r}")
        defaults = FaultSignatures()
        for f in fields(FaultSignatures):
            value, like = getattr(self.signatures, f.name), getattr(defaults, f.name)
            if isinstance(like, tuple):
                _check_tuple(f"signatures.{f.name}", value, len(like))
            else:
                _check(_is_number(value), f"signatures.{f.name} must be a number, got {value!r}")
        sig = self.signatures
        _check_numbers(sig, 0.0, "uv_noise_gain")
        _check(max(sig.uv_floors_v) <= sig.uv_nominal_v,
               "signatures: undervoltage needs floors <= uv_nominal_v")


@dataclass
class CpdConfig:
    """Change-point detector: autoencoder sizes, training and thresholding."""

    window: int = 16
    enc_hidden: int = 16
    dec_hidden: int = 32
    lr: float = 5e-3
    max_epochs: int = 60
    patience: int = 5
    min_delta: float = 1e-5
    batch_windows: int = 256
    max_train_windows: int = 6000
    val_frac: float = 0.2
    k: float = 3.0
    min_gap: int = 2
    min_len: int = 8

    def validate(self) -> None:
        _check_ints(self, 1, "window", "enc_hidden", "dec_hidden", "max_epochs",
                    "batch_windows", "max_train_windows")
        _check_ints(self, 0, "patience", "min_gap", "min_len")
        _check_fraction("val_frac", self.val_frac)
        _check(_is_number(self.k) and self.k >= 0, f"k must be a number >= 0, got {self.k!r}")
        _check_numbers(self, 0.0, "lr", strict=True)
        _check_numbers(self, 0.0, "min_delta")


@dataclass
class SegclassConfig:
    kind: str = "random_forest"  # which classifier feeds the cascade warm start
    window: int = 16
    stride: int = 8
    dt_max_depth: int = 12
    dt_min_leaf: int = 1
    rf_trees: int = 25
    rf_feature_frac: float | None = None  # None -> sqrt(d)
    rf_bootstrap: bool = True
    nb_var_floor: float = 1e-9
    linear_lr: float = 0.05      # per-sample softmax SGD
    linear_epochs: int = 60
    linear_l2: float = 1e-4
    logreg_lr: float = 2.0       # full-batch softmax descent
    logreg_epochs: int = 1200
    svm_lambda: float = 3e-4     # Crammer-Singer Pegasos
    svm_epochs: int = 40
    # Laplace strength for the warm-start priors, as a fraction of the stream
    # length. Calibrated: more smoothing washes the vote structure out of the
    # prior, less sharpens it to the point of dominating early training.
    prior_smoothing_frac: float = 0.0407

    def validate(self) -> None:
        _check(self.kind in KINDS, f"kind must be one of {', '.join(KINDS)}, got {self.kind!r}")
        _check_ints(self, 1, "window", "stride", "rf_trees")
        _check_ints(self, 0, "dt_max_depth", "dt_min_leaf", "linear_epochs", "logreg_epochs",
                    "svm_epochs")
        frac = self.rf_feature_frac
        _check(frac is None or (_is_number(frac) and 0.0 < frac <= 1.0),
               f"rf_feature_frac must be null or a number in (0, 1], got {frac!r}")
        _check(isinstance(self.rf_bootstrap, bool),
               f"rf_bootstrap must be true or false, got {self.rf_bootstrap!r}")
        _check_numbers(self, 0.0, "nb_var_floor", "linear_lr", "logreg_lr", "svm_lambda",
                       "prior_smoothing_frac", strict=True)
        _check_numbers(self, 0.0, "linear_l2")


MAX_CHUNK_LEN = 4096  # 64 times the paper's chunk


@dataclass
class TaskNetConfig:
    """Shared shape for the Task 2 / Task 3 sequence networks.

    The epoch budget is deliberately modest: at desk scale the cascade has to
    retrain per CV fold, and the warm-start comparison is only meaningful
    before every variant has trained to saturation.
    """

    hidden: int = 32
    lr: float = 1e-3
    max_epochs: int = 5
    patience: int = 5
    min_delta: float = 1e-5
    chunk_len: int = 64
    batch_chunks: int = 16
    val_frac: float = 0.2
    rebalance_frac: float | None = 0.45  # minority-chunk share of each epoch deck

    def validate(self) -> None:
        _check_ints(self, 1, "hidden", "max_epochs", "chunk_len", "batch_chunks")
        # every chunk is run at its full length, so a series shorter than one
        # chunk still costs a whole chunk
        _check(self.chunk_len <= MAX_CHUNK_LEN,
               f"chunk_len must be <= {MAX_CHUNK_LEN}, got {self.chunk_len}")
        _check_ints(self, 0, "patience")
        _check_fraction("val_frac", self.val_frac)
        _check_numbers(self, 0.0, "lr", strict=True)
        _check_numbers(self, 0.0, "min_delta")
        if self.rebalance_frac is not None:
            _check_fraction("rebalance_frac", self.rebalance_frac)


@dataclass
class EvalPlanConfig:
    folds: int = 10
    len_frac_lo: float = 0.5
    len_frac_hi: float = 0.8
    min_valid_folds: int = 8

    def validate(self) -> None:
        _check_ints(self, 1, "folds")
        _check_ints(self, 0, "min_valid_folds")
        _check(self.min_valid_folds <= self.folds,
               f"min_valid_folds {self.min_valid_folds} > folds {self.folds}")
        lo, hi = self.len_frac_lo, self.len_frac_hi
        _check(_is_number(lo) and _is_number(hi) and 0.0 < lo <= hi <= 1.0,
               f"need 0 < len_frac_lo <= len_frac_hi <= 1, got {lo!r}, {hi!r}")


@dataclass
class RunConfig:
    """Everything one experiment run needs, JSON round-trippable."""

    seed: int = 0
    out_dir: str = "runs/default"
    sim: SimConfig = field(default_factory=SimConfig)
    cpd: CpdConfig = field(default_factory=CpdConfig)
    seg: SegclassConfig = field(default_factory=SegclassConfig)
    task2: TaskNetConfig = field(default_factory=TaskNetConfig)
    task3: TaskNetConfig = field(default_factory=TaskNetConfig)
    plan: EvalPlanConfig = field(default_factory=EvalPlanConfig)

    def stage_seed(self, stage: str) -> int:
        return derive_seed(self.seed, stage)


def _to_jsonable(obj: Any) -> Any:
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _to_jsonable(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, tuple):
        return list(obj)
    return obj


def _from_dict(cls: type, data: dict) -> Any:
    known = {f.name: f for f in fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in known:
            raise ConfigError(f"unknown config key {key!r} for {cls.__name__}")
        ftype = known[key].type
        default = known[key].default_factory() if known[key].default_factory is not dataclasses.MISSING else None  # type: ignore[misc]
        if dataclasses.is_dataclass(default):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {key!r} must hold a JSON object")
            kwargs[key] = _from_dict(type(default), value)
        elif isinstance(value, list):
            kwargs[key] = tuple(value)
        else:
            kwargs[key] = value
    return cls(**kwargs)


def save_run_config(cfg: RunConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(_to_jsonable(cfg), indent=2, sort_keys=True) + "\n")


def load_run_config(path: str | Path) -> RunConfig:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigError(f"config file is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    cfg = _from_dict(RunConfig, data)
    _check(_is_int(cfg.seed), f"seed must be an integer, got {cfg.seed!r}")
    _check(isinstance(cfg.out_dir, str), f"out_dir must be a string, got {cfg.out_dir!r}")
    for section in ("sim", "cpd", "seg", "task2", "task3", "plan"):
        try:
            getattr(cfg, section).validate()
        except ConfigError as exc:
            raise ConfigError(f"{section}: {exc}") from None
    # the manifest keeps one chunk length, and inference runs both tasks at it
    _check(cfg.task2.chunk_len == cfg.task3.chunk_len,
           f"task2: chunk_len {cfg.task2.chunk_len} differs from task3's "
           f"{cfg.task3.chunk_len}; inference runs both tasks at one chunk length")
    return cfg
