"""Telemetry simulator and fault injection.

Four simulated devices emit per-minute energy/cpu/duration readings which are
aggregated into a single three-channel stream (energy summed, cpu and
duration averaged). Eleven fault classes in four families can be injected;
class 12 is "no fault". Channel signatures are synthetic but severity
ordered, so classes are statistically distinguishable.

Normal behavior includes occasional benign energy excursions (sustained
dips that are not faults); they exist to give detectors a realistic
false-positive temptation.
"""

from __future__ import annotations

import csv
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import REGIMES, FaultSignatures, SimConfig, derive_seed
from .errors import CsvFormatError, InvariantViolation, ShapeMismatchError

CSV_HEADER = ["timestamp", "energy", "cpu", "duration", "anomaly", "fault_class"]
NO_FAULT = 12
N_FAULT_CLASSES = 11
# TimeSeriesDataset's arrays, in CSV column order
_COLUMNS = ("timestamps", "energy", "cpu", "duration", "anomaly", "fault_class")

FAMILIES = {
    **{c: "undervoltage" for c in range(1, 7)},
    7: "sensor_stuck",
    8: "sensor_stuck",
    9: "mcu_high_temp",
    10: "mcu_high_temp",
    11: "buffer_overflow",
}


@dataclass
class FaultSpec:
    """A fault class plus its family."""

    class_id: int

    def __post_init__(self):
        if self.class_id not in FAMILIES:
            raise InvariantViolation(f"fault class {self.class_id} outside 1..11")

    @property
    def family(self) -> str:
        return FAMILIES[self.class_id]


class TimeSeriesDataset:
    """Columnar telemetry (one array per CSV column) plus the regime tag."""

    def __init__(self, timestamps, energy, cpu, duration, anomaly, fault_class, regime):
        self.timestamps = np.asarray(timestamps, dtype=np.int64)
        self.energy = np.asarray(energy, dtype=float)
        self.cpu = np.asarray(cpu, dtype=float)
        self.duration = np.asarray(duration, dtype=float)
        self.anomaly = np.asarray(anomaly, dtype=bool)
        self.fault_class = np.asarray(fault_class, dtype=np.int64)
        if regime not in REGIMES:
            raise InvariantViolation(f"unknown regime {regime!r}")
        self.regime = regime
        n = len(self.timestamps)
        for name in _COLUMNS[1:]:
            if len(getattr(self, name)) != n:
                raise ShapeMismatchError(f"column {name} length != {n}")

    def __len__(self) -> int:
        return len(self.timestamps)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TimeSeriesDataset):
            return NotImplemented
        return self.regime == other.regime and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in _COLUMNS)

    def features(self) -> np.ndarray:
        """The (T, 3) feature matrix X: energy, cpu, duration."""
        return np.column_stack([self.energy, self.cpu, self.duration])

    def slice(self, start: int, end: int) -> "TimeSeriesDataset":
        return TimeSeriesDataset(*(getattr(self, name)[start:end] for name in _COLUMNS),
                                 self.regime)

    def first_bad_row(self) -> tuple[int, str] | None:
        """The earliest row that breaks a row invariant, and why; None if every row holds.

        The invariants: energy finite, cpu in [0, 1], duration finite and
        > 0, fault_class in 1..12, anomaly == (fault_class <= 11), and
        timestamps strictly increasing. Within one row they are tested in
        that order.
        """
        e, c, d, k, ts = self.energy, self.cpu, self.duration, self.fault_class, self.timestamps
        bad = np.empty((6, len(self)), dtype=bool)
        bad[0] = ~np.isfinite(e)
        bad[1] = ~((c >= 0.0) & (c <= 1.0))
        bad[2] = ~(np.isfinite(d) & (d > 0.0))
        bad[3] = (k < 1) | (k > NO_FAULT)
        bad[4] = self.anomaly != (k <= N_FAULT_CLASSES)
        bad[5, :1] = False
        bad[5, 1:] = ts[1:] <= ts[:-1]
        rows = bad.any(axis=0)
        if not rows.any():
            return None
        i = int(rows.argmax())
        check = int(bad[:, i].argmax())
        reason = (f"energy {e[i]} not finite", f"cpu {c[i]} outside [0,1]",
                  f"duration {d[i]} not finite and positive",
                  f"fault_class {k[i]} outside 1..12",
                  "anomaly flag inconsistent with fault_class",
                  "timestamps not strictly increasing")[check]
        return i, reason

    def validate(self) -> None:
        bad = self.first_bad_row()
        if bad is not None:
            raise InvariantViolation(f"row {bad[0]}: {bad[1]}")
        if self.regime == "normal_only" and np.any(self.anomaly):
            raise InvariantViolation("normal_only dataset contains anomalies")
        if self.regime == "anomaly_only" and not np.all(self.anomaly):
            raise InvariantViolation("anomaly_only dataset contains normal records")


def aggregate_noise_sigma(cfg: SimConfig) -> dict:
    """Baseline noise std of each aggregated channel."""
    nd = cfg.n_devices
    return {
        "energy": cfg.energy_noise * np.sqrt(nd),
        "cpu": cfg.cpu_noise / np.sqrt(nd),
        "duration": cfg.duration_noise / np.sqrt(nd),
    }


def simulate_normal(cfg: SimConfig, n: int, rng: np.random.Generator,
                    benign: bool = True) -> TimeSeriesDataset:
    """Baseline stream with seeded noise, diurnal cpu cycle, benign dips."""
    cfg.validate()
    if n < 1:
        raise InvariantViolation("series length must be >= 1")

    nd = cfg.n_devices
    t = np.arange(n)
    energy = np.zeros(n)
    cpu = np.zeros(n)
    duration = np.zeros(n)
    for d in range(nd):
        energy += cfg.energy_base[d] + rng.normal(0.0, cfg.energy_noise, n)
        phase = d * cfg.diurnal_period_steps / (2 * nd)
        cpu += (
            cfg.cpu_base[d]
            + cfg.cpu_diurnal_amp * np.sin(2 * np.pi * (t + phase) / cfg.diurnal_period_steps)
            + rng.normal(0.0, cfg.cpu_noise, n)
        )
        duration += cfg.duration_base[d] + rng.normal(0.0, cfg.duration_noise, n)
    cpu /= nd
    duration /= nd

    if benign and cfg.benign_rate > 0:
        sigma = aggregate_noise_sigma(cfg)["energy"]
        lo, hi = cfg.benign_len
        starts = rng.random(n)
        pos = 0
        while pos < n:
            if starts[pos] < cfg.benign_rate:
                length = int(rng.integers(lo, hi, endpoint=True))
                mag = rng.uniform(*cfg.benign_mag_sigma) * sigma
                # load shifts ramp in and out rather than stepping; the part
                # past the end of the series is never built
                span = np.arange(min(length, n - pos), dtype=float)
                ramp = np.minimum(1.0, np.minimum(span + 1.0, length - span) / cfg.benign_ramp)
                energy[pos:pos + length] -= mag * ramp
                pos += length
            else:
                pos += 1

    cpu = np.clip(cpu, 0.0, 1.0)
    duration = np.maximum(duration, 1e-3)
    timestamps = cfg.start_timestamp + t * cfg.period_s
    return TimeSeriesDataset(timestamps, energy, cpu, duration,
                             np.zeros(n, dtype=bool), np.full(n, NO_FAULT), "normal_only")


def inject_fault(ds: TimeSeriesDataset, spec: FaultSpec, start: int, length: int,
                 rng: np.random.Generator, sig: FaultSignatures) -> TimeSeriesDataset:
    """Apply one fault window in place, shaped by `sig`; returns the same dataset.

    Rejects windows that fall outside the series or touch a previously
    injected fault.
    """
    if length == 0:
        return ds
    if length < 0 or start < 0 or start + length > len(ds):
        raise InvariantViolation(
            f"fault window [{start}, {start + length}) outside series of length {len(ds)}"
        )
    if np.any(ds.anomaly[start:start + length]):
        raise InvariantViolation(
            f"fault window [{start}, {start + length}) overlaps an existing fault"
        )
    end = start + length
    w = slice(start, end)
    cid = spec.class_id

    if spec.family == "undervoltage":
        floor = sig.uv_floors_v[cid - 1]
        sag = sig.uv_nominal_v - floor
        drop = sig.uv_energy_per_volt * sag
        extra_sd = sig.uv_noise_gain * sag
        ds.energy[w] = ds.energy[w] - drop + rng.normal(0.0, extra_sd, length)
    elif spec.family == "sensor_stuck":
        if cid == 7:
            ds.energy[w] = ds.energy[start]
            ds.duration[w] = ds.duration[w] + sig.stuck7_duration_shift
        else:
            ds.duration[w] = ds.duration[start]
            ds.cpu[w] = ds.cpu[w] + sig.stuck8_cpu_shift
    elif spec.family == "mcu_high_temp":
        idx = cid - 9
        target = sig.mcu_cpu_targets[idx]
        gain = sig.mcu_duration_gains[idx]
        ramp_len = max(1, int(np.ceil(sig.mcu_ramp_frac * length)))
        ramp = np.minimum(1.0, np.arange(1, length + 1) / ramp_len)
        ds.cpu[w] = ds.cpu[w] * (1.0 - ramp) + target * ramp
        ds.duration[w] = ds.duration[w] * gain
    else:  # buffer_overflow
        spikes = rng.random(length) < sig.overflow_spike_prob
        factors = np.where(spikes, sig.overflow_duration_gain, sig.overflow_duration_base_gain)
        ds.duration[w] = ds.duration[w] * factors
        cpu_win = ds.cpu[w].copy()
        cpu_win[spikes] = sig.overflow_cpu_burst
        ds.cpu[w] = cpu_win

    ds.cpu[w] = np.clip(ds.cpu[w], 0.0, 1.0)
    ds.duration[w] = np.maximum(ds.duration[w], 1e-3)
    ds.anomaly[w] = True
    ds.fault_class[w] = cid
    return ds


def true_fault_windows(ds: TimeSeriesDataset) -> list[tuple[int, int, int]]:
    """Ground-truth fault extents as (start, end, class_id) half-open triples."""
    out = []
    t = 0
    n = len(ds)
    while t < n:
        if ds.anomaly[t]:
            s = t
            cid = int(ds.fault_class[t])
            while t < n and ds.anomaly[t] and ds.fault_class[t] == cid:
                t += 1
            out.append((s, t, cid))
        else:
            t += 1
    return out


def generate_dataset(regime: str, cfg: SimConfig) -> TimeSeriesDataset:
    """Produce one of the three dataset regimes, deterministically per seed."""
    if regime not in REGIMES:
        raise InvariantViolation(f"unknown regime {regime!r}")
    cfg.validate()
    n = cfg.size_for(regime)
    rng = np.random.default_rng(derive_seed(cfg.seed, f"simgen:{regime}"))

    if regime == "normal_only":
        return simulate_normal(cfg, n=n, rng=rng)

    if regime == "anomaly_only":
        # Back-to-back fault windows tiling the whole series; classes cycle
        # through shuffled permutations so every class appears.
        ds = simulate_normal(cfg, n=n, rng=rng, benign=False)
        lo, hi = cfg.anomaly_window_len
        pos = 0
        class_queue: list[int] = []
        while pos < n:
            if not class_queue:
                class_queue = list(rng.permutation(np.arange(1, N_FAULT_CLASSES + 1)))
            length = int(rng.integers(lo, hi, endpoint=True))
            if n - pos - length < lo:
                length = n - pos
            inject_fault(ds, FaultSpec(int(class_queue.pop())), pos, length, rng,
                         cfg.signatures)
            pos += length
        ds.regime = "anomaly_only"
        ds.validate()
        return ds

    # mixed
    ds = simulate_normal(cfg, n=n, rng=rng)
    pool = tuple(cfg.mixed_classes) if cfg.mixed_classes else tuple(range(1, N_FAULT_CLASSES + 1))
    target = int(round(cfg.fault_rate * n))
    lo, hi = cfg.fault_len
    total = 0
    attempts = 0
    class_queue: list[int] = []
    while total < target and attempts < 50 * max(1, target):
        attempts += 1
        length = int(rng.integers(lo, hi, endpoint=True))
        start = int(rng.integers(0, max(1, n - length)))
        if start + length > n:  # a fault longer than the series
            continue
        # Keep one normal step of clearance so adjacent faults never merge.
        guard_lo = max(0, start - 1)
        guard_hi = min(n, start + length + 1)
        if np.any(ds.anomaly[guard_lo:guard_hi]):
            continue
        # Classes cycle through shuffled permutations of the pool so counts
        # stay near-balanced even with few windows.
        if not class_queue:
            class_queue = list(rng.permutation(np.asarray(pool)))
        inject_fault(ds, FaultSpec(int(class_queue.pop())), start, length, rng,
                     cfg.signatures)
        total += length
    ds.regime = "mixed"
    ds.validate()
    return ds


# Rows a CSV writer converts to Python objects at a time, so that writing
# holds one block of rows besides the columns, whatever the file's length.
CSV_BLOCK_ROWS = 8192


def write_columns(path: str | Path, header: list[str], columns: list[np.ndarray],
                  lineterminator: str = "\r\n") -> None:
    """Write equal-length 1-D arrays as the columns of a CSV file.

    csv writes an int as str and a float as its repr, which round-trips
    float64. Rows go out CSV_BLOCK_ROWS at a time; the bytes are those of
    one `writerows` over the whole file.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator=lineterminator)
        writer.writerow(header)
        for i in range(0, len(columns[0]), CSV_BLOCK_ROWS):
            writer.writerows(zip(*(col[i:i + CSV_BLOCK_ROWS].tolist() for col in columns)))


def write_csv(ds: TimeSeriesDataset, path: str | Path) -> None:
    """Serialize with full float precision."""
    write_columns(path, CSV_HEADER, [ds.timestamps, ds.energy, ds.cpu, ds.duration,
                                     ds.anomaly.view(np.uint8), ds.fault_class])


def read_csv(path: str | Path) -> TimeSeriesDataset:
    """Parse and validate; regime inferred from the label columns.

    Line 1 must be the header. After it, the earliest row that does not
    split into six parsable fields is reported; failing that, the earliest
    row with an anomaly flag other than 0/1 or a broken row invariant (see
    `TimeSeriesDataset.first_bad_row`). Bytes that are not UTF-8 decode to
    lone surrogates, which no field parses, so they fail at their own line.
    Each row is parsed as the reader yields it, into typed columns that
    grow, so no row outlives its own parse.
    """
    # int64 (q) and float64 (d) columns in CSV order; the flag is an int
    # until it is checked to be 0/1.
    columns = tuple(array(code) for code in "qdddqq")
    add_ts, add_e, add_c, add_d, add_flag, add_k = (col.append for col in columns)
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise CsvFormatError(1, "empty file, expected header")
            if header != CSV_HEADER:
                raise CsvFormatError(1, f"bad header {header!r}")
            for line, row in enumerate(reader, start=2):
                if len(row) != 6:
                    raise CsvFormatError(line, f"expected 6 fields, got {len(row)}")
                try:
                    add_ts(int(row[0]))
                    add_e(float(row[1]))
                    add_c(float(row[2]))
                    add_d(float(row[3]))
                    add_flag(int(row[4]))
                    add_k(int(row[5]))
                except ValueError as exc:
                    raise CsvFormatError(line, f"unparsable field: {exc}") from None
                except OverflowError:
                    raise CsvFormatError(line, "unparsable field: integer outside int64") from None
        except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
            raise CsvFormatError(reader.line_num, str(exc)) from None

    timestamps, energy, cpu, duration, flag, fault_class = (
        np.frombuffer(col, dtype=np.int64 if col.typecode == "q" else float) for col in columns)
    n = len(timestamps)
    anomaly = flag == 1
    regime = "anomaly_only" if n and anomaly.all() else "mixed" if anomaly.any() else "normal_only"
    ds = TimeSeriesDataset(timestamps, energy, cpu, duration, anomaly, fault_class, regime)
    bad = ds.first_bad_row()
    flag_rows = np.flatnonzero((flag != 0) & (flag != 1))
    if len(flag_rows) and (bad is None or flag_rows[0] <= bad[0]):
        bad = int(flag_rows[0]), f"anomaly flag must be 0/1, got {flag[flag_rows[0]]}"
    if bad is not None:
        raise CsvFormatError(bad[0] + 2, bad[1])
    return ds
