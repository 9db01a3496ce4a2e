import csv
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from faultlab.config import SimConfig
from faultlab.errors import CsvFormatError, InvariantViolation
from faultlab.simgen import (
    CSV_BLOCK_ROWS,
    CSV_HEADER,
    N_FAULT_CLASSES,
    NO_FAULT,
    FaultSpec,
    TimeSeriesDataset,
    aggregate_noise_sigma,
    generate_dataset,
    inject_fault,
    read_csv,
    simulate_normal,
    true_fault_windows,
    write_columns,
    write_csv,
)


def test_aggregate_noise_oracle():
    # sum of 4 devices scales noise by sqrt(4); averaging divides by it
    sig = aggregate_noise_sigma(SimConfig())
    assert_allclose(sig["energy"], 0.7)
    assert_allclose(sig["cpu"], 0.006)
    assert_allclose(sig["duration"], 0.003)


def test_generation_is_deterministic(small_cfg):
    a = generate_dataset("mixed", small_cfg)
    b = generate_dataset("mixed", small_cfg)
    assert a == b
    c = generate_dataset("mixed", SimConfig(seed=8, n_points=3000, fault_rate=0.08))
    assert a != c


def test_normal_only_invariants(normal_small, small_cfg):
    ds = normal_small
    assert len(ds) == small_cfg.n_points
    assert ds.regime == "normal_only"
    assert not ds.anomaly.any()
    assert (ds.fault_class == NO_FAULT).all()
    assert (np.diff(ds.timestamps) == small_cfg.period_s).all()
    assert ((ds.cpu >= 0.0) & (ds.cpu <= 1.0)).all()
    assert (ds.duration > 0).all()
    ds.validate()


def test_normal_energy_centered_on_device_sum(normal_small, small_cfg):
    base = sum(small_cfg.energy_base)
    sigma = aggregate_noise_sigma(small_cfg)["energy"]
    # benign excursions only dip below, so the median stays near base
    assert abs(np.median(normal_small.energy) - base) < sigma


def test_benign_excursions_present_and_energy_only(small_cfg):
    n = small_cfg.size_for("normal_only")
    plain = simulate_normal(small_cfg, n, np.random.default_rng(5), benign=False)
    with_exc = simulate_normal(small_cfg, n, np.random.default_rng(5), benign=True)
    assert len(plain) == len(with_exc)
    dips = plain.energy != with_exc.energy
    assert dips.any()
    assert_allclose(plain.cpu, with_exc.cpu)
    assert_allclose(plain.duration, with_exc.duration)
    # excursions dip, never spike
    assert (with_exc.energy[dips] < plain.energy[dips]).all()


def test_mixed_invariants(mixed_small):
    ds = mixed_small
    ds.validate()
    assert ds.regime == "mixed"
    assert np.array_equal(ds.anomaly, ds.fault_class <= N_FAULT_CLASSES)
    frac = ds.anomaly.mean()
    assert 0.04 <= frac <= 0.09  # target 0.08, placement can fall short a bit
    for start, end, cid in true_fault_windows(ds):
        assert 1 <= cid <= N_FAULT_CLASSES
        assert end - start >= 1


def test_mixed_windows_never_touch(mixed_small):
    wins = true_fault_windows(mixed_small)
    assert len(wins) >= 2
    for (s1, e1, _), (s2, e2, _) in zip(wins, wins[1:]):
        assert e1 < s2  # at least one normal step between faults


def test_mixed_class_pool_restriction():
    cfg = SimConfig(seed=3, n_points=2000, fault_rate=0.1, mixed_classes=(4, 9))
    ds = generate_dataset("mixed", cfg)
    present = {cid for _, _, cid in true_fault_windows(ds)}
    assert present == {4, 9}


def test_mixed_classes_stay_balanced():
    cfg = SimConfig(seed=1, n_points=30000, fault_rate=0.06)
    counts = np.zeros(N_FAULT_CLASSES + 1, dtype=int)
    for _, _, cid in true_fault_windows(generate_dataset("mixed", cfg)):
        counts[cid] += 1
    present = counts[1:]
    # permutation-queue injection keeps per-class window counts within one
    assert present.max() - present.min() <= 1
    assert present.min() >= 1


def test_anomaly_only_tiles_everything(anomaly_small):
    ds = anomaly_small
    ds.validate()
    assert ds.anomaly.all()
    assert set(np.unique(ds.fault_class)) <= set(range(1, N_FAULT_CLASSES + 1))


def test_anomaly_only_desk_size_has_all_classes():
    ds = generate_dataset("anomaly_only", SimConfig(seed=0))
    assert len(ds) == 8432
    assert set(np.unique(ds.fault_class)) == set(range(1, N_FAULT_CLASSES + 1))


def test_unknown_regime_rejected(small_cfg):
    with pytest.raises(InvariantViolation):
        generate_dataset("party", small_cfg)


# --- fault injection ----------------------------------------------------------

def _fresh(cfg, seed=11):
    return simulate_normal(cfg, cfg.size_for("normal_only"), np.random.default_rng(seed),
                           benign=False)


def test_fault_spec_range():
    with pytest.raises(InvariantViolation):
        FaultSpec(0)
    with pytest.raises(InvariantViolation):
        FaultSpec(12)
    FaultSpec(11)


def test_inject_rejects_overlap_and_bounds(small_cfg):
    ds = _fresh(small_cfg)
    rng = np.random.default_rng(0)
    inject_fault(ds, FaultSpec(1), 100, 50, rng, small_cfg.signatures)
    with pytest.raises(InvariantViolation):
        inject_fault(ds, FaultSpec(2), 120, 50, rng, small_cfg.signatures)
    with pytest.raises(InvariantViolation):
        inject_fault(ds, FaultSpec(2), len(ds) - 10, 20, rng, small_cfg.signatures)
    with pytest.raises(InvariantViolation):
        inject_fault(ds, FaultSpec(2), -1, 5, rng, small_cfg.signatures)


def test_inject_marks_labels(small_cfg):
    ds = _fresh(small_cfg)
    inject_fault(ds, FaultSpec(9), 200, 40, np.random.default_rng(0), small_cfg.signatures)
    assert ds.anomaly[200:240].all()
    assert (ds.fault_class[200:240] == 9).all()
    assert not ds.anomaly[199] and not ds.anomaly[240]


def test_undervoltage_severity_ordering(small_cfg):
    # deeper sag floors must drop aggregated energy further
    drops = []
    for cls in (1, 6):
        ds = _fresh(small_cfg)
        before = ds.energy[300:400].mean()
        inject_fault(ds, FaultSpec(cls), 300, 100, np.random.default_rng(1), small_cfg.signatures)
        drops.append(before - ds.energy[300:400].mean())
    sig = small_cfg.signatures
    assert drops[1] > drops[0] > 0
    assert_allclose(drops[0],
                    sig.uv_energy_per_volt * (sig.uv_nominal_v - sig.uv_floors_v[0]),
                    rtol=0.2)


def test_stuck_faults_freeze_their_channel(small_cfg):
    ds = _fresh(small_cfg)
    inject_fault(ds, FaultSpec(7), 500, 60, np.random.default_rng(2), small_cfg.signatures)
    assert np.ptp(ds.energy[500:560]) == 0.0  # frozen at the start value
    assert ds.duration[500:560].mean() > ds.duration[440:500].mean()

    ds = _fresh(small_cfg)
    inject_fault(ds, FaultSpec(8), 500, 60, np.random.default_rng(2), small_cfg.signatures)
    assert np.ptp(ds.duration[500:560]) == 0.0
    assert ds.cpu[500:560].mean() > ds.cpu[440:500].mean()


def test_mcu_fault_saturates_cpu(small_cfg):
    ds = _fresh(small_cfg)
    inject_fault(ds, FaultSpec(9), 600, 80, np.random.default_rng(3), small_cfg.signatures)
    tail = ds.cpu[640:680]  # past the ramp-up quarter
    assert abs(tail.mean() - small_cfg.signatures.mcu_cpu_targets[0]) < 0.02
    assert ds.duration[600:680].mean() > 1.4 * ds.duration[520:600].mean()


def test_overflow_fault_spikes_duration(small_cfg):
    ds = _fresh(small_cfg)
    before = ds.duration[700:800].mean()
    inject_fault(ds, FaultSpec(11), 700, 100, np.random.default_rng(4), small_cfg.signatures)
    after = ds.duration[700:800]
    assert after.mean() > 1.4 * before
    assert after.max() > 2.5 * before  # the spiking half


def test_zero_length_injection_is_noop(small_cfg):
    ds = _fresh(small_cfg)
    ref = _fresh(small_cfg)
    inject_fault(ds, FaultSpec(1), 100, 0, np.random.default_rng(0), small_cfg.signatures)
    assert ds == ref


# --- CSV ----------------------------------------------------------------------

def test_csv_round_trip(tmp_path, mixed_small):
    path = tmp_path / "mixed.csv"
    write_csv(mixed_small, path)
    back = read_csv(path)
    assert back == mixed_small  # repr floats survive exactly
    assert back.regime == "mixed"


def test_write_csv_in_blocks_matches_one_writerows(tmp_path):
    ds = generate_dataset("mixed", SimConfig(seed=4, n_points=2 * CSV_BLOCK_ROWS + 5,
                                             fault_rate=0.08))
    path = tmp_path / "blocks.csv"
    write_csv(ds, path)
    with open(tmp_path / "whole.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        writer.writerows(zip(ds.timestamps.tolist(), ds.energy.tolist(), ds.cpu.tolist(),
                             ds.duration.tolist(), ds.anomaly.view(np.uint8).tolist(),
                             ds.fault_class.tolist()))
    assert path.read_bytes() == (tmp_path / "whole.csv").read_bytes()


def test_write_columns_writes_ints_and_float_reprs(tmp_path):
    p = np.array([0.1, 1e-300, 1.0 - 2.0**-53, 0.0, -0.0, np.nan] * (CSV_BLOCK_ROWS // 3))
    classes = np.arange(len(p)) % 12 + 1
    path = tmp_path / "pred.csv"
    write_columns(path, ["index", "class", "p_anomaly"], [np.arange(len(p)), classes, p],
                  lineterminator="\n")
    lines = ["index,class,p_anomaly"]
    lines += [f"{i},{int(c)},{float(v)!r}" for i, (c, v) in enumerate(zip(classes, p))]
    assert path.read_text() == "\n".join(lines) + "\n"


def test_read_csv_holds_columns_not_rows(tmp_path):
    # The six parsed columns need 0.9 MiB; holding every row as a list of
    # strings before parsing takes 9.5 MiB.
    path = tmp_path / "mixed.csv"
    write_csv(generate_dataset("mixed", SimConfig(seed=3, n_points=20000)), path)
    tracemalloc.start()
    try:
        ds = read_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ds) == 20000
    assert peak < 3 * 2**20, f"read_csv peaked at {peak / 2**20:.2f} MiB"


def test_csv_header_is_stable(tmp_path, normal_small):
    path = tmp_path / "n.csv"
    write_csv(normal_small, path)
    assert path.read_text().splitlines()[0] == ",".join(CSV_HEADER)


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope,nope\n")
    with pytest.raises(CsvFormatError) as err:
        read_csv(path)
    assert err.value.line_no == 1


def test_csv_rejects_bad_row(tmp_path, normal_small):
    path = tmp_path / "bad.csv"
    lines = [",".join(CSV_HEADER), "1577836800,42.0,0.3"]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CsvFormatError) as err:
        read_csv(path)
    assert err.value.line_no == 2


def _csv_with_field(path, ds, column: int, value: str):
    """Write ds as CSV, then set one field of its third data row (line 4)."""
    write_csv(ds, path)
    lines = path.read_text().splitlines()
    parts = lines[3].split(",")
    parts[column] = value
    lines[3] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("column,value", [
    pytest.param(2, "1.5", id="cpu-1.5"),
    pytest.param(2, "-0.1", id="cpu-negative"),
    pytest.param(2, "nan", id="cpu-nan"),
    pytest.param(3, "0", id="duration-0"),
    pytest.param(4, "2", id="anomaly-2"),
    pytest.param(5, "13", id="fault_class-13"),
    pytest.param(5, "3", id="fault_class-3-with-flag-0"),
    # normal_small starts at 1577836800 with a 60 s period: line 3's timestamp
    pytest.param(0, "1577836860", id="timestamp-repeated"),
    pytest.param(0, "1" + "0" * 23, id="timestamp-beyond-int64"),
    pytest.param(5, "1" + "0" * 23, id="fault_class-beyond-int64"),
    pytest.param(4, "-1" + "0" * 23, id="anomaly-beyond-int64"),
    pytest.param(1, "1" * 200_000, id="energy-over-csv-field-limit"),
])
def test_csv_rejects_out_of_range_values(tmp_path, normal_small, column, value):
    path = _csv_with_field(tmp_path / "bad.csv", normal_small.slice(0, 5), column, value)
    with pytest.raises(CsvFormatError) as err:
        read_csv(path)
    assert err.value.line_no == 4


@pytest.mark.parametrize("column", [1, 3])  # energy, duration
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_csv_rejects_non_finite_values(tmp_path, normal_small, column, value):
    path = _csv_with_field(tmp_path / "bad.csv", normal_small.slice(0, 5), column, value)
    with pytest.raises(CsvFormatError) as err:
        read_csv(path)
    assert err.value.line_no == 4


def test_csv_rejects_bytes_that_are_not_utf8(tmp_path, normal_small):
    path = tmp_path / "bad.csv"
    write_csv(normal_small.slice(0, 5), path)
    lines = path.read_bytes().splitlines()
    lines[3] = lines[3][:4] + b"\xff" + lines[3][4:]
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(CsvFormatError) as err:
        read_csv(path)
    assert err.value.line_no == 4


def test_csv_reports_the_earliest_value_defect(tmp_path, normal_small):
    # a non-finite energy on line 3 beats an out-of-range cpu on line 4
    ds = normal_small.slice(0, 5)
    path = _csv_with_field(tmp_path / "bad.csv", ds, 2, "1.5")
    path.write_text(path.read_text().replace(f",{ds.energy.tolist()[1]!r},", ",nan,", 1))
    with pytest.raises(CsvFormatError, match="energy nan") as err:
        read_csv(path)
    assert err.value.line_no == 3


def test_csv_parse_error_beats_an_earlier_value_defect(tmp_path, normal_small):
    path = _csv_with_field(tmp_path / "bad.csv", normal_small.slice(0, 5), 2, "1.5")
    path.write_text(path.read_text() + "1577837100,42.0\n")
    with pytest.raises(CsvFormatError, match="expected 6 fields") as err:
        read_csv(path)
    assert err.value.line_no == 7


def test_csv_reports_the_earliest_unsplittable_line(tmp_path, normal_small):
    # an unparsable cpu on line 4 beats a field over the csv size limit on line 7
    path = _csv_with_field(tmp_path / "bad.csv", normal_small.slice(0, 5), 2, "x")
    path.write_text(path.read_text() + "1577837100," + "1" * 200_000 + ",0.3,0.2,0,12\n")
    with pytest.raises(CsvFormatError, match="unparsable field") as err:
        read_csv(path)
    assert err.value.line_no == 4


def test_validate_names_the_first_bad_row(normal_small):
    ds = normal_small.slice(0, 5)
    cpu = ds.cpu.copy()
    cpu[[2, 4]] = 1.5
    bad = TimeSeriesDataset(ds.timestamps, ds.energy, cpu, ds.duration, ds.anomaly,
                            ds.fault_class, ds.regime)
    assert bad.first_bad_row() == (2, "cpu 1.5 outside [0,1]")
    with pytest.raises(InvariantViolation, match=r"^row 2: cpu 1.5 outside \[0,1\]$"):
        bad.validate()
