"""CLI behavior through in-process main(): exit codes, seeds, artifacts."""

import contextlib
import dataclasses
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_acceptance import _file_bytes, _tiny_run_config
from test_cascade import tiny_models
from test_segclass import make_blobs

from faultlab.cascade import save_models
from faultlab.cli import main
from faultlab.config import RunConfig, SegclassConfig, load_run_config, save_run_config
from faultlab.segclass import train_classifier
from faultlab.simgen import read_csv


def run(*argv) -> int:
    return main(list(argv))


@pytest.fixture(autouse=True)
def clean_seed_env(monkeypatch):
    monkeypatch.delenv("FAULTLAB_SEED", raising=False)


def tiny_config(tmp_path, **cpd_overrides):
    """A config small enough for CLI train commands to finish in seconds."""
    cfg = RunConfig()
    cfg.sim = dataclasses.replace(cfg.sim, n_points=600)
    cfg.cpd = dataclasses.replace(
        cfg.cpd, window=8, enc_hidden=4, dec_hidden=8, max_epochs=2,
        max_train_windows=200, batch_windows=64, **cpd_overrides)
    path = tmp_path / "cfg.json"
    save_run_config(cfg, path)
    return path


# --- gen ----------------------------------------------------------------------


def test_gen_normal(tmp_path, capsys):
    out = tmp_path / "normal.csv"
    assert run("gen", "--regime", "normal", "--out", str(out),
               "--len", "400", "--seed", "3") == 0
    ds = read_csv(out)
    assert len(ds.energy) == 400
    assert not ds.anomaly.any()
    assert "rows=400" in capsys.readouterr().out


def test_gen_deterministic_bytes(tmp_path):
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    run("gen", "--regime", "mixed", "--out", str(a), "--len", "400", "--seed", "5")
    run("gen", "--regime", "mixed", "--out", str(b), "--len", "400", "--seed", "5")
    run("gen", "--regime", "mixed", "--out", str(c), "--len", "400", "--seed", "6")
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_gen_rate_flag(tmp_path):
    out = tmp_path / "mixed.csv"
    assert run("gen", "--regime", "mixed", "--out", str(out),
               "--len", "4000", "--rate", "0.05", "--seed", "1") == 0
    ds = read_csv(out)
    assert 0.01 < ds.anomaly.mean() < 0.10


def test_gen_short_mixed_streams(tmp_path, capsys):
    # a fault window drawn longer than the series is redrawn, not injected
    out = tmp_path / "mixed.csv"
    for n in range(17, 61):
        for seed in range(4):
            assert run("gen", "--regime", "mixed", "--out", str(out), "--len", str(n),
                       "--seed", str(seed)) == 0, (n, seed)
            ds = read_csv(out)  # read_csv checks every row invariant
            assert len(ds) == n
    capsys.readouterr()


# --- seed resolution --------------------------------------------------------------


def test_env_seed_fallback(tmp_path, monkeypatch):
    explicit = tmp_path / "explicit.csv"
    via_env = tmp_path / "env.csv"
    run("gen", "--regime", "normal", "--out", str(explicit), "--len", "300",
        "--seed", "17")
    monkeypatch.setenv("FAULTLAB_SEED", "17")
    run("gen", "--regime", "normal", "--out", str(via_env), "--len", "300")
    assert explicit.read_bytes() == via_env.read_bytes()


def test_arg_seed_beats_env(tmp_path, monkeypatch):
    monkeypatch.setenv("FAULTLAB_SEED", "99")
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run("gen", "--regime", "normal", "--out", str(a), "--len", "300", "--seed", "17")
    monkeypatch.delenv("FAULTLAB_SEED")
    run("gen", "--regime", "normal", "--out", str(b), "--len", "300", "--seed", "17")
    assert a.read_bytes() == b.read_bytes()


def test_env_seed_must_be_integer(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FAULTLAB_SEED", "banana")
    code = run("gen", "--regime", "normal", "--out", str(tmp_path / "x.csv"),
               "--len", "100")
    assert code == 2
    assert "FAULTLAB_SEED" in capsys.readouterr().err


# --- exit codes -------------------------------------------------------------------


def test_usage_errors_exit_2(capsys):
    assert run("gen") == 2                      # missing required flags
    assert run("no-such-command") == 2
    assert run() == 2
    capsys.readouterr()
    for gone in ("train-cpd", "train-seg"):     # train-smtcnn trains every stage
        assert run(gone) == 2
        assert f"invalid choice: '{gone}'" in capsys.readouterr().err


def test_out_of_memory_exits_1(tmp_path, capsys):
    # 800 PB of timestamps: more than any address space holds, while the last
    # timestamp still fits int64 (10**18 rows would fail the config check)
    assert run("gen", "--regime", "normal", "--len", str(10**17),
               "--out", str(tmp_path / "x.csv")) == 1
    assert "error: out of memory" in capsys.readouterr().err


@pytest.mark.parametrize("section,key,value", [
    (None, None, None),
    ("task2", "rebalance_frac", 1.0),   # would divide by zero in training
    ("task3", "chunk_len", 0),
    ("cpd", "window", 0),
    ("cpd", "val_frac", 1.0),
    ("task3", "val_frac", 1.5),
    ("cpd", "k", -1.0),
    ("plan", "min_valid_folds", 11),    # more than the 10 folds
    ("cpd", "window", "16"),
    ("sim", "fault_rate", "x"),
    ("sim", "energy_base", [10.0, 12.0]),   # four devices
    ("sim", "fault_len", [0, 60]),
    ("sim", "seed", "x"),                   # the root seed replaces it only after loading
    ("sim", "seed", True),
    ("seg", "window", 0),
    ("seg", "rf_trees", 2.5),
    ("seg", "rf_feature_frac", 0.0),
    ("seg", "svm_lambda", 0.0),
    ("seg", "kind", "xgboost"),
    ("cpd", "lr", 0),                       # would train a no-op autoencoder
    ("cpd", "min_delta", "x"),
    ("task2", "lr", "x"),
    ("task3", "min_delta", None),
    ("task3", "min_delta", -1e-5),
    ("sim", "energy_noise", math.inf),      # once blamed on the generated rows
    ("sim", "energy_base", [10.5, 12.0, 9.0, math.nan]),
    ("task2", "chunk_len", 32),             # task 3 and the manifest keep 64
    ("", "seed", "x"),                      # "" is the config root
    ("", "seed", 1.5),
    ("", "seed", True),
    ("", "out_dir", 5),
    ("", "UTF-8", b'{"seed": 0, "out_dir": "runs/\xff"}'),  # bytes: the whole file
])
def test_bad_config_values_exit_2(tmp_path, capsys, section, key, value):
    path = tmp_path / "cfg.json"
    save_run_config(RunConfig(), path)
    if isinstance(value, bytes):
        path.write_bytes(value)
    elif section is not None:
        data = json.loads(path.read_text())
        (data[section] if section else data)[key] = value
        path.write_text(json.dumps(data))
    code = run("gen", "--regime", "normal", "--len", "50", "--config", str(path),
               "--out", str(tmp_path / "n.csv"))
    err = capsys.readouterr().err
    if section is None:
        assert code == 0
    else:
        assert code == 2
        assert "config error" in err and (f"{section}: {key}" if section else key) in err


def test_missing_model_dir_exits_2(tmp_path, capsys):
    series = tmp_path / "s.csv"
    run("gen", "--regime", "normal", "--out", str(series), "--len", "100", "--seed", "0")
    code = run("infer", "--models", str(tmp_path / "missing"),
               "--in", str(series), "--out", str(tmp_path / "pred.csv"))
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("file,section,key", [
    (None, None, None),
    ("manifest", "meta", "variant"),
    ("manifest", "meta", "chunk_len"),
    ("manifest", "arrays", "std_mu"),
    ("manifest", "arrays", "std_sd"),
    ("cpd", "meta", "threshold"),
    ("cpd", "meta", "min_gap"),
    ("cpd", "meta", "min_len"),
])
def test_infer_model_dir_missing_key_exits_2(tmp_path, capsys, file, section, key):
    series = tmp_path / "s.csv"
    run("gen", "--regime", "mixed", "--out", str(series), "--len", "200", "--seed", "0")
    models = tmp_path / "models"
    save_models(tiny_models("full"), models)
    if file is not None:
        path = models / f"{file}.json"
        doc = json.loads(path.read_text())
        del doc[section][key]
        path.write_text(json.dumps(doc))
    code = run("infer", "--models", str(models), "--in", str(series),
               "--out", str(tmp_path / "pred.csv"))
    err = capsys.readouterr().err
    if file is None:
        assert code == 0
    else:
        assert code == 2
        assert "config error" in err and repr(key) in err


@pytest.mark.parametrize("file,keys,value", [
    ("manifest", ("meta", "chunk_len"), "x"),
    ("manifest", ("meta", "variant"), "b9_mystery"),
    ("manifest", ("meta", "variant"), ["full"]),
    ("cpd", ("meta", "threshold", "mu"), "x"),
    ("task2", ("arrays", "l1_wh"), {"dtype": "f8", "shape": [2, 2], "data": [0.0] * 4}),
    ("task2", ("arrays", "l1_wh"), {"dtype": "f8", "shape": [4], "data": [0.0] * 4}),
    ("task3", ("arrays", "head_w"), {"dtype": "f8", "shape": [2, 2], "data": [0.0] * 4}),
    ("cpd", ("arrays", "dec_wh"), {"dtype": "f8", "shape": [2, 2], "data": [0.0] * 4}),
    ("manifest", ("arrays", "std_mu"), {"dtype": "f8", "shape": [2], "data": [0.0] * 2}),
    ("cpd", ("arrays", "sd"), {"dtype": "f8", "shape": [3], "data": [1.0, 0.0, 1.0]}),
], ids=["chunk_len-str", "variant-unknown", "variant-list", "threshold_mu-str", "l1_wh-2x2",
        "l1_wh-1d", "head_w-2x2", "dec_wh-2x2", "std_mu-shape", "cpd_sd-zero"])
def test_infer_model_dir_bad_value_exits_2(tmp_path, capsys, file, keys, value):
    series = tmp_path / "s.csv"
    run("gen", "--regime", "mixed", "--out", str(series), "--len", "200", "--seed", "0")
    models = tmp_path / "models"
    save_models(tiny_models("full"), models)
    path = models / f"{file}.json"
    doc = json.loads(path.read_text())
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    path.write_text(json.dumps(doc))
    code = run("infer", "--models", str(models), "--in", str(series),
               "--out", str(tmp_path / "pred.csv"))
    err = capsys.readouterr().err
    assert code == 2
    assert "config error" in err and f"{file}.json" in err


def _drop_seg_fields(models: Path) -> None:
    doc = json.loads((models / "manifest.json").read_text())
    del doc["meta"]["seg_window"], doc["meta"]["seg_stride"]
    (models / "manifest.json").write_text(json.dumps(doc))


@pytest.mark.parametrize("damage", [
    lambda m: (m / "segclass.json").unlink(),
    lambda m: (m / "segclass.json").write_bytes(b"\xff{ not json"),
    _drop_seg_fields,
], ids=["segclass-deleted", "segclass-junk", "manifest-without-seg-fields"])
@pytest.mark.parametrize("variant", ["full", "b2_no_cpd"])
def test_infer_ignores_the_segment_classifier_record(tmp_path, capsys, variant, damage):
    """segclass.json and the manifest's seg_window/seg_stride only record the
    warm start's inputs: infer reads neither, whatever they hold."""
    series = tmp_path / "s.csv"
    run("gen", "--regime", "mixed", "--out", str(series), "--len", "200", "--seed", "0")
    preds = []
    for name in ("intact", "damaged"):
        models = tmp_path / name
        save_models(tiny_models(variant, with_seg=True), models)
        if name == "damaged":
            damage(models)
        pred = tmp_path / f"{name}.csv"
        assert run("infer", "--models", str(models), "--in", str(series),
                   "--out", str(pred)) == 0
        preds.append(pred.read_bytes())
    assert preds[0] == preds[1]
    capsys.readouterr()


@pytest.mark.parametrize("find,replace", [
    (b"1577836920,", b"100000000000000000000000,"),   # line 4's timestamp beyond int64
    (b"1577836920,", b"15778\xff36920,"),              # a byte that is not UTF-8
], ids=["int64-overflow", "not-utf8"])
def test_infer_bad_csv_exits_1(tmp_path, capsys, find, replace):
    series = tmp_path / "s.csv"
    run("gen", "--regime", "mixed", "--out", str(series), "--len", "200", "--seed", "0")
    series.write_bytes(series.read_bytes().replace(find, replace, 1))
    save_models(tiny_models("full"), tmp_path / "m")
    code = run("infer", "--models", str(tmp_path / "m"), "--in", str(series),
               "--out", str(tmp_path / "pred.csv"))
    assert code == 1
    assert "error: line 4: unparsable field" in capsys.readouterr().err


def test_infer_rejects_seed_and_config(tmp_path, capsys):
    series = tmp_path / "s.csv"
    run("gen", "--regime", "mixed", "--out", str(series), "--len", "200", "--seed", "0")
    save_models(tiny_models("full"), tmp_path / "m")
    common = ("--models", str(tmp_path / "m"), "--in", str(series),
              "--out", str(tmp_path / "pred.csv"))
    assert run("infer", *common) == 0
    assert run("infer", "--seed", "1", *common) == 2
    assert run("infer", "--config", str(tiny_config(tmp_path)), *common) == 2
    capsys.readouterr()


def test_train_cpd_on_wrong_regime_exits_1(tmp_path, capsys):
    mixed = tmp_path / "mixed.csv"
    run("gen", "--regime", "mixed", "--out", str(mixed), "--len", "400", "--seed", "0")
    code = run("train-smtcnn", "--mixed", str(mixed), "--normal", str(mixed),
               "--anomaly", str(mixed), "--out", str(tmp_path / "m"),
               "--config", str(tiny_config(tmp_path)))
    assert code == 1
    assert "error: expected a normal_only dataset, got mixed" in capsys.readouterr().err


def test_unreadable_input_exits_1_or_2(tmp_path):
    absent = str(tmp_path / "absent.csv")
    code = run("train-smtcnn", "--mixed", absent, "--normal", absent, "--anomaly", absent,
               "--out", str(tmp_path / "m"))
    assert code in (1, 2)


# --- training round trip ------------------------------------------------------------


def test_infer_writes_parseable_csv(tmp_path, capsys):
    cfg_path = tiny_config(tmp_path)
    paths = {}
    for regime, n in (("normal", 600), ("anomaly", 2000), ("mixed", 800)):
        paths[regime] = tmp_path / f"{regime}.csv"
        run("gen", "--regime", regime, "--out", str(paths[regime]),
            "--len", str(n), "--seed", "4", "--config", str(cfg_path))

    models = tmp_path / "cascade"
    assert run("train-smtcnn", "--mixed", str(paths["mixed"]),
               "--normal", str(paths["normal"]), "--anomaly", str(paths["anomaly"]),
               "--out", str(models), "--config", str(cfg_path), "--seed", "4") == 0

    pred = tmp_path / "pred.csv"
    assert run("infer", "--models", str(models), "--in", str(paths["mixed"]),
               "--out", str(pred)) == 0
    capsys.readouterr()

    lines = pred.read_text().splitlines()
    assert lines[0] == "index,class,p_anomaly"
    assert len(lines) == 801
    for i, line in enumerate(lines[1:]):
        idx, cls, p = line.split(",")
        assert int(idx) == i
        assert 1 <= int(cls) <= 12
        assert 0.0 <= float(p) <= 1.0  # plain floats, not numpy reprs


def _train_smtcnn_args(tmp_path, cfg_path) -> list[str]:
    """Generate the three regime CSVs; returns train-smtcnn's input flags."""
    args = ["--config", str(cfg_path)]
    for regime in ("normal", "anomaly", "mixed"):
        csv = tmp_path / f"{regime}.csv"
        assert run("gen", "--regime", regime, "--out", str(csv),
                   "--config", str(cfg_path)) == 0
        args += [f"--{regime}", str(csv)]
    return args


def test_train_smtcnn_matches_pipeline_models(tmp_path, capsys):
    """train-smtcnn and pipeline train through the same code."""
    cfg_path = _tiny_run_config(tmp_path)
    assert run("pipeline", "--config", str(cfg_path), "--out", str(tmp_path / "run")) == 0
    inputs = _train_smtcnn_args(tmp_path, cfg_path)
    for ablation, variant in ((None, "full"), ("b2", "b2_no_cpd"), ("b3", "b3_no_segclass")):
        out = tmp_path / "smtcnn" / variant
        extra = ("--ablation", ablation) if ablation else ()
        assert run("train-smtcnn", *inputs, "--out", str(out), *extra) == 0
        assert _file_bytes(out) == _file_bytes(tmp_path / "run" / "models" / variant)
    capsys.readouterr()


def test_eval_rejects_a_negative_plan_seed_before_training(tmp_path, capsys, monkeypatch):
    import faultlab.experiment as experiment

    def refuse(*args, **kwargs):
        raise AssertionError("assets built for an unusable plan seed")

    monkeypatch.setattr(experiment, "build_assets", refuse)
    assert run("eval", "--plan-seed", "-1", "--out", str(tmp_path / "r.md")) == 2
    assert "--plan-seed must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("ablation", [None, "b3"])
def test_pipeline_names_the_variant_whose_training_failed(tmp_path, capsys, ablation):
    # no window clears a threshold of mu + 1e9 sigma, so task 2 of the CPD
    # variants has no proposed segment to train on
    cfg = load_run_config(_tiny_run_config(tmp_path))
    cfg.cpd.k = 1e9
    save_run_config(cfg, tmp_path / "k.json")
    extra = ("--ablation", ablation) if ablation else ()
    out = tmp_path / "run"
    assert run("pipeline", "--config", str(tmp_path / "k.json"), "--out", str(out), *extra) == 1
    variant = "b3_no_segclass" if ablation else "full"
    assert capsys.readouterr().err == (f"faultlab: error: stage 'train:{variant}': "
                                       "no proposed segments; cannot train task 2\n")
    assert not (out / "models").exists()


@pytest.mark.parametrize("ablation,unused", [("b2", "train_autoencoder"),
                                             ("b3", "train_classifier")])
def test_train_smtcnn_builds_only_used_stages(tmp_path, capsys, monkeypatch, ablation, unused):
    import faultlab.experiment as experiment

    def refuse(*args, **kwargs):
        raise AssertionError(f"{unused} ran for --ablation {ablation}")

    inputs = _train_smtcnn_args(tmp_path, _tiny_run_config(tmp_path))
    monkeypatch.setattr(experiment, unused, refuse)
    assert run("train-smtcnn", *inputs, "--out", str(tmp_path / "m"), "--ablation", ablation) == 0
    capsys.readouterr()


# --- fuzz ---------------------------------------------------------------------------

MODEL_FILES = ("manifest", "cpd", "task2", "task3", "segclass")
JSON_SCALARS = (st.sampled_from([0, -1, 2**31, 2**63, -0.0, 0.5, math.inf, math.nan, "x", None])
                | st.booleans() | st.integers(-2**70, 2**70) | st.floats() | st.text(max_size=6))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=8)
ARRAY_SPECS = st.fixed_dictionaries({
    "dtype": st.sampled_from(["f8", "i8", "c16"]),
    "shape": st.lists(st.integers(-1, 20), max_size=3),
    "data": st.lists(st.floats() | st.integers(-2**63, 2**63), max_size=24),
})
CSV_FIELDS = (st.sampled_from([b"", b"nan", b"-inf", b"1e400", b"9" * 400, b"0x1f", b"1_0",
                               b"\xff\xfe", b'"', b"1,2", b"\x00"])
              | st.binary(max_size=6))
JSON_PATHS = st.lists(st.integers(0, 40), max_size=5).map(tuple)
ARG_FLAGS = ("--len", "--rate", "--plan-seed")
ARG_TEXT = (st.sampled_from(["0", "-1", "x", "", "1.5", "nan", "-inf", "1e400", "0x10",
                             str(2**63), str(2**64), str(-2**63 - 1), str(2**63 - 1)])
            | st.integers(-2**70, 2**70).map(str) | st.floats().map(repr) | st.text(max_size=6))


def _generates_many_rows(flag: str, text: str) -> bool:
    """A --len the generator would really run with, above 1000 rows. Lengths
    from 2**57 up fail the config check first (their timestamps pass int64)."""
    try:
        n = int(text)
    except ValueError:
        return False
    return flag == "--len" and 1000 < n < 2**57

# (target, operation, where, value): `target` is "csv", "config" or a model
# file; `where` is a (line, field) pair, a cut offset, a row count or a JSON
# path whose int steps pick among a dict's sorted keys or a list's items; "raw"
# replaces the whole file with `value`.
MUTATIONS = st.one_of(
    st.tuples(st.just("csv"), st.just("set"),
              st.tuples(st.integers(0, 400), st.integers(0, 6)), CSV_FIELDS),
    st.tuples(st.sampled_from(["csv", "config", *MODEL_FILES]), st.just("cut"),
              st.integers(0, 2**16), st.none()),
    st.tuples(st.sampled_from(["csv", "config", *MODEL_FILES]), st.just("raw"), st.none(),
              st.binary(max_size=64)),
    st.tuples(st.just("csv"), st.just("rows"), st.integers(0, 70), st.none()),
    st.tuples(st.just("config"), st.just("set"), JSON_PATHS, JSON_VALUES),
    st.tuples(st.just("config"), st.just("drop"), JSON_PATHS, st.none()),
    st.tuples(st.sampled_from(MODEL_FILES), st.just("set"), JSON_PATHS,
              JSON_VALUES | ARRAY_SPECS),
    st.tuples(st.sampled_from(MODEL_FILES), st.sampled_from(["drop", "rm"]), JSON_PATHS,
              st.none()),
    st.tuples(st.just("arg"), st.sampled_from(ARG_FLAGS), st.none(), ARG_TEXT).filter(
        lambda m: not _generates_many_rows(m[1], m[3])),
)


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory) -> Path:
    """A valid series, config and full model directory for the fuzz to mutate."""
    base = tmp_path_factory.mktemp("fuzz")
    assert run("gen", "--regime", "mixed", "--out", str(base / "s.csv"), "--len", "200",
               "--seed", "0") == 0
    save_run_config(RunConfig(), base / "cfg.json")
    _tiny_run_config(base)  # tiny.json, for `eval`
    forest = train_classifier("random_forest", make_blobs(n_per=10),
                              SegclassConfig(rf_trees=2), seed=0)
    save_models(dataclasses.replace(tiny_models("full"), seg_model=forest), base / "models")
    return base


def _mutate_json(doc, path: tuple, value, drop: bool):
    """`doc` with the entry at `path` set to `value`, or deleted if `drop`. The
    walk stops early at a scalar or an empty container; an empty walk replaces
    the whole document."""
    parent = key = None
    node = doc
    for step in path:
        if not isinstance(node, (dict, list)) or not node:
            break
        if isinstance(node, dict):
            parent, key = node, step if isinstance(step, str) else sorted(node)[step % len(node)]
        else:
            parent, key = node, step % len(node)
        node = parent[key]
    if parent is None:
        return {} if drop else value
    if drop:
        del parent[key]
    else:
        parent[key] = value
    return doc


def _apply(base: Path, mutation) -> list[str]:
    """Mutate one input file under `base`; returns the command that reads it."""
    target, op, where, value = mutation
    if target == "arg":  # `op` is the flag, `value` its text
        if op == "--plan-seed":
            return ["eval", "--config", str(base / "tiny.json"), "--variant", "b2",
                    f"--plan-seed={value}", "--out", str(base / "eval.md")]
        return ["gen", "--regime", "mixed", "--len=60", f"{op}={value}",
                "--out", str(base / "out.csv")]
    path = base / {"csv": "s.csv", "config": "cfg.json"}.get(target, f"models/{target}.json")
    if op == "raw":
        path.write_bytes(value)
    elif op == "cut":
        data = path.read_bytes()
        path.write_bytes(data[:where % len(data)])
    elif target == "csv":
        if op == "set":
            lines = path.read_bytes().split(b"\n")
            line = where[0] % len(lines)
            cells = lines[line].split(b",")
            cells[where[1] % len(cells)] = value
            lines[line] = b",".join(cells)
            path.write_bytes(b"\n".join(lines))
        else:
            path.write_bytes(b"".join(path.read_bytes().splitlines(keepends=True)[:1 + where]))
    elif op == "rm":
        path.unlink()
    else:
        doc = _mutate_json(json.loads(path.read_text()), where, value, op == "drop")
        path.write_text(json.dumps(doc))
    if target == "config":
        return ["gen", "--regime", "mixed", "--len", "60", "--config", str(path),
                "--out", str(base / "out.csv")]
    return ["infer", "--models", str(base / "models"), "--in", str(base / "s.csv"),
            "--out", str(base / "pred.csv")]


@settings(max_examples=500, derandomize=True)
@given(mutation=MUTATIONS)
# from the parametrized exit-code tests above
@example(("config", "set", ("task2", "rebalance_frac"), 1.0))
@example(("config", "set", ("sim", "energy_base"), [10.0, 12.0]))
@example(("config", "set", ("seed",), "x"))
@example(("config", "drop", ("cpd",), None))
@example(("cpd", "set", ("arrays", "sd"), {"dtype": "f8", "shape": [3], "data": [1.0, 0.0, 1.0]}))
@example(("segclass", "set", ("arrays", "t0_left", "data", 0), 1000000))
@example(("manifest", "set", ("meta", "variant"), ["full"]))
@example(("csv", "set", (4, 0), b"100000000000000000000000"))
@example(("csv", "set", (4, 0), b"15778\xff36920"))
@example(("csv", "rows", 0, None))
# each once raised out of main() or wrote a non-finite prediction
@example(("task2", "set", (), None))                               # root not an object
@example(("task2", "set", ("arrays",), None))
@example(("cpd", "set", ("arrays", "head_w", "shape"), -1))
@example(("segclass", "set", ("arrays", "classes", "data", 0), 2**63))
@example(("task3", "set", ("arrays", "head_b", "data", 0), math.nan))
@example(("cpd", "set", ("meta", "window"), -1))
@example(("cpd", "set", ("meta", "min_gap"), math.inf))
@example(("manifest", "set", ("meta", "chunk_len"), 0))
@example(("manifest", "set", ("meta", "chunk_len"), 2**31))       # 32 GiB of padding
@example(("manifest", "set", ("meta", "seg_window"), math.inf))
@example(("segclass", "set", ("meta", "n_trees"), math.inf))
@example(("config", "set", ("sim", "energy_noise"), -0.0))
@example(("config", "set", ("sim", "signatures", "uv_noise_gain"), -0.0))
@example(("config", "set", ("sim", "period_s"), 2**63))
@example(("config", "set", ("sim", "fault_len", 1), 2**63))
@example(("config", "set", ("sim",), {"benign_rate": 1.0, "benign_len": [2**40, 2**40]}))
@example(("config", "raw", None, b"[" * 10**6))                   # nested past the stack
@example(("task3", "raw", None, b"[" * 10**6))
# each once loaded without complaint and ran
@example(("task2", "set", ("arrays", "l1_b", "dtype"), "c16"))   # read as int64
@example(("cpd", "set", ("meta", "threshold", "tau"), math.inf))  # flags nothing
# arguments
@example(("arg", "--plan-seed", None, "-1"))                       # once a traceback
@example(("arg", "--len", None, str(2**63 - 1)))                   # timestamps pass int64
@example(("arg", "--rate", None, "nan"))
def test_cli_fuzz_exits_cleanly(fuzz_inputs, mutation):
    """No mutated CSV, config or model file, and no --len, --rate or
    --plan-seed text, makes main() raise or exit outside 0-2, and an `infer`
    that exits 0 writes only finite predictions."""
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        shutil.copytree(fuzz_inputs, base, dirs_exist_ok=True)
        argv = _apply(base, mutation)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2)
        if code == 0 and argv[0] == "infer":
            assert all(math.isfinite(float(line.rsplit(",", 1)[1]))
                       for line in (base / "pred.csv").read_text().splitlines()[1:])
