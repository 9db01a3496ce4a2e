"""faultlab command line: generation, training, inference, evaluation.

Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error.
The global seed comes from --seed, falling back to the FAULTLAB_SEED
environment variable and then to the config file.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .config import RunConfig, load_run_config, save_run_config
from .errors import ConfigError, FaultlabError
from .simgen import N_FAULT_CLASSES, generate_dataset, read_csv, write_columns, write_csv

REGIME_ALIASES = {"normal": "normal_only", "anomaly": "anomaly_only", "mixed": "mixed"}
VARIANT_ALIASES = {"b2": "b2_no_cpd", "b3": "b3_no_segclass", "full": "full",
                   "b2_no_cpd": "b2_no_cpd", "b3_no_segclass": "b3_no_segclass"}


def _resolve_seed(arg_seed: int | None, cfg: RunConfig) -> int:
    if arg_seed is not None:
        return arg_seed
    env = os.environ.get("FAULTLAB_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"FAULTLAB_SEED is not an integer: {env!r}") from exc
    return cfg.seed


def _load_cfg(args) -> RunConfig:
    cfg = load_run_config(args.config) if getattr(args, "config", None) else RunConfig()
    cfg.seed = _resolve_seed(getattr(args, "seed", None), cfg)
    cfg.sim.seed = cfg.seed
    return cfg


def cmd_gen(args) -> int:
    cfg = _load_cfg(args)
    regime = REGIME_ALIASES[args.regime]
    sim = dataclasses.replace(cfg.sim)
    if args.len is not None:
        sim.n_points = args.len
    if args.rate is not None:
        sim.fault_rate = args.rate
    if args.paper_scale:
        sim.paper_scale = True
    ds = generate_dataset(regime, sim)
    write_csv(ds, args.out)
    frac = float(np.mean(ds.anomaly))
    present = sorted(int(c) for c in np.unique(ds.fault_class) if c <= N_FAULT_CLASSES)
    print(f"wrote {args.out}: rows={len(ds)} fault_fraction={frac:.4f} "
          f"classes={','.join(map(str, present)) if present else '-'}")
    return 0


def cmd_train_smtcnn(args) -> int:
    from .cascade import save_models
    from .experiment import build_assets, train_whole

    cfg = _load_cfg(args)
    variant = VARIANT_ALIASES[args.ablation] if args.ablation else "full"
    datasets = {"mixed": read_csv(args.mixed), "normal_only": read_csv(args.normal),
                "anomaly_only": read_csv(args.anomaly)}
    save_models(train_whole(build_assets(cfg, datasets, (variant,)), variant), args.out)
    print(f"wrote {args.out}: variant={variant}")
    return 0


def cmd_infer(args) -> int:
    from .cascade import load_models, smtcnn_infer
    from .simgen import NO_FAULT

    series = read_csv(getattr(args, "in"))
    models = load_models(args.models)
    pred = smtcnn_infer(series, models)
    p_anom = 1.0 - pred.probs[:, NO_FAULT - 1]
    write_columns(args.out, ["index", "class", "p_anomaly"],
                  [np.arange(len(p_anom)), pred.classes, p_anom], lineterminator="\n")
    n_anom = int(np.sum(pred.anomaly))
    print(f"wrote {args.out}: rows={len(series)} anomalous={n_anom}")
    return 0


def _stage(name: str, fn):
    try:
        return fn()
    except FaultlabError as exc:
        raise type(exc)(f"stage '{name}': {exc}") from exc


def _variant_list(ablation: str | None) -> tuple[str, ...]:
    from .cascade import VARIANTS

    return (VARIANT_ALIASES[ablation],) if ablation else VARIANTS


def cmd_eval(args) -> int:
    from .evaluation import render_report, seq_cv_plan
    from .experiment import build_assets, run_variants

    cfg = _load_cfg(args)
    variants = _variant_list(args.variant)
    assets = _stage("assets", lambda: build_assets(cfg, variants=variants))
    plan_seed = args.plan_seed if args.plan_seed is not None else cfg.stage_seed("seqcv")
    plan = seq_cv_plan(len(assets.mixed), folds=cfg.plan.folds, seed=plan_seed,
                       lo=cfg.plan.len_frac_lo, hi=cfg.plan.len_frac_hi)
    reports = _stage("experiment", lambda: run_variants(assets, variants, plan))
    fmt = "csv" if args.out.endswith(".csv") else "markdown"
    text = render_report(reports, fmt=fmt, path=args.out)
    print(text, end="")
    return 0


def cmd_pipeline(args) -> int:
    from .cascade import save_models
    from .evaluation import render_report
    from .experiment import build_assets, run_variants, train_whole

    cfg = _load_cfg(args)
    out = Path(args.out if args.out is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    variants = _variant_list(args.ablation)

    assets = _stage("assets", lambda: build_assets(cfg, variants=variants))
    for v in variants:
        models = _stage(f"train:{v}", lambda v=v: train_whole(assets, v))
        save_models(models, out / "models" / v)
    reports = _stage("experiment", lambda: run_variants(assets, variants))
    save_run_config(cfg, out / "config.json")
    render_report(reports, fmt="csv", path=out / "report.csv")
    text = render_report(reports, fmt="markdown", path=out / "report.md")
    print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="faultlab",
        description="Telemetry fault detection toolkit: simulate, train, evaluate.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="info-level logging")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="global seed (default: FAULTLAB_SEED or config)")
    common.add_argument("--config", default=None, help="run config JSON")

    p = sub.add_parser("gen", parents=[common], help="generate a telemetry CSV")
    p.add_argument("--regime", required=True, choices=sorted(REGIME_ALIASES))
    p.add_argument("--out", required=True)
    p.add_argument("--len", type=int, default=None, help="number of rows")
    p.add_argument("--rate", type=float, default=None, help="mixed-regime fault rate")
    p.add_argument("--paper-scale", action="store_true")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train-smtcnn", parents=[common], help="train the full cascade")
    p.add_argument("--mixed", required=True)
    p.add_argument("--normal", required=True)
    p.add_argument("--anomaly", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--ablation", choices=("b2", "b3"), default=None)
    p.set_defaults(func=cmd_train_smtcnn)

    p = sub.add_parser("infer", help="per-step predictions")
    p.add_argument("--models", required=True)
    p.add_argument("--in", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", parents=[common], help="sequential CV evaluation")
    p.add_argument("--variant", choices=sorted(VARIANT_ALIASES), default=None,
                   help="default: all variants")
    p.add_argument("--plan-seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("pipeline", parents=[common], help="end-to-end experiment")
    p.add_argument("--out", default=None, help="output dir (default: config out_dir)")
    p.add_argument("--ablation", choices=("b2", "b3", "full"), default=None,
                   help="restrict to one variant")
    p.set_defaults(func=cmd_pipeline)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"faultlab: config error: {exc}", file=sys.stderr)
        return 2
    except FaultlabError as exc:
        print(f"faultlab: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"faultlab: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"faultlab: error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
