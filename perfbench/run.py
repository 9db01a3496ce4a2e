"""faultlab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload cpd_detect --seed 1 --seconds 15 --trace 0

Run it from the repository root; it imports faultlab from ``src/``. With
``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer metrics from a separate traced run. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
machine facts, configs and quality numbers. perfbench/README.md describes
the workloads and the result schema.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()
                       and ln.split()[-1].startswith("/")})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(handle, fn):
                return int(getattr(handle, fn)())
    return None


def machine_facts() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        sha = done.stdout.strip() if done.returncode == 0 else None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "faultlab").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
    }


def layer_metrics(tracer, plain: list[float], traced: list[float], names) -> dict:
    """Set-up spans plus the median traced pass, for every per-layer name."""
    from stats import median

    by_unit = tracer.summary()
    setup = by_unit.get(0, {})
    passes = [by_unit.get(u, {}) for u in range(1, tracer.unit + 1)]
    out = {name: setup.get(name, 0.0) + median([p.get(name, 0.0) for p in passes])
           for name in names if not name.startswith("trace.")}
    lstm = [sum(v for k, v in p.items()
                if k.endswith(".self_s") and k.startswith(("nncore.lstm_", "nncore.sigmoid")))
            for p in passes]
    out["trace.pass_s"] = median(plain)
    out["trace.overhead_s"] = median(traced) - median(plain)
    out["trace.lstm_share"] = median([s / w for s, w in zip(lstm, traced)])
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "faultlab" / "__init__.py").is_file():
        print(f"perfbench: no faultlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One CPU, as in the paper: BLAS runs one thread, never more than nproc.
    # It has to be set before numpy loads.
    for var in BLAS_ENV:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    import workloads
    from tracing import Tracer

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    OUT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    ctx = workloads.Context(seed=args.seed, seconds=args.seconds, work=work,
                            tracer=Tracer() if args.trace else None)
    try:
        with workloads.quiet_evaluation_warnings() as warned:
            workloads.WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ctx.info["empty_denominator_warnings"] = warned.n
    if args.trace:
        ctx.metrics = layer_metrics(ctx.tracer, *ctx.trace_walls, units)
        run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
        ctx.tracer.save(OUT / f"spans_{args.workload}.npz", run_id)
        ctx.info["spans"] = len(ctx.tracer.start)
    else:
        ctx.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    missing = sorted(set(units) - set(ctx.metrics))
    if missing:
        print(f"perfbench: {args.workload} did not measure {missing}", file=sys.stderr)
        return 1

    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "machine": machine_facts(), **ctx.info,
            "problems": ctx.ledger.problems}
    for name, unit in units.items():
        print(f"{name:42s} {ctx.metrics[name]:14.6g} {unit}")
    print(json.dumps({"info": info}, sort_keys=True, default=str))
    print(json.dumps({
        "correct": ctx.ledger.failed == 0,
        "attempted": ctx.ledger.attempted,
        "failed": ctx.ledger.failed,
        "metrics": {name: {"value": float(ctx.metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
