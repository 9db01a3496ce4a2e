"""Run one workload over several seeds and print each metric's spread.

    python3 perfbench/spread.py --workload cascade_cv --seeds 1 2 3 4 5

Runs perfbench/run.py once per seed, one after another, and prints per
metric the median and the interquartile distance as a share of the median,
next to the metric's bound from BENCHMARK.json. A steady benchmark keeps
every spread below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from stats import median, spread

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        values_txt = " ".join(f"{m['value']:.4g}" for m in result["metrics"].values())
        print(f"seed {seed} ({time.perf_counter() - t0:.0f} s): correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} | {values_txt}",
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for name, vals in values.items():
        line = f"{name:42s} median {median(vals):12.6g}"
        if len(vals) >= 2 and median(vals) != 0:
            line += f"  spread {spread(vals):7.2%}"
        if bounds.get(name) is not None:
            line += f"  bound {bounds[name]:.0%}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
