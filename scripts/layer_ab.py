"""In-process A/B of the LSTM layer code: `src/faultlab/nncore/layers.py` at a
git revision against the working tree's.

The file at REV is read with `git show REV:src/faultlab/nncore/layers.py`
and loaded as a second module next to the working tree's, so both sides run
in one process on the same inputs, the same NumPy and the same BLAS. Every
case is timed in interleaved pairs (REV then the working tree, then the
other way round), and each side's outputs are compared byte for byte. The
cases are the LSTM shapes faultlab runs, each as a forward pass and as a
forward pass with cache plus the backward pass, and the sigmoid on the gate
slice one step passes it:

    ae_enc   1 -> 16, T=16   per-channel encoder of the CPD autoencoder
    ae_dec  48 -> 32, T=16   its decoder, on an input constant over time
    task_in  5 -> 32, T=64   first layer of the task networks
    task_l2 32 -> 32, T=64   their second layer

Batches are those of the real calls: 256 windows to train the autoencoder and
512 to score, 16 chunks to train a task network and 220 in a forward pass;
the task layers' forward pass also runs at 16 chunks, as in training. The
stacked cases time a group of K task networks' training step: K separate
calls at REV against one call over a leading model axis in the working tree
(K=4 task-2 nets, D=3; K=6 task-3 nets, D=5; their second layers), at 16
chunks and at a 12-chunk last batch. BLAS runs one thread. The ratio of a case is the median, with quartiles, of
the per-pair ratios work time / rev time: the two samples of a pair run back
to back, so a drift in the machine's speed between pairs cancels out. The
result, with each side's median and quartiles, the share of pairs the working
tree won and machine facts, goes to --out:

    python3 scripts/layer_ab.py --rev HEAD --pairs 20 --out BENCH_lockstep.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
import types
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads

import numpy as np  # noqa: E402

REPO = Path(__file__).resolve().parent.parent
LAYERS = "src/faultlab/nncore/layers.py"
MIN_SAMPLE_S = 0.05  # a timed sample repeats the call for at least this long
sys.path.insert(0, str(REPO / "src"))

from faultlab.nncore import layers as work_layers  # noqa: E402


def git(*args: str) -> str:
    done = subprocess.run(["git", "-C", str(REPO), *args], capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"layer_ab: git {' '.join(args)} failed: {done.stderr.strip()}")
    return done.stdout


def load_layers_at(rev: str) -> types.ModuleType:
    """layers.py as of `rev`, as a module of the faultlab.nncore package."""
    mod = types.ModuleType("faultlab.nncore.layers_at_rev")
    mod.__package__ = "faultlab.nncore"
    mod.__file__ = f"{rev}:{LAYERS}"
    sys.modules[mod.__name__] = mod  # dataclasses look their module up there
    exec(compile(git("show", f"{rev}:{LAYERS}"), mod.__file__, "exec"), mod.__dict__)
    return mod


def sigmoid_case(nb: int, nh: int):
    a = np.random.default_rng(nb + nh).normal(scale=3.0, size=(nb, 4 * nh))
    gates = a[:, :3 * nh]
    return (f"sigmoid ({nb}, {3 * nh}) of ({nb}, {4 * nh})",
            lambda L: [L.sigmoid(gates)])


def lstm_case(role: str, nd: int, nh: int, nt: int, nb: int, backward: bool,
              constant: bool = False, dh_seq: bool = True, want_dx: bool = True):
    """One LSTM call as faultlab makes it; returns (name, run(layers) -> arrays)."""
    rng = np.random.default_rng(1000 * nd + nh + nb)
    w = work_layers.LstmCellParams.init(rng, nd, nh)
    w.bias[:] = rng.normal(size=4 * nh)
    if constant:
        x = np.broadcast_to(rng.normal(size=(nb, 1, nd)), (nb, nt, nd))
    elif nd == 1:  # one channel of the autoencoder's (B, W, 3) windows
        x = rng.normal(size=(nb, nt, 3))[:, :, :1]
    else:
        x = rng.normal(size=(nb, nt, nd))
    d_seq = rng.normal(size=(nb, nt, nh)) if dh_seq else None
    d_last = None if dh_seq else rng.normal(size=(nb, nh))

    def run(L):
        p = L.LstmCellParams(w.w_input, w.w_hidden, w.bias)
        if not backward:
            return [L.lstm_forward_batch(x, p)[0]]
        hs, cache = L.lstm_forward_batch(x, p, want_cache=True)
        g = L.lstm_backward_batch(cache, d_seq, dh_last=d_last, want_dx=want_dx)
        return [hs, g.w_input, g.w_hidden, g.bias] + ([g.x] if want_dx else [])

    what = "forward+backward" if backward else "forward"
    return f"{role} {nd}->{nh} T={nt} B={nb} {what}", run


def stacked_case(role: str, nd: int, nh: int, nt: int, nb: int, k: int, want_dx: bool):
    """K layers' forward and backward passes as a task-network training step
    runs them: K calls at REV, one call over a leading model axis in the
    working tree, stacking of the weights and inputs included."""
    rng = np.random.default_rng(1000 * nd + nh + nb + k)
    cells = [work_layers.LstmCellParams.init(rng, nd, nh) for _ in range(k)]
    for cell in cells:
        cell.bias[:] = rng.normal(size=4 * nh)
    xs = [rng.normal(size=(nb, nt, nd)) for _ in range(k)]
    d_seqs = [rng.normal(size=(nb, nt, nh)) for _ in range(k)]

    def arrays(hs, g):
        return [hs, g.w_input, g.w_hidden, g.bias] + ([g.x] if want_dx else [])

    def run(L):
        if L is work_layers:
            hs, cache = L.lstm_forward_batch(np.stack(xs), L.LstmCellParams.stack(cells),
                                             want_cache=True)
            stacked = arrays(hs, L.lstm_backward_batch(cache, np.stack(d_seqs), want_dx=want_dx))
            return [a[j] for j in range(k) for a in stacked]
        out = []
        for cell, x, d_seq in zip(cells, xs, d_seqs):
            p = L.LstmCellParams(cell.w_input, cell.w_hidden, cell.bias)
            hs, cache = L.lstm_forward_batch(x, p, want_cache=True)
            out += arrays(hs, L.lstm_backward_batch(cache, d_seq, want_dx=want_dx))
        return out

    return f"{role} {nd}->{nh} T={nt} B={nb} K={k} stacked forward+backward", run


def cases():
    return [
        sigmoid_case(256, 16), sigmoid_case(512, 16), sigmoid_case(256, 32),
        sigmoid_case(16, 32), sigmoid_case(220, 32),
        lstm_case("ae_enc", 1, 16, 16, 512, backward=False),
        lstm_case("ae_enc", 1, 16, 16, 256, backward=True, dh_seq=False, want_dx=False),
        lstm_case("ae_dec", 48, 32, 16, 512, backward=False, constant=True),
        lstm_case("ae_dec", 48, 32, 16, 256, backward=True, constant=True),
        lstm_case("task_in", 5, 32, 64, 220, backward=False),
        lstm_case("task_in", 5, 32, 64, 16, backward=True, want_dx=False),
        lstm_case("task_l2", 32, 32, 64, 220, backward=False),
        lstm_case("task_l2", 32, 32, 64, 16, backward=True),
        lstm_case("task_in", 5, 32, 64, 16, backward=False),
        lstm_case("task_l2", 32, 32, 64, 16, backward=False),
        *(case
          for nb in (16, 12)
          for case in (stacked_case("task_in", 3, 32, 64, nb, 4, want_dx=False),
                       stacked_case("task_in", 5, 32, 64, nb, 6, want_dx=False),
                       stacked_case("task_l2", 32, 32, 64, nb, 6, want_dx=True))),
    ]


def sample(run, layers, calls: int) -> float:
    """Seconds per call over `calls` back-to-back calls."""
    t0 = time.perf_counter()
    for _ in range(calls):
        run(layers)
    return (time.perf_counter() - t0) / calls


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return float(q1), float(med), float(q3)


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = None
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    return {
        "cpu": cpu or platform.processor() or platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", default="HEAD", help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=20, help="interleaved pairs per case (>= 10)")
    parser.add_argument("--out", default="BENCH_lockstep.json")
    args = parser.parse_args(argv)
    if args.pairs < 10:
        parser.error("--pairs must be at least 10")

    rev_layers = load_layers_at(args.rev)
    sides = {"rev": rev_layers, "work": work_layers}
    results = []
    for name, run in cases():
        identical = ([a.tobytes() for a in run(rev_layers)]
                     == [a.tobytes() for a in run(work_layers)])
        calls = max(1, int(np.ceil(MIN_SAMPLE_S / sample(run, work_layers, 1))))
        times = {"rev": [], "work": []}
        for k in range(args.pairs):
            for side in (("rev", "work") if k % 2 == 0 else ("work", "rev")):
                times[side].append(sample(run, sides[side], calls))
        stats = {side: dict(zip(("q1_ms", "median_ms", "q3_ms"),
                                (round(v * 1e3, 4) for v in quartiles(t))))
                 for side, t in times.items()}
        pair_ratios = [w / r for w, r in zip(times["work"], times["rev"])]
        wins = sum(q < 1.0 for q in pair_ratios)
        ratio_q = [round(v, 4) for v in quartiles(pair_ratios)]
        results.append({"case": name, "calls_per_sample": calls, **stats,
                        "ratio_work_over_rev": ratio_q[1],
                        "ratio_q1": ratio_q[0], "ratio_q3": ratio_q[2],
                        "work_wins": wins, "pairs": args.pairs, "identical": identical})
        print(f"{name:48s} rev {stats['rev']['median_ms']:9.3f} ms  "
              f"work {stats['work']['median_ms']:9.3f} ms  ratio {ratio_q[1]:.3f} "
              f"({ratio_q[0]:.3f}-{ratio_q[2]:.3f})  wins {wins}/{args.pairs}  "
              f"{'same bits' if identical else 'BITS DIFFER'}", flush=True)

    report = {
        "what": "in-process A/B of src/faultlab/nncore/layers.py: rev vs working tree",
        "rev": args.rev,
        "rev_sha": git("rev-parse", args.rev).strip(),
        # Blob ids name the two layers.py files exactly, committed or not.
        "rev_layers_blob": git("rev-parse", f"{args.rev}:{LAYERS}").strip(),
        "work_layers_blob": git("hash-object", LAYERS).strip(),
        "machine": machine_facts(),
        "cases": results,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0 if all(r["identical"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
