"""Small change-point detection demo on a simulated stream.

Trains the LSTM autoencoder on a clean stream, thresholds reconstruction
error on a faulty one, and prints detected segments side by side with the
injected fault windows. Finishes in well under a minute.
"""

from __future__ import annotations

import argparse

from faultlab.changepoint import (
    compute_threshold,
    propose_segments,
    reconstruction_errors,
    train_autoencoder,
)
from faultlab.config import RunConfig
from faultlab.simgen import NO_FAULT, generate_dataset, true_fault_windows


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--len", type=int, default=6000, dest="n_points")
    ap.add_argument("--rate", type=float, default=0.08, help="fault rate")
    args = ap.parse_args()

    cfg = RunConfig(seed=args.seed)
    cfg.sim.seed = args.seed
    cfg.sim.n_points = args.n_points
    cfg.sim.fault_rate = args.rate
    cfg.cpd.max_epochs = 8
    cfg.cpd.max_train_windows = 1500

    print(f"simulating {args.n_points} steps (seed {args.seed}) ...")
    normal = generate_dataset("normal_only", cfg.sim)
    mixed = generate_dataset("mixed", cfg.sim)

    print("training the autoencoder on the clean stream ...")
    auto = train_autoencoder(normal, cfg.cpd, seed=cfg.stage_seed("cpd"))
    spec = compute_threshold(reconstruction_errors(auto, normal), cfg.cpd.k)
    print(f"threshold tau = {spec.tau:.4f} (mu {spec.mu:.4f} + {spec.k:g} sigma)")

    segments, mask = propose_segments(reconstruction_errors(auto, mixed), spec, cfg.cpd,
                                      len(mixed))
    mask = mask.astype(bool)

    truth = true_fault_windows(mixed)
    print(f"\ninjected fault windows ({len(truth)}):")
    for s, e, c in truth:
        hit = mask[s:e].mean()
        print(f"  [{s:5d}, {e:5d})  class {c:2d}  covered {hit:6.1%}")
    print(f"\ndetected segments ({len(segments)}):")
    for seg in segments:
        print(f"  [{seg.start:5d}, {seg.end:5d})")

    is_fault = mixed.fault_class != NO_FAULT
    if is_fault.any():
        print(f"\nfault steps covered:  {mask[is_fault].mean():.1%}")
    print(f"normal steps flagged: {mask[~is_fault].mean():.2%}")


if __name__ == "__main__":
    main()
