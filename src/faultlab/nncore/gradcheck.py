"""Central finite-difference gradient verification.

Used by the test suite to certify every analytic backward pass against a
numerical oracle before the trainers are trusted with real data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass
class GradCheckReport:
    max_rel_error: float
    n_checked: int
    worst_index: tuple[int, int]  # (array index, flat offset within it)

    def ok(self, tol: float = 1e-4) -> bool:
        return self.max_rel_error < tol


def check_gradients(
    loss_fn: Callable[[], float],
    param_arrays: list[np.ndarray],
    analytic_grads: list[np.ndarray],
    h: float = 1e-5,
    floor: float = 1e-5,
) -> GradCheckReport:
    """Compare analytic gradients against central differences.

    loss_fn re-evaluates the loss with whatever values currently sit in
    param_arrays (which are perturbed in place and restored). Relative error
    uses max(|analytic|, |numeric|, floor) in the denominator; the floor keeps
    coordinates whose true gradient is below finite-difference noise (~1e-10
    absolute for central differences at h=1e-5) from reporting spurious
    relative errors. At the floor, the check still bounds the absolute
    disagreement by floor * tol. Every coordinate of every array is probed.
    """
    if len(param_arrays) != len(analytic_grads):
        raise ValueError("param/grad list length mismatch")
    worst = 0.0
    worst_idx = (0, 0)
    checked = 0
    for ai, (arr, grad) in enumerate(zip(param_arrays, analytic_grads)):
        if arr.shape != grad.shape:
            raise ValueError(f"array {ai}: shape {arr.shape} vs grad {grad.shape}")
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            up = loss_fn()
            flat[j] = orig - h
            down = loss_fn()
            flat[j] = orig
            numeric = (up - down) / (2.0 * h)
            denom = max(abs(gflat[j]), abs(numeric), floor)
            rel = abs(gflat[j] - numeric) / denom
            checked += 1
            if rel > worst:
                worst = rel
                worst_idx = (ai, j)
    return GradCheckReport(max_rel_error=float(worst), n_checked=checked, worst_index=worst_idx)
