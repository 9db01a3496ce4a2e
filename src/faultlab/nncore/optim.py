"""Adam optimizer over flat parameter vectors.

Models expose their parameters as a list of ndarrays; the helpers here pack
and unpack them so the optimizer itself only ever sees one flat vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Adam's moment decay rates and denominator floor, Kingma & Ba's defaults
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def pack(arrays: list[np.ndarray]) -> np.ndarray:
    return np.concatenate([a.ravel() for a in arrays])


def unpack_into(flat: np.ndarray, arrays: list[np.ndarray]) -> None:
    """Write slices of `flat` back into the given arrays, in place."""
    pos = 0
    for a in arrays:
        a.flat[:] = flat[pos:pos + a.size]
        pos += a.size
    if pos != flat.size:
        raise ValueError(f"flat vector has {flat.size} entries, arrays take {pos}")


@dataclass
class AdamState:
    """Step size, first/second moment accumulators and the step counter."""

    alpha: float = 1e-3
    t: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """One Adam update with bias correction; returns the new parameter vector."""
    if params.shape != grads.shape:
        raise ValueError(f"params {params.shape} vs grads {grads.shape}")
    if state.m is None:
        state.m = np.zeros_like(params)
        state.v = np.zeros_like(params)
    state.t += 1
    state.m = BETA1 * state.m + (1.0 - BETA1) * grads
    state.v = BETA2 * state.v + (1.0 - BETA2) * grads * grads
    m_hat = state.m / (1.0 - BETA1 ** state.t)
    v_hat = state.v / (1.0 - BETA2 ** state.t)
    return params - state.alpha * m_hat / (np.sqrt(v_hat) + EPS)
