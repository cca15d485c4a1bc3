"""Finite-difference gradient checks, the oracle the hand-derived backward
passes are judged by."""

from __future__ import annotations

from typing import Callable

import numpy as np


def numerical_gradient(
    f: Callable[[np.ndarray], float], x: np.ndarray, h: float = 1e-5
) -> np.ndarray:
    """Central finite differences of a scalar function, entry by entry.

    `x` is perturbed in place and restored, so `f` may read it through a
    model's parameters rather than its argument.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for k in range(flat.shape[0]):
        orig = flat[k]
        flat[k] = orig + h
        fp = f(x)
        flat[k] = orig - h
        fm = f(x)
        flat[k] = orig
        gflat[k] = (fp - fm) / (2.0 * h)
    return grad


def max_relative_error(a: np.ndarray, b: np.ndarray, floor: float = 1e-8) -> float:
    """max |a-b| / max(|a|, |b|, floor), the usual gradient-check metric."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - b) / denom))
