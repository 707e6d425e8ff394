"""``max_fd_error``, the gradient probe of ``sei fuse-demo`` and ``sei align-demo``; the tests use their own checker."""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

__all__ = ["max_fd_error"]

_EPS = 1e-4  # central-difference step
_FLOOR = 1e-6  # least denominator of a relative error, so noise near zero is ignored


def max_fd_error(fn: Callable[[], float], pairs: Iterable, rng: np.random.Generator, count: int) -> tuple[float, int]:
    """The largest relative error of an analytic gradient entry against a central difference, and the entries checked.

    ``pairs`` yields ``(array, gradient)``: an array ``fn`` reads, perturbed in place and restored, and the
    analytic gradient of ``fn`` with respect to it.  Up to ``count`` entries of each are drawn from ``rng``.
    """
    max_err, checked = 0.0, 0
    for array, grad in pairs:
        for flat_index in _sample_flat_indices(rng, array.size, count):
            numeric = _central_difference(fn, array, flat_index)
            max_err = max(max_err, _relative_error(float(grad.reshape(-1)[flat_index]), numeric))
            checked += 1
    return max_err, checked


def _central_difference(fn: Callable[[], float], array: np.ndarray, flat_index: int) -> float:
    """Numeric d(fn)/d(array.flat[flat_index]) by symmetric perturbation in place."""
    flat = array.reshape(-1)
    original = flat[flat_index]
    flat[flat_index] = original + _EPS
    f_plus = fn()
    flat[flat_index] = original - _EPS
    f_minus = fn()
    flat[flat_index] = original
    return (f_plus - f_minus) / (2.0 * _EPS)


def _relative_error(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), _FLOOR)


def _sample_flat_indices(rng: np.random.Generator, size: int, count: int) -> list[int]:
    """Up to ``count`` distinct flat indices into an array of ``size`` elements."""
    if size <= count:
        return list(range(size))
    return sorted(int(i) for i in rng.choice(size, size=count, replace=False))
