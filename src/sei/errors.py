"""Exception types shared across the toolkit, and the checks that raise them:
``check_at_least``, ``check_addressable``, ``check_non_blank``, ``as_finite_array`` and ``check_labels14``."""

from __future__ import annotations

import math

import numpy as np


class ToolkitError(Exception):
    """Base class for every error the toolkit raises on purpose."""


class ValidationError(ToolkitError):
    """Invalid values, shapes, or schema content (CLI exit code 2)."""


class CorpusError(ValidationError):
    """Malformed corpus, embeddings, or index file; message names the location."""


def check_at_least(low: int, **values: int) -> None:
    """Raise ValidationError naming the first of ``values`` that is below ``low``."""
    for name, value in values.items():
        if value < low:
            raise ValidationError(f"{name} must be >= {low}, got {value}")


def check_addressable(**shapes: tuple[int, ...]) -> None:
    """Raise ValidationError naming the first of ``shapes`` whose float64 array has more bytes than numpy can address."""
    limit = int(np.iinfo(np.intp).max)
    for name, shape in shapes.items():
        if max(shape) > limit or 8 * math.prod(shape) > limit:
            raise ValidationError(f"{name} of shape {shape} is past numpy's limit of {limit} bytes as float64")


def check_non_blank(**string_sets) -> None:
    """Raise ValidationError naming the first of ``string_sets`` with an empty or whitespace-only entry."""
    for name, strings in string_sets.items():
        if not all(s.strip() for s in strings):
            raise ValidationError(f"{name} must be non-empty strings")


def as_finite_array(value, name: str, ndim: int) -> np.ndarray:
    """``value`` as a finite float64 array of ``ndim`` dimensions; else a ValidationError naming ``name``."""
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim != ndim:
        raise ValidationError(f"{name} must have {ndim} dimensions, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} contains non-finite values")
    return arr


def check_labels14(values, what: str) -> tuple[int, ...]:
    """``values`` as 14 ints; another length, or an entry that is not 0 or 1, raises ValidationError naming ``what``."""
    values = tuple(values)
    if len(values) != 14:
        raise ValidationError(f"{what} has {len(values)} entries, expected 14")
    if any(v not in (0, 1) for v in values):
        raise ValidationError(f"{what} entries must be 0 or 1")
    return tuple(map(int, values))


class StageError(ToolkitError):
    """A pipeline stage failed; wraps the underlying cause."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage}: {cause}")
        self.cause = cause
