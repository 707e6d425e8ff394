"""Exception types shared across the toolkit, and the bound check that raises one."""

from __future__ import annotations


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


class StageError(ToolkitError):
    """A pipeline stage failed; wraps the underlying cause."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage}: {cause}")
        self.stage = stage
        self.cause = cause
