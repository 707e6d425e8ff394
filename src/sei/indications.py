"""Indication text cleanup before it enters the fusion network.

Lowercases, strips illegal characters and boilerplate phrases, unifies
gendered terms to "man"/"woman", and collapses whitespace.  Inputs that
clean down to nothing come back as None.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from .errors import ValidationError, check_non_blank

__all__ = ["NormalizerConfig", "DEFAULT_NORMALIZER", "normalize_indication"]


@dataclass(frozen=True)
class NormalizerConfig:
    illegal_chars: frozenset[str] = frozenset({"/", "_", "@"})
    invalid_words: tuple[str, ...] = ("history:", "-year-old", "year old")
    male_terms: frozenset[str] = frozenset({"male", "man", "m", "gentleman"})
    female_terms: frozenset[str] = frozenset({"female", "woman", "f", "lady"})

    def __post_init__(self):
        check_non_blank(**vars(self))  # every field is a set of strings
        male = {t.lower() for t in self.male_terms}
        female = {t.lower() for t in self.female_terms}
        shared = male & female
        if shared:
            raise ValidationError(f"gender term sets overlap: {sorted(shared)}")


DEFAULT_NORMALIZER = NormalizerConfig()


@lru_cache(maxsize=32)
def _term_pattern(terms: tuple[str, ...]) -> re.Pattern:
    # Longest-first so multi-word terms win; \b keeps "m"/"f" standalone-only.
    alternatives = "|".join(re.escape(t) for t in sorted(terms, key=len, reverse=True))
    return re.compile(rf"\b(?:{alternatives})\b")


def _delete_phrases(text: str, phrases: tuple[str, ...]) -> str:
    """Delete phrases longest-first until none remains after collapsing."""
    ordered = sorted((p.lower() for p in phrases), key=len, reverse=True)
    while True:
        collapsed = " ".join(text.split())
        cleaned = collapsed
        for phrase in ordered:
            cleaned = cleaned.replace(phrase, " ")
        if cleaned == collapsed:
            return collapsed
        text = cleaned


def normalize_indication(raw: str | None, cfg: NormalizerConfig = DEFAULT_NORMALIZER) -> str | None:
    """Clean one indication string; absent or emptied-out input gives None.

    Steps, in order: lowercase, replace illegal characters with a space,
    delete invalid phrases (longest first), map gendered terms to "man" or
    "woman", collapse whitespace.  Idempotent.
    """
    if raw is None:
        return None
    text = raw.lower()
    for ch in cfg.illegal_chars:
        text = text.replace(ch, " ")
    text = _delete_phrases(text, cfg.invalid_words)
    text = _term_pattern(tuple(sorted(t.lower() for t in cfg.female_terms))).sub("woman", text)
    text = _term_pattern(tuple(sorted(t.lower() for t in cfg.male_terms))).sub("man", text)
    text = " ".join(text.split())
    return text or None
