"""Structural entity extraction: entity annotations to factual entity sequences.

Four deterministic passes turn a study's annotations into a compact,
presentation-free surrogate of the report:

1. entities spanning two sentences are removed;
2. overlapping entities are reduced to the longest one per overlap group;
3. survivors are grouped by the sentence that contains them;
4. a group with a definitely-absent observation gets the prefix "no", one
   with only uncertain observations gets "maybe".

Groups are rendered lowercase and joined with the [SEP] marker.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Sequence

from .corpus import EntityAnnotation, EntityLabel, StudyRecord
from .errors import ValidationError

__all__ = [
    "SEP",
    "FactualSubsequence",
    "FactualEntitySequence",
    "drop_cross_sentence",
    "dedupe_overlaps",
    "split_subsequences",
    "apply_negation_prefix",
    "see_extract",
]

SEP = "[SEP]"


@dataclass(frozen=True)
class FactualSubsequence:
    """Entities of one sentence, with an optional negation/uncertainty prefix."""

    prefix: str | None
    entity_texts: tuple[str, ...]

    def __post_init__(self):
        if not self.entity_texts:
            raise ValidationError("a factual subsequence needs at least one entity")
        if self.prefix not in (None, "no", "maybe"):
            raise ValidationError(f"invalid subsequence prefix {self.prefix!r}")

    def render(self) -> str:
        parts = [self.prefix] if self.prefix else []
        parts.extend(text.lower() for text in self.entity_texts)
        return " ".join(parts)


@dataclass(frozen=True)
class FactualEntitySequence:
    """Ordered subsequences plus their [SEP]-joined rendering."""

    subsequences: tuple[FactualSubsequence, ...]
    rendered: str


def _canonical_key(ent: EntityAnnotation) -> tuple:
    return (ent.start_ix, ent.end_ix, ent.label.value, ent.tokens)


def drop_cross_sentence(
    entities: Iterable[EntityAnnotation], sentence_ends: Sequence[int]
) -> list[EntityAnnotation]:
    """Remove entities whose span crosses a sentence boundary.

    An entity is removed iff some sentence-end index e satisfies
    start_ix <= e < end_ix; order is preserved.
    """
    ends = sorted(sentence_ends)
    kept = []
    for ent in entities:
        i = bisect_left(ends, ent.start_ix)
        if i < len(ends) and ends[i] < ent.end_ix:
            continue
        kept.append(ent)
    return kept


def dedupe_overlaps(entities: Iterable[EntityAnnotation]) -> list[EntityAnnotation]:
    """Keep one entity per group of mutually overlapping spans.

    Groups are connected components of the span-intersection graph.  The
    survivor is the longest entity; ties fall to the smaller start index,
    then to canonical order.  Output is sorted by start index and its spans
    are pairwise disjoint.
    """
    ordered = sorted(entities, key=_canonical_key)
    kept: list[EntityAnnotation] = []
    component: list[EntityAnnotation] = []
    component_end = -1
    for ent in ordered:
        if component and ent.start_ix > component_end:
            kept.append(_component_survivor(component))
            component = []
        component.append(ent)
        component_end = max(component_end, ent.end_ix)
    if component:
        kept.append(_component_survivor(component))
    return kept


def _component_survivor(component: list[EntityAnnotation]) -> EntityAnnotation:
    best = component[0]
    for ent in component[1:]:
        if (ent.span_len, -ent.start_ix) > (best.span_len, -best.start_ix):
            best = ent
    return best


def split_subsequences(
    entities: Iterable[EntityAnnotation], sentence_ends: Sequence[int]
) -> list[tuple[int, list[EntityAnnotation]]]:
    """Group entities by the sentence interval containing their span.

    Entities after the last period belong to a final implicit sentence.
    Groups come back in sentence order; empty groups are omitted.
    """
    from itertools import groupby  # enough: _canonical_key sorts by start_ix first, so by sentence too

    ends = sorted(sentence_ends)
    groups = groupby(sorted(entities, key=_canonical_key), lambda ent: bisect_left(ends, ent.start_ix))
    return [(sentence, list(group)) for sentence, group in groups]


def apply_negation_prefix(group: Sequence[EntityAnnotation]) -> FactualSubsequence:
    """Render one sentence group, prefixing "no" or "maybe" when it applies.

    "no" fires when any entity is OBS-DA; otherwise "maybe" fires when any
    entity is OBS-U.  At most one prefix per group, and OBS-DA wins.
    """
    labels = {ent.label for ent in group}
    if EntityLabel.OBS_DA in labels:
        prefix = "no"
    elif EntityLabel.OBS_U in labels:
        prefix = "maybe"
    else:
        prefix = None
    ordered = sorted(group, key=_canonical_key)
    return FactualSubsequence(prefix=prefix, entity_texts=tuple(e.tokens for e in ordered))


def see_extract(record: StudyRecord) -> FactualEntitySequence:
    """Run all four passes on one study and join the groups with [SEP].

    Pure and order-insensitive: permuting the input entity list leaves the
    output unchanged.  Zero entities yield an empty rendering.
    """
    ends = record.report.sentence_ends
    survivors = drop_cross_sentence(record.entities, ends)
    survivors = dedupe_overlaps(survivors)
    groups = split_subsequences(survivors, ends)
    subsequences = tuple(apply_negation_prefix(group) for _, group in groups)
    rendered = f" {SEP} ".join(sub.render() for sub in subsequences)
    return FactualEntitySequence(subsequences=subsequences, rendered=rendered)
