"""Canonical corpus model: entity-annotated studies, JSONL ingestion, filtering.

Every other module consumes the immutable record types defined here and
shares one tokenization convention, so entity spans, sentence boundaries,
report truncation, and n-gram metrics all agree on what a token is.

Corpus files are JSONL, one study per line:

    {"study_id": str, "findings": str, "indication": str|null,
     "entities": [{"tokens": str, "label": "ANAT-DP|OBS-DP|OBS-DA|OBS-U",
                   "start_ix": int, "end_ix": int}],
     "labels14": [0/1 x14]|null}

Embedding files are JSONL with ``{"study_id": str, "vec": [float x d]}``.
``load_embeddings`` parses them straight into the rows of one float64
matrix, returned as an unnormalized ``retrieval.EmbeddingIndex``.

Every file the toolkit writes goes through ``atomic_write``, so an
interrupted write leaves the previous file, never a truncated one.
"""

from __future__ import annotations

import json
import math
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import IO, TYPE_CHECKING, Callable, Iterable, Iterator

import numpy as np

from .errors import CorpusError, ValidationError, check_at_least

if TYPE_CHECKING:
    from .retrieval import EmbeddingIndex

__all__ = [
    "EntityLabel",
    "EntityAnnotation",
    "ReportDocument",
    "StudyRecord",
    "CorpusFilterConfig",
    "tokenize",
    "load_corpus",
    "save_corpus",
    "atomic_write",
    "read_jsonl",
    "read_keyed_jsonl",
    "read_text",
    "dump_jsonl",
    "record_from_json",
    "record_to_json",
    "filter_corpus",
    "load_embeddings",
]

# A decimal number survives as one token; otherwise . , : ; / split off.
_TOKEN_RE = re.compile(r"\d+(?:\.\d+)+|[^\s.,:;/]+|[.,:;/]")


def tokenize(text: str) -> list[str]:
    """Lowercase ``text`` and split it into tokens.

    Whitespace separates tokens, and the punctuation marks . , : ; / become
    tokens of their own.  A period between digits ("1.9") does not split, so
    decimal measurements stay intact.
    """
    return _TOKEN_RE.findall(text.lower())


class EntityLabel(Enum):
    """Closed label set for report entities; unknown strings are rejected."""

    ANAT_DP = "ANAT-DP"
    OBS_DP = "OBS-DP"
    OBS_DA = "OBS-DA"
    OBS_U = "OBS-U"

    @classmethod
    def parse(cls, raw: str) -> "EntityLabel":
        try:
            return cls(raw)
        except ValueError:
            raise ValidationError(f"unknown entity label {raw!r}") from None


@dataclass(frozen=True)
class EntityAnnotation:
    """One annotated entity: surface text plus an inclusive token span."""

    tokens: str
    label: EntityLabel
    start_ix: int
    end_ix: int

    def __post_init__(self):
        if self.start_ix < 0:
            raise ValidationError(f"entity {self.tokens!r}: start_ix {self.start_ix} is negative")
        if self.end_ix < self.start_ix:
            raise ValidationError(
                f"entity {self.tokens!r}: end_ix {self.end_ix} precedes start_ix {self.start_ix}"
            )
        n_text = len(self.tokens.split())
        if self.span_len != n_text:
            raise ValidationError(
                f"entity {self.tokens!r}: span covers {self.span_len} tokens "
                f"but the text has {n_text}"
            )

    @property
    def span_len(self) -> int:
        return self.end_ix - self.start_ix + 1

    def overlaps(self, other: "EntityAnnotation") -> bool:
        return self.start_ix <= other.end_ix and other.start_ix <= self.end_ix


@dataclass(frozen=True)
class ReportDocument:
    """A findings section with its tokenization and sentence boundaries."""

    study_id: str
    text: str
    tokens: tuple[str, ...]
    sentence_ends: tuple[int, ...]

    def __post_init__(self):
        if list(self.tokens) != tokenize(self.text):
            raise ValidationError(f"report {self.study_id!r}: tokens do not match its text")
        expected = tuple(i for i, tok in enumerate(self.tokens) if tok == ".")
        if self.sentence_ends != expected:
            raise ValidationError(
                f"report {self.study_id!r}: sentence_ends {self.sentence_ends} do not "
                f"mark the '.' tokens {expected}"
            )

    @classmethod
    def from_text(cls, study_id: str, text: str) -> "ReportDocument":
        toks = tuple(tokenize(text))
        ends = tuple(i for i, tok in enumerate(toks) if tok == ".")
        return cls(study_id=study_id, text=text, tokens=toks, sentence_ends=ends)


@dataclass(frozen=True)
class StudyRecord:
    """One study: findings report, entities, and optional side data."""

    study_id: str
    report: ReportDocument
    entities: tuple[EntityAnnotation, ...]
    indication: str | None = None
    labels14: tuple[int, ...] | None = None

    def __post_init__(self):
        n = len(self.report.tokens)
        for ent in self.entities:
            if ent.end_ix >= n:
                raise ValidationError(
                    f"study {self.study_id!r}: entity {ent.tokens!r} span "
                    f"[{ent.start_ix}, {ent.end_ix}] exceeds the {n}-token report"
                )
        if self.labels14 is not None:
            if len(self.labels14) != 14:
                raise ValidationError(
                    f"study {self.study_id!r}: labels14 has {len(self.labels14)} entries, expected 14"
                )
            if any(v not in (0, 1) for v in self.labels14):
                raise ValidationError(f"study {self.study_id!r}: labels14 entries must be 0 or 1")


@dataclass(frozen=True)
class CorpusFilterConfig:
    """Rules for dropping empty or junk reports."""

    min_tokens: int = 3
    junk_patterns: tuple[str, ...] = ()

    def __post_init__(self):
        check_at_least(0, min_tokens=self.min_tokens)
        if any(not p for p in self.junk_patterns):
            raise ValidationError("junk_patterns must be non-empty strings")


def _number(convert, value, what: str):
    """``convert(value)``; a value it rejects raises ValidationError naming ``what``."""
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{what} must be numeric, got {value!r}") from None


def _string(value, what: str) -> str:
    """``value`` if it is a JSON string; anything else raises ValidationError naming ``what``."""
    if not isinstance(value, str):
        raise ValidationError(f"{what} must be a string, got {value!r}")
    return value


def _numbers(convert, values, what: str) -> tuple:
    """The JSON list ``values`` with ``convert`` applied to each item.

    Anything but a list, or an item ``convert`` rejects, raises
    ValidationError naming ``what``.
    """
    if isinstance(values, list):
        try:
            return tuple(map(convert, values))
        except (TypeError, ValueError):
            pass
    raise ValidationError(f"{what} must be a list of numbers")


def record_from_json(obj: dict) -> StudyRecord:
    """Build a validated StudyRecord from one parsed corpus JSON object."""
    if not isinstance(obj, dict):
        raise ValidationError("record is not a JSON object")
    for key in ("study_id", "findings"):
        if key not in obj:
            raise ValidationError(f"missing field {key!r}")
    study_id = str(obj["study_id"])
    report = ReportDocument.from_text(study_id, _string(obj["findings"], "field 'findings'"))
    entities = []
    raw_entities = obj.get("entities") or []
    if not isinstance(raw_entities, list):
        raise ValidationError("field 'entities' must be a list")
    for ent in raw_entities:
        if not isinstance(ent, dict):
            raise ValidationError(f"entity {ent!r} is not a JSON object")
        for key in ("tokens", "label", "start_ix", "end_ix"):
            if key not in ent:
                raise ValidationError(f"entity missing field {key!r}")
        entities.append(
            EntityAnnotation(
                tokens=_string(ent["tokens"], "entity field 'tokens'"),
                label=EntityLabel.parse(_string(ent["label"], "entity field 'label'")),
                start_ix=_number(int, ent["start_ix"], "entity field 'start_ix'"),
                end_ix=_number(int, ent["end_ix"], "entity field 'end_ix'"),
            )
        )
    indication = obj.get("indication")
    if indication is not None:
        indication = _string(indication, "field 'indication'")
    labels14 = obj.get("labels14")
    if labels14 is not None:
        labels14 = _numbers(int, labels14, "field 'labels14'")
    return StudyRecord(
        study_id=study_id,
        report=report,
        entities=tuple(entities),
        indication=indication,
        labels14=labels14,
    )


def record_to_json(record: StudyRecord) -> dict:
    """Serialize a record back to the corpus JSONL schema."""
    return {
        "study_id": record.study_id,
        "findings": record.report.text,
        "indication": record.indication,
        "entities": [
            {
                "tokens": ent.tokens,
                "label": ent.label.value,
                "start_ix": ent.start_ix,
                "end_ix": ent.end_ix,
            }
            for ent in record.entities
        ],
        "labels14": list(record.labels14) if record.labels14 is not None else None,
    }


@contextmanager
def atomic_write(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """Open a temporary file beside ``path``; on a clean exit it replaces ``path``.

    The data is flushed to disk before ``os.replace`` swaps it in.  If the
    body raises, the temporary file is removed and ``path`` keeps its old
    content.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb" if binary else "w", encoding=None if binary else "utf-8") as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_text(path: str | Path) -> str:
    """The UTF-8 text of ``path``; an invalid byte raises CorpusError naming its line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise CorpusError(f"{path}: line {lineno}: invalid UTF-8") from None


def read_jsonl(path: str | Path) -> Iterator[tuple[int, object]]:
    """Yield ``(line number, parsed object)`` per non-blank line; bad UTF-8 or JSON names the line."""
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, 1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError:
                raise CorpusError(f"{path}: line {lineno}: invalid UTF-8") from None
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{path}: line {lineno}: invalid JSON ({exc.msg})") from None
            yield lineno, obj


def read_keyed_jsonl(path: str | Path, field: str, convert: Callable) -> dict[str, object]:
    """Map study_id to ``convert(row[field])`` over a JSONL file that lists each id once.

    A row that is not an object with both fields, repeats an id, or holds a
    field ``convert`` rejects with ValidationError raises CorpusError naming
    its line.
    """
    out = {}
    for lineno, row in read_jsonl(path):
        if not isinstance(row, dict) or "study_id" not in row or field not in row:
            raise CorpusError(f"{path}: line {lineno}: expected fields 'study_id' and {field!r}")
        sid = str(row["study_id"])
        if sid in out:
            raise CorpusError(f"{path}: line {lineno}: duplicate study_id {sid!r}")
        try:
            out[sid] = convert(row[field])
        except ValidationError as exc:
            raise CorpusError(f"{path}: line {lineno}: {exc}") from None
    return out


def dump_jsonl(path: str | Path, objects: Iterable[dict]) -> None:
    """Write one sorted-key JSON object per line, atomically."""
    with atomic_write(path) as handle:
        for obj in objects:
            handle.write(json.dumps(obj, sort_keys=True) + "\n")


def load_corpus(path: str | Path) -> list[StudyRecord]:
    """Read a corpus JSONL file; errors name the offending line."""
    records = []
    for lineno, obj in read_jsonl(path):
        try:
            records.append(record_from_json(obj))
        except ValidationError as exc:
            raise CorpusError(f"{path}: line {lineno}: {exc}") from None
    return records


def save_corpus(records: Iterable[StudyRecord], path: str | Path) -> None:
    """Write records as corpus JSONL (deterministic key order)."""
    dump_jsonl(path, map(record_to_json, records))


def load_embeddings(path: str | Path) -> EmbeddingIndex:
    """Read an embeddings JSONL file into an unnormalized ``EmbeddingIndex``.

    Row i of its float64 matrix is the file's i-th vector, each value the
    ``float`` of its JSON number.  All vectors must share one dimension and
    hold finite values; duplicates are rejected.
    """
    from .retrieval import EmbeddingIndex  # retrieval imports this module

    matrix = np.empty((0, 0))
    n = 0

    def row(raw) -> int:
        nonlocal matrix, n
        vec = _numbers(float, raw, "field 'vec'")
        if not all(map(math.isfinite, vec)):
            raise ValidationError("field 'vec' holds a NaN or infinite value")
        if n == 0:
            matrix = np.empty((1024, len(vec)))
        elif len(vec) != matrix.shape[1]:
            raise ValidationError(f"vector of length {len(vec)} but corpus dimension is {matrix.shape[1]}")
        if n == len(matrix):
            matrix.resize((2 * n, matrix.shape[1]), refcheck=False)  # no view of it exists yet
        matrix[n] = vec
        n += 1
        return n - 1

    ids = tuple(read_keyed_jsonl(path, "vec", row))
    matrix.resize((n, matrix.shape[1]), refcheck=False)
    return EmbeddingIndex(dim=matrix.shape[1], ids=ids, matrix=matrix, normalized=False)


def filter_corpus(
    records: Iterable[StudyRecord], cfg: CorpusFilterConfig
) -> tuple[list[StudyRecord], list[tuple[StudyRecord, str]]]:
    """Split records into (kept, dropped-with-reason), preserving order.

    A record is dropped iff its findings text is empty or whitespace, has
    fewer than ``min_tokens`` tokens, or contains a junk pattern
    (case-insensitive substring match).
    """
    patterns = [p.lower() for p in cfg.junk_patterns]
    kept: list[StudyRecord] = []
    dropped: list[tuple[StudyRecord, str]] = []
    for rec in records:
        reason = None
        if not rec.report.text.strip():
            reason = "empty"
        elif len(rec.report.tokens) < cfg.min_tokens:
            reason = "too_short"
        else:
            low = rec.report.text.lower()
            for pattern in patterns:
                if pattern in low:
                    reason = f"junk:{pattern}"
                    break
        if reason is None:
            kept.append(rec)
        else:
            dropped.append((rec, reason))
    return kept, dropped
