"""Canonical corpus model: entity-annotated studies, JSONL ingestion, filtering.

Every other module consumes the immutable record types defined here (a
``ReportDocument`` holds text, tokens and sentence ends; the id is its
``StudyRecord``'s) and shares one tokenization convention, so entity spans,
sentence boundaries, report truncation, and n-gram metrics agree on tokens.

Corpus files are JSONL, one study per line:

    {"study_id": id, "findings": string, "indication": string|null,
     "entities": [{"tokens": string, "label": "ANAT-DP|OBS-DP|OBS-DA|OBS-U",
                   "start_ix": integer, "end_ix": integer}]|null,
     "labels14": [integer 0/1 x14]|null}

Every reader takes a field's value only if it is of the JSON kind named
above, by one rule (``_JSON_KINDS``): an integer is a JSON integer, a number
is an integer or a float, and ``true``/``false`` is neither; a numeric
string is a string.  An id is a JSON string, or an integer read as its
decimal string; ``null``, a bool, a fraction, a list or an object is not an
id, nor is a string with a lone surrogate (JSON ``"\\ud800"``), which the
index file's UTF-8 cannot hold.  Every JSONL file keyed by study_id, the
corpus included, lists each id once, and an error names its file and line.

Every file the toolkit writes goes through ``atomic_write``, so an
interrupted write leaves the previous file, never a truncated one.
"""

from __future__ import annotations

import json
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator

from .errors import CorpusError, ValidationError, check_at_least, check_labels14, check_non_blank

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
        n_text = len(tokenize(self.tokens))
        if self.span_len != n_text:
            raise ValidationError(
                f"entity {self.tokens!r}: span covers {self.span_len} tokens "
                f"but the text has {n_text}"
            )

    @property
    def span_len(self) -> int:
        return self.end_ix - self.start_ix + 1


@dataclass(frozen=True)
class ReportDocument:
    """A findings section with its tokenization and sentence boundaries.

    Both are derived from ``text`` when the document is made, so they always
    agree with it.
    """

    text: str
    tokens: tuple[str, ...] = field(init=False)
    sentence_ends: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        tokens = tuple(tokenize(self.text))
        object.__setattr__(self, "tokens", tokens)  # the dataclass is frozen once made
        object.__setattr__(self, "sentence_ends", tuple(i for i, tok in enumerate(tokens) if tok == "."))


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
            check_labels14(self.labels14, f"study {self.study_id!r}: labels14")


@dataclass(frozen=True)
class CorpusFilterConfig:
    """Rules for dropping empty or junk reports."""

    min_tokens: int = 3
    junk_patterns: tuple[str, ...] = ()

    def __post_init__(self):
        check_at_least(0, min_tokens=self.min_tokens)
        check_non_blank(junk_patterns=self.junk_patterns)


# The Python types ``json.loads`` gives for each kind of field value, keyed by the
# type the field is read as ("study_id" for an id), and how an error names the kind.
# A bool is never a number, and an integer is the only non-string a study_id may be.
_JSON_KINDS = {
    str: (frozenset((str,)), "a string"),
    int: (frozenset((int,)), "an integer"),
    float: (frozenset((int, float)), "a number"),
    bool: (frozenset((bool,)), "true or false"),
    "study_id": (frozenset((str, int)), "a string or an integer"),
}


def _json_value(value, kind, what: str):
    """``value`` if it is a JSON value of ``kind``; anything else raises ValidationError naming ``what``."""
    types, described = _JSON_KINDS[kind]
    if type(value) in types:
        return value
    raise ValidationError(f"{what} must be {described}, got {value!r}")


def _json_list(values, kind, what: str) -> list:
    """``values`` if it is a JSON list of ``kind`` items; anything else raises ValidationError naming ``what``."""
    types, described = _JSON_KINDS[kind]
    if type(values) is not list or not types.issuperset(map(type, values)):
        raise ValidationError(f"{what} must be a list, each item {described}")
    return values


def _study_id(value) -> str:
    """A JSON study_id as a string: a string as it is, an integer as its decimal string; never a lone surrogate."""
    sid = str(_json_value(value, "study_id", "field 'study_id'"))
    if not sid.isascii() and any("\ud800" <= ch <= "\udfff" for ch in sid):
        raise ValidationError(f"field 'study_id' {sid!r} holds a lone surrogate, which UTF-8 cannot encode")
    return sid


def _entity_tokens_label(ent) -> tuple[str, EntityLabel]:
    """The ``tokens`` string and the parsed ``label`` of one entity JSON object."""
    if not isinstance(ent, dict) or "tokens" not in ent or "label" not in ent:
        raise ValidationError(f"entity {ent!r} is not an object with fields 'tokens' and 'label'")
    tokens = _json_value(ent["tokens"], str, "entity field 'tokens'")
    return tokens, EntityLabel.parse(_json_value(ent["label"], str, "entity field 'label'"))


def _entity(ent) -> EntityAnnotation:
    """The EntityAnnotation of one corpus entity JSON object."""
    tokens, label = _entity_tokens_label(ent)
    if "start_ix" not in ent or "end_ix" not in ent:
        raise ValidationError(f"entity {tokens!r} lacks the field 'start_ix' or 'end_ix'")
    start_ix = _json_value(ent["start_ix"], int, "entity field 'start_ix'")
    return EntityAnnotation(tokens, label, start_ix, _json_value(ent["end_ix"], int, "entity field 'end_ix'"))


def record_from_json(obj: dict) -> StudyRecord:
    """Build a validated StudyRecord from one parsed corpus JSON object."""
    if not isinstance(obj, dict):
        raise ValidationError("record is not a JSON object")
    for key in ("study_id", "findings"):
        if key not in obj:
            raise ValidationError(f"missing field {key!r}")
    study_id = _study_id(obj["study_id"])
    entities = obj.get("entities")
    if entities is not None and not isinstance(entities, list):
        raise ValidationError("field 'entities' must be a list")
    indication, labels14 = obj.get("indication"), obj.get("labels14")
    return StudyRecord(
        study_id=study_id,
        report=ReportDocument(_json_value(obj["findings"], str, "field 'findings'")),
        entities=tuple(map(_entity, entities or ())),
        indication=None if indication is None else _json_value(indication, str, "field 'indication'"),
        labels14=None if labels14 is None else tuple(_json_list(labels14, int, "field 'labels14'")),
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
    content.  A process killed without unwinding (SIGKILL, or SIGTERM, which
    Python does not catch) can leave ``.<name>.<pid>.tmp`` behind.  Such a
    file is inert: no reader opens it and no manifest lists it.  Nothing
    sweeps it, since a sweep could remove a file another process is writing.
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
            except (ValueError, RecursionError) as exc:
                raise _json_error(exc, path, lineno) from None
            yield lineno, obj


def _read_json(path: str | Path) -> dict:
    """Read a JSON object from ``path``; bad UTF-8 or JSON names the file, and the line where known."""
    try:
        raw = json.loads(read_text(path))
    except (ValueError, RecursionError) as exc:
        raise _json_error(exc, path) from None
    if not isinstance(raw, dict):
        raise CorpusError(f"{path}: expected a JSON object")
    return raw


def _json_error(exc: ValueError | RecursionError, path: str | Path, lineno: int | None = None) -> CorpusError:
    """The CorpusError naming ``path``, and the line where known, for what ``json.loads`` raised: a syntax
    error, an integer literal past Python's digit limit (a ValueError) or nesting past the recursion limit."""
    if isinstance(exc, json.JSONDecodeError):
        lineno, reason = lineno or exc.lineno, exc.msg
    else:
        reason = "nested too deeply" if isinstance(exc, RecursionError) else "an integer literal has too many digits"
    return CorpusError(f"{path}: {f'line {lineno}: ' if lineno else ''}invalid JSON ({reason})")


def read_keyed_jsonl(path: str | Path, field: str | None, convert: Callable) -> dict[str, object]:
    """Map study_id to ``convert(row[field])`` over a JSONL file that lists each id once.

    With ``field`` None it maps each id to ``convert(row)``, the whole row.
    A study_id is a JSON string, or an integer read as its decimal string.  A
    row that is not an object with the fields, whose id is of another kind or
    repeats an earlier one, or that ``convert`` rejects with ValidationError
    raises CorpusError naming its line.
    """
    needed = "'study_id'" if field is None else f"'study_id' and {field!r}"
    out = {}
    for lineno, row in read_jsonl(path):
        try:
            if not isinstance(row, dict) or "study_id" not in row or field is not None and field not in row:
                raise ValidationError(f"expected an object with {needed}")
            sid = _study_id(row["study_id"])
            if sid in out:
                raise ValidationError(f"duplicate study_id {sid!r}")
            out[sid] = convert(row if field is None else row[field])
        except ValidationError as exc:
            raise CorpusError(f"{path}: line {lineno}: {exc}") from None
    return out


_SORTED_JSON = json.JSONEncoder(sort_keys=True)  # json.dumps(obj, sort_keys=True) without a new encoder per call


def dump_jsonl(path: str | Path, objects: Iterable[dict]) -> None:
    """Write one sorted-key JSON object per line, atomically."""
    encode = _SORTED_JSON.encode
    with atomic_write(path) as handle:
        for obj in objects:
            handle.write(encode(obj) + "\n")


def load_corpus(path: str | Path) -> list[StudyRecord]:
    """Read a corpus JSONL file; errors, a repeated study_id among them, name the line."""
    return list(read_keyed_jsonl(path, None, record_from_json).values())


def save_corpus(records: Iterable[StudyRecord], path: str | Path) -> None:
    """Write records as corpus JSONL (deterministic key order)."""
    dump_jsonl(path, map(record_to_json, records))


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
