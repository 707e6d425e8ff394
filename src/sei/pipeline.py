"""Pipeline orchestration: configuration, the stage table, run manifests.

The seven stages are declared once, in ``STAGES``, in the order they run:

    filter -> see-extract -> normalize -> index -> attach-shc -> fuse-demo -> score

Each entry names the stage's artifact under ``paths.out_dir``, what the
stage takes and its function.  A stage function ``fn(cfg, out, *taken)``
replaces its artifact at ``out`` atomically and returns the stage's result.
A stage takes earlier stages' results by stage name, and work on the input
files by three more names: ``"corpus"`` (``paths.corpus`` parsed),
``"embeddings"`` (``paths.embeddings`` parsed) and ``"scores"``
(``score_from_files(cfg, records, path)``: the ``paths.generated*`` files
scored against the filter stage's records, read from ``path``).  The
index stage's result is ``index.bin`` read back with ``load_index``, so
attach-shc scores against the float32 values the file holds.

The table runs two ways, and both write the same bytes:

* ``run_pipeline`` runs every stage and hands each result forward in memory,
  dropping it after the last stage that takes it.  It parses
  ``paths.corpus`` and ``paths.embeddings`` once each, and writes
  ``run_manifest.json``: the input and artifact hashes plus the effective
  configuration.  Every artifact is rewritten on each run, so deleting an
  intermediate and rerunning regenerates it.  Before the first stage, the
  manifest is replaced by one with status ``running``; on any exception,
  KeyboardInterrupt and MemoryError included, by one with status ``failed``
  that names ``failed_stage`` and the ``cause``: a StageError's text, or
  else the exception's type name and message.  So a manifest reads ``ok``
  only over the artifacts of the run that wrote it.  A run killed without
  unwinding can leave ``atomic_write``'s ``.<name>.<pid>.tmp`` files in
  ``paths.out_dir``; they are inert, the manifest never lists them, and no
  run sweeps them.
* ``run_stage`` runs one stage and reads each earlier result back from its
  artifact: ``filtered.jsonl`` and ``normalized.jsonl`` with
  ``load_corpus``, ``sequences.jsonl`` with ``_read_id_map`` and
  ``index.bin`` with ``load_index``.  It parses ``paths.embeddings`` and the
  generated-side files in this process.  A missing earlier artifact raises
  the OSError of opening it, which names its path.  Once its inputs are
  read, and before its artifact is replaced, ``run_stage`` deletes
  ``run_manifest.json``: a manifest vouches for the bytes of one
  ``run_pipeline``, and a stage run alone changes them.

Runs are deterministic (C8): identical inputs and config reproduce
byte-identical artifacts on one machine.  Across machines, six artifacts
keep their bytes: ``filtered.jsonl``, ``sequences.jsonl``,
``normalized.jsonl``, ``index.bin``, ``shc.jsonl`` (its scores are sums
numpy takes in a fixed order, see ``sei.retrieval``) and ``scores.json``.
Only ``fusion.json`` follows the numeric environment: it changes with
numpy's SIMD dispatch (``np.exp`` changes bits with it) and with OpenBLAS's
kernel.  ``run_manifest.json`` hashes it, so it follows
``fusion.json``.  ``tests/test_portable_bytes.py`` pins this under
``NPY_DISABLE_CPU_FEATURES``, ``OPENBLAS_CORETYPE`` and two OpenBLAS threads.

Two pieces of ``run_pipeline``'s work depend on nothing the stages before
them produce, so each runs in a forked child process (``_Forked``) while
this process works through the stages in between:

* the embeddings parse, started right after the input checks;
* ``score_from_files(cfg, kept, paths.corpus)`` over the filter stage's kept
  records, started as soon as the filter stage has written them.

Fork, not spawn: the child starts with the records already in its memory, so
nothing but the result is pickled.  The stage that needs a child's result
waits for it there (``index`` for the parse, ``score`` for the scores), so a
child's error surfaces at that stage, in stage order, as it would
in-process; a child that dies without a result fails that stage with a
ChildProcessError (exit 3).  When any stage fails, the children still running
are killed and reaped before ``run_pipeline`` returns.  Where a fork is not
safe or not possible (another Python thread is running, this process is
daemonic, or the fork fails), the work runs in this process at the stage
that needs it, with the same result.  Threads Python does not see, such as
OpenBLAS's workers, are not counted: OpenBLAS stops them at a fork.  Python
3.12 and later may still warn about them at ``os.fork``, with a
DeprecationWarning that is hidden by default.

A run is configured by one JSON file and nothing else.  Its keys are
declared once, as dataclasses that mirror the file's sections, each with its
default and its checks.  ``load_config`` parses and ``PipelineConfig.echo``
renders the file from their fields, so a bad key or value fails by name
before any stage runs.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import sys
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from types import UnionType
from typing import Callable, get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .corpus import (
    CorpusFilterConfig,
    EntityLabel,
    StudyRecord,
    _entity_tokens_label,
    _json_value,
    _read_json,
    atomic_write,
    dump_jsonl,
    filter_corpus,
    load_corpus,
    read_keyed_jsonl,
    read_text,
    save_corpus,
    tokenize,
)
from .errors import (
    CorpusError,
    StageError,
    ToolkitError,
    ValidationError,
    check_addressable,
    check_at_least,
    check_labels14,
)
from .fusion import ROUTES, FeatureSet, _check_heads, fuse, fuse_backward, fusion_objective, init_params
from .gradcheck import max_fd_error
from .indications import NormalizerConfig, normalize_indication
from .losses import AlignmentBatch
from .metrics import M_GT_CHOICES, EvalPair, score_settings
from .retrieval import EmbeddingIndex, attach_shc, index_from_vectors, load_embeddings, load_index, save_index
from .see import see_extract

__all__ = [
    "PipelineConfig",
    "PathsConfig",
    "FusionConfig",
    "load_config",
    "run_pipeline",
    "fuse_demo_result",
    "parse_m_gt",
    "m_gt_key",
    "read_generated",
    "read_label_csv",
    "read_entity_sets",
    "score_from_files",
    "sha256_file",
    "run_stage",
    "STAGES",
    "STAGE_ORDER",
]

def parse_m_gt(value) -> float:
    """Accept 60/80/90/100 (int or str) or "cpl"/infinity for complete references."""
    if isinstance(value, str) and value.lower() in ("cpl", "inf", "complete"):
        return math.inf
    if value == math.inf:
        return math.inf
    if isinstance(value, float) and not value.is_integer():
        raise ValidationError(f"m_gt must be a whole number, got {value!r}")
    try:
        ivalue = int(value)
    except (TypeError, ValueError):
        raise ValidationError(f"invalid m_gt value {value!r}") from None
    check_at_least(0, m_gt=ivalue)
    return float(ivalue)


def m_gt_key(m_gt: float) -> str:
    return "cpl" if m_gt == math.inf else str(int(m_gt))


# ---------------------------------------------------------------------------
# Configuration: one declaration, parsed and echoed from its fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PathsConfig:
    """Input files and the output directory (the ``paths`` section)."""

    corpus: Path
    embeddings: Path
    out_dir: Path
    generated: Path | None = None
    generated_labels: Path | None = None
    generated_entities: Path | None = None


@dataclass(frozen=True)
class FusionConfig:
    """Sizes for the fuse-demo stage (the ``fusion`` section)."""

    d: int = 8
    heads: int = 2
    si: int = 4
    sh: int = 6
    sn: int = 3

    def __post_init__(self):
        check_at_least(1, si=self.si)
        check_at_least(0, sh=self.sh, sn=self.sn)
        check_at_least(1, d=self.d)
        _check_heads(self.d, self.heads)
        d = self.d
        check_addressable(image=(self.si, d), shc=(self.sh, d), indication=(self.sn, d), ff1=(d, 4 * d))


@dataclass
class PipelineConfig:
    """Configuration for one run: the JSON file ``load_config`` reads, and nothing else.

    Each field is one key of the file; a dataclass-typed field is a section
    whose own fields are its keys.  A scalar key takes the JSON kind
    ``corpus._JSON_KINDS`` gives its type (a path is a string, a float is
    finite), and each section checks its values as it is built.  ``tau`` is
    read by no stage (``sei align-demo`` takes its own ``--tau``), yet still
    parsed, validated and echoed into ``run_manifest.json``:
    ``perfbench/inputs.py`` writes it, so it stays while perfbench does.
    """

    paths: PathsConfig
    k: int = 1
    m_gt: tuple[float, ...] = field(
        default=(math.inf,), metadata={"parse_item": parse_m_gt, "echo_item": m_gt_key}
    )
    filter: CorpusFilterConfig = field(default_factory=CorpusFilterConfig)
    normalizer: NormalizerConfig = field(default_factory=NormalizerConfig)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    tau: float = AlignmentBatch.temperature
    seed: int = 7
    index_normalize: bool = True

    def __post_init__(self):
        check_at_least(0, k=self.k, seed=self.seed)
        if not self.m_gt:
            raise ValidationError("m_gt must list at least one setting")
        for value in self.m_gt:
            if value not in M_GT_CHOICES:
                *rest, last = map(m_gt_key, M_GT_CHOICES)
                raise ValidationError(f"m_gt must be one of {', '.join(rest)}, or {last}; got {value}")

    def echo(self) -> dict:
        """JSON-able snapshot of the effective configuration for the manifest."""
        return _echo(self)


def _parse_config(cls, raw, prefix: str = ""):
    """Build dataclass ``cls`` from a JSON object, converting each field by its type.

    A missing key takes the field's default; an unknown key, a missing
    required key or a value of the wrong JSON type raises ValidationError
    naming the dotted key, and a value the section's own checks reject one
    naming the section.
    """
    if not isinstance(raw, dict):
        raise ValidationError(f"config section {prefix.rstrip('.')!r} must be a JSON object")
    declared = {f.name: f for f in fields(cls)}
    for key in raw:
        if key not in declared:
            raise ValidationError(f"unknown config key {prefix + key!r}")
    hints = get_type_hints(cls)
    kwargs = {}
    for name, f in declared.items():
        if name in raw:
            kwargs[name] = _convert(hints[name], raw[name], prefix + name, f.metadata)
        elif is_dataclass(hints[name]):
            kwargs[name] = _parse_config(hints[name], {}, prefix + name + ".")
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ValidationError(f"config is missing required key {prefix + name!r}")
    try:
        return cls(**kwargs)
    except ValidationError as exc:
        if not prefix:
            raise
        raise ValidationError(f"config section {prefix.rstrip('.')!r}: {exc}") from None


def _convert(tp, value, key: str, metadata):
    if is_dataclass(tp):
        return _parse_config(tp, value, key + ".")
    if get_origin(tp) is UnionType:  # "X | None"
        if value is None:
            return None
        (tp,) = [arg for arg in get_args(tp) if arg is not type(None)]
    if get_origin(tp) in (tuple, frozenset):
        if not isinstance(value, list):
            raise ValidationError(f"config key {key!r} must be a list, got {value!r}")
        item = metadata.get("parse_item") or (lambda v: _convert(get_args(tp)[0], v, key, {}))
        return get_origin(tp)(item(v) for v in value)
    value = _json_value(value, str if tp is Path else tp, f"config key {key!r}")
    if tp is Path and "\0" in value:  # no file system takes one; open and mkdir would raise ValueError
        raise ValidationError(f"config key {key!r} must not contain a NUL character")
    # not NaN, ±Infinity or an integer past float range
    if tp is float and not abs(value) <= sys.float_info.max:
        raise ValidationError(f"config key {key!r} must be a finite number, got {value!r}")
    return tp(value)


def _echo(value, echo_item=None):
    if is_dataclass(value):
        return {f.name: _echo(getattr(value, f.name), f.metadata.get("echo_item")) for f in fields(value)}
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, tuple):
        return [echo_item(v) if echo_item else _echo(v) for v in value]
    if isinstance(value, Path):
        return str(value)
    return value


def load_config(path: str | Path) -> PipelineConfig:
    """Build the PipelineConfig the JSON file at ``path`` declares; every key is checked as it is read."""
    return _parse_config(PipelineConfig, _read_json(path))


_HASH_CHUNK_BYTES = 1 << 20


def sha256_file(path: Path) -> str:
    """The hex sha256 of the file at ``path``, read ``_HASH_CHUNK_BYTES`` bytes at a time."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while chunk := handle.read(_HASH_CHUNK_BYTES):
            digest.update(chunk)
    return digest.hexdigest()


def _dump_json(path: str | Path, obj: dict) -> None:
    with atomic_write(path) as handle:
        handle.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _read_id_map(path: str | Path, field_name: str) -> dict[str, str]:
    """Map study_id to the string ``field_name`` over a JSONL file that lists each id once."""
    return read_keyed_jsonl(path, field_name, lambda value: _json_value(value, str, f"field {field_name!r}"))


def fuse_demo_result(fusion: FusionConfig, seed: int, with_shc: bool, with_indication: bool) -> dict:
    """Run the fusion network on seeded random features and spot-check gradients.

    Returns the branch taken, a checksum of the fused output, and the largest
    relative error between analytic and finite-difference gradients over one
    sampled entry of every weight array in the layers the branch uses.
    """
    d = fusion.d
    rng = np.random.default_rng(seed)
    params = init_params(d, fusion.heads, seed)
    features = FeatureSet(
        image=rng.standard_normal((fusion.si, d)),
        shc=rng.standard_normal((fusion.sh, d)) if with_shc else None,
        indication=rng.standard_normal((fusion.sn, d)) if with_indication else None,
    )
    output = fuse(features, params)
    upstream = rng.standard_normal(output.fused.shape)
    grads = fuse_backward(features, params, upstream).layers()
    pairs = (
        (array, grads[layer].arrays()[name])
        for layer, _, _ in ROUTES[output.branch_taken]
        for name, array in params.layers()[layer].arrays().items()
    )
    max_err, checked = max_fd_error(lambda: fusion_objective(features, params, upstream), pairs, rng, 1)
    checksum = hashlib.sha256(np.ascontiguousarray(output.fused).tobytes()).hexdigest()
    return {
        "branch": output.branch_taken,
        "checksum": checksum,
        "output_sum": float(output.fused.sum()),
        "max_fd_rel_error": max_err,
        "gradients_checked": checked,
        "d": d,
        "n_heads": fusion.heads,
        "seed": seed,
    }


def read_generated(path: Path) -> dict[str, str]:
    """Read generated reports: JSONL of {"study_id", "text"}."""
    return _read_id_map(path, "text")


_LABEL_INTS = {"0": 0, "1": 1}  # any other cell stays a string, which check_labels14 rejects


def read_label_csv(path: Path) -> dict[str, tuple[int, ...]]:
    """Read a label CSV with header study_id,l1..l14."""
    out: dict[str, tuple[int, ...]] = {}
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    header = next(reader, None)
    if not header or header[0] != "study_id" or len(header) != 15:
        raise CorpusError(f"{path}: expected header study_id,l1..l14")
    for lineno, row in enumerate(reader, 2):
        try:
            labels = check_labels14((_LABEL_INTS.get(cell, cell) for cell in row[1:]), "labels14")
        except ValidationError as exc:
            raise CorpusError(f"{path}: line {lineno}: {exc}") from None
        sid = row[0]
        if sid in out:
            raise CorpusError(f"{path}: line {lineno}: duplicate study_id {sid!r}")
        out[sid] = labels
    return out


def _entity_set(entities) -> set[tuple[str, EntityLabel]]:
    """The validated (tokens, label) pairs of one generated-side ``entities`` list."""
    if not isinstance(entities, list):
        raise ValidationError("field 'entities' must be a list")
    return set(map(_entity_tokens_label, entities))


def read_entity_sets(path: Path) -> dict[str, set[tuple[str, EntityLabel]]]:
    """Read generated-side entities: JSONL of {"study_id", "entities": [{"tokens","label"}]}."""
    return read_keyed_jsonl(path, "entities", _entity_set)


def score_from_files(
    cfg: PipelineConfig, reference_records: list[StudyRecord], reference_path: str | Path
) -> dict[str, dict[str, float]]:
    """Score the ``paths.generated*`` files of ``cfg`` against reference records, per ``cfg.m_gt`` setting.

    The reference records, read from ``reference_path``, supply gold labels
    (labels14) and reference entity sets; the generated side supplies text plus
    optional label vectors and entity sets keyed by study_id.  A config without
    ``paths.generated`` raises ValidationError.  Every file is parsed before any
    id is matched, and an id missing from a file, or a generated id the
    reference records lack, raises ValidationError naming that file, and the
    filter's reason if ``cfg.filter`` drops that id from ``paths.corpus``.
    """
    paths = cfg.paths
    generated_path, labels_path, entities_path = paths.generated, paths.generated_labels, paths.generated_entities
    if generated_path is None:
        raise ValidationError("score stage requires paths.generated in the config")
    generated = read_generated(generated_path)
    generated_labels = read_label_csv(labels_path) if labels_path else None
    generated_entities = read_entity_sets(entities_path) if entities_path else None
    by_id = {rec.study_id: rec for rec in reference_records}
    unknown = [sid for sid in generated if sid not in by_id]
    if unknown:
        dropped = filter_corpus(load_corpus(paths.corpus), cfg.filter)[1]
        why = next((why for rec, why in dropped if rec.study_id == unknown[0]), None)
        if why is not None:
            raise ValidationError(
                f"{generated_path}: generated study_id {unknown[0]!r} was dropped by the corpus filter ({why})"
            )
        raise ValidationError(f"{generated_path}: generated study_id {unknown[0]!r} is not in the reference corpus")
    scored = [rec for rec in reference_records if rec.study_id in generated]
    if not scored:
        raise ValidationError(f"{generated_path}: no generated reports match the reference corpus")
    pairs = [
        EvalPair(
            generated=tuple(tokenize(generated[rec.study_id])),
            reference=rec.report.tokens,
        )
        for rec in scored
    ]
    labels = None
    if generated_labels is not None:
        labels = []
        for rec in scored:
            if rec.study_id not in generated_labels:
                raise ValidationError(f"{labels_path}: study {rec.study_id!r} has no generated label vector")
            if rec.labels14 is None:
                raise ValidationError(f"{reference_path}: study {rec.study_id!r} has no gold labels14")
            labels.append((generated_labels[rec.study_id], rec.labels14))
    entities = None
    if generated_entities is not None:
        entities = []
        for rec in scored:
            if rec.study_id not in generated_entities:
                raise ValidationError(f"{entities_path}: study {rec.study_id!r} has no generated entity set")
            entities.append((generated_entities[rec.study_id], [(e.tokens, e.label) for e in rec.entities]))
    scores = score_settings(pairs, labels=labels, entities=entities, m_gt_values=cfg.m_gt)
    return {m_gt_key(m): report for m, report in scores.items()}


# ---------------------------------------------------------------------------
# The stages: fn(cfg, out, *taken) writes one artifact and returns the result
# later stages take
# ---------------------------------------------------------------------------


def _stage_filter(
    cfg: PipelineConfig, out: Path, records: list[StudyRecord], dropped: str | Path | None = None
) -> list[StudyRecord]:
    """Write the records ``cfg.filter`` keeps, and to ``dropped``, if given, the dropped ids with reasons."""
    kept, dropped_records = filter_corpus(records, cfg.filter)
    save_corpus(kept, out)
    if dropped is not None:
        dump_jsonl(dropped, ({"study_id": rec.study_id, "reason": why} for rec, why in dropped_records))
    return kept


def _stage_see(cfg: PipelineConfig, out: Path, records: list[StudyRecord]) -> dict[str, str]:
    """Write one factual sequence per record; returns them keyed by study_id."""
    rows = [{"study_id": rec.study_id, "factual_sequence": see_extract(rec).rendered} for rec in records]
    dump_jsonl(out, rows)
    return {row["study_id"]: row["factual_sequence"] for row in rows}


def _stage_normalize(cfg: PipelineConfig, out: Path, records: list[StudyRecord]) -> list[StudyRecord]:
    """Write the records with normalized indications; returns them."""
    normalized = [
        replace(rec, indication=normalize_indication(rec.indication, cfg.normalizer)) for rec in records
    ]
    save_corpus(normalized, out)
    return normalized


def _stage_index(
    cfg: PipelineConfig, out: Path, records: list[StudyRecord], embeddings: EmbeddingIndex
) -> EmbeddingIndex:
    """Index the records' rows of the raw ``embeddings``, which each record needs; returns the index as saved."""
    rows = []
    for rec in records:
        row = embeddings.row_of(rec.study_id)
        if row is None:
            raise ValidationError(f"study {rec.study_id!r} has no embedding")
        rows.append(row)
    ids = [rec.study_id for rec in records]
    save_index(index_from_vectors(ids, embeddings.matrix[rows], cfg.index_normalize), out)
    return load_index(out)


def _stage_attach(
    cfg: PipelineConfig,
    out: Path,
    records: list[StudyRecord],
    index: EmbeddingIndex,
    embeddings: EmbeddingIndex,
    sequences: dict[str, str],
) -> int:
    """Write the rows ``attach_shc`` gives, each record's top-k similar cases; returns the record count.

    A record's query is its row of the raw ``embeddings``; ``sequences`` maps
    study_id to factual sequence.
    """
    rows = attach_shc([rec.study_id for rec in records], index, cfg.k, embeddings, sequences=sequences)
    dump_jsonl(out, rows)
    return len(rows)


def _stage_fuse_demo(cfg: PipelineConfig, out: Path, records: list[StudyRecord]) -> None:
    """Run the fusion demo on the branch the records, k and the fusion sizes select."""
    has_indication = any(rec.indication for rec in records) and cfg.fusion.sn > 0
    with_shc = cfg.k > 0 and cfg.fusion.sh > 0
    _dump_json(out, fuse_demo_result(cfg.fusion, cfg.seed, with_shc=with_shc, with_indication=has_indication))


def _stage_score(cfg: PipelineConfig, out: Path, scores: dict) -> None:
    """Write the scores, one report per m_gt setting."""
    _dump_json(out, scores)


@dataclass(frozen=True)
class Stage:
    """One row of the stage table: its artifact, what it takes, its function.

    ``read`` reads the stage's result back from its artifact, for a later
    stage that ``run_stage`` runs alone; a stage whose result no stage takes
    has none.
    """

    artifact: str
    takes: tuple[str, ...]
    fn: Callable[..., object]
    read: Callable[[Path], object] | None = None


# The readers are looked up when called, so a reader patched on this module is the one a stage uses.
STAGES = {
    "filter": Stage("filtered.jsonl", ("corpus",), _stage_filter, lambda path: load_corpus(path)),
    "see-extract": Stage(
        "sequences.jsonl", ("filter",), _stage_see, lambda path: _read_id_map(path, "factual_sequence")
    ),
    "normalize": Stage("normalized.jsonl", ("filter",), _stage_normalize, lambda path: load_corpus(path)),
    "index": Stage("index.bin", ("normalize", "embeddings"), _stage_index, lambda path: load_index(path)),
    "attach-shc": Stage("shc.jsonl", ("normalize", "index", "embeddings", "see-extract"), _stage_attach),
    "fuse-demo": Stage("fusion.json", ("normalize",), _stage_fuse_demo),
    "score": Stage("scores.json", ("scores",), _stage_score),
}
STAGE_ORDER = tuple(STAGES)


def _taker(cfg: PipelineConfig, done: dict, children: dict[str, _Forked]) -> Callable[[str], object]:
    """``take(name)``: what a stage takes by ``name``, from ``done``, ``children`` or the files.

    A result in ``done`` is handed over as it is; a forked child's result is
    moved into ``done`` first.  Anything else is read from the files: the
    input files for ``"corpus"``, ``"embeddings"`` and ``"scores"``, and a
    stage's artifact for its result.
    """
    paths = cfg.paths

    def take(name: str):
        if name in children:
            done[name] = children.pop(name).result()
        if name in done:
            return done[name]
        if name == "corpus":
            return load_corpus(paths.corpus)
        if name == "embeddings":
            return load_embeddings(paths.embeddings)
        if name == "scores":
            return score_from_files(cfg, take("filter"), paths.out_dir / STAGES["filter"].artifact)
        return STAGES[name].read(paths.out_dir / STAGES[name].artifact)

    return take


class _Forked:
    """``fn(*args)`` run in a forked child process; ``result`` waits for it.

    The child sends what ``fn`` returned, or the exception it raised, down a
    ``multiprocessing`` pipe.  A fork copies only the thread that calls it, so
    while another Python thread runs here, in a daemonic process (which may
    not have children) or when the pipe or the fork fails, no child is made
    and ``result`` calls ``fn`` in this process instead.
    """

    def __init__(self, fn: Callable, *args):
        import multiprocessing  # here, so importing this module does not pay for it
        import threading

        self._name = fn.__name__
        self._process = None
        self._in_process = (fn, args)  # dropped once a child runs it, so the parent frees ``args``
        if threading.active_count() > 1 or multiprocessing.current_process().daemon:
            return
        context = multiprocessing.get_context("fork")
        try:
            self._conn, child_conn = context.Pipe(duplex=False)
        except OSError:
            return
        process = context.Process(target=_send_result, args=(child_conn, fn, args), daemon=True)
        try:
            process.start()
            self._process, self._in_process = process, None
        except OSError:
            self._conn.close()
        finally:
            child_conn.close()

    def result(self):
        """What ``fn`` returned, or raise what it raised; the child is reaped either way.

        A child that exits before it has sent its whole result raises
        ChildProcessError with its exit code.
        """
        if self._process is None:
            fn, args = self._in_process
            return fn(*args)
        process = self._process
        try:
            try:
                sent = self._conn.recv()
            except (EOFError, OSError):  # nothing sent, or the pipe closed mid-message
                sent = None
            process.join()
            code = process.exitcode
        finally:
            self.close()
        if sent is None:
            raise ChildProcessError(f"{self._name} exited with code {code} in a forked child before sending its result")
        ok, value = sent
        if not ok:
            raise value
        return value

    def close(self) -> None:
        """Kill the child if it still runs, reap it and close the pipe; later calls do nothing."""
        process, self._process = self._process, None
        if process is None:
            return
        if process.exitcode is None:
            process.kill()
        process.join()
        process.close()
        self._conn.close()


def _send_result(conn, fn: Callable, args: tuple) -> None:
    """The child's side of ``_Forked``: run ``fn(*args)`` and send ``(ok, value)`` down ``conn``."""
    try:
        sent = (True, fn(*args))
    except Exception as exc:
        sent = (False, exc)
    conn.send(sent)


def run_pipeline(cfg: PipelineConfig) -> Path:
    """Run all stages; returns the manifest path.

    A config without ``paths.generated`` or with a missing input file raises
    ValidationError before any stage runs or ``paths.out_dir`` is made.  On a
    stage failure the manifest is still written, flagged failed with the
    completed stages listed, and a StageError is raised; any other exception
    flags it failed the same way and propagates as it is.
    """
    paths = cfg.paths
    if paths.generated is None:
        raise ValidationError("score stage requires paths.generated in the config")
    given = {name: path for name, path in vars(paths).items() if name != "out_dir" and path is not None}
    for path in given.values():
        if not Path(path).exists():
            raise ValidationError(f"input file {path} does not exist")
    paths.out_dir.mkdir(parents=True, exist_ok=True)
    # Work running in forked children, by the name the stages take its result by.
    children = {"embeddings": _Forked(load_embeddings, paths.embeddings)}
    try:
        return _run_stages(cfg, given, children)
    finally:
        for child in children.values():
            child.close()


def _run_stages(cfg: PipelineConfig, given: dict[str, Path], children: dict[str, _Forked]) -> Path:
    """``run_pipeline`` from the input hashes on; ``children`` gains the scoring child."""
    paths = cfg.paths
    manifest: dict = {
        "tool": "sei",
        "version": __version__,
        "config": cfg.echo(),
        "inputs": {name: {"path": str(path), "sha256": sha256_file(path)} for name, path in given.items()},
        "stages": [],
        "status": "running",
    }
    manifest_path = paths.out_dir / "run_manifest.json"
    # Replaced before any artifact is, so an earlier run's manifest never
    # vouches for artifacts this run has begun to replace.
    _dump_json(manifest_path, manifest)
    # Results by the name stages take them by.  Each is dropped after the last
    # stage that takes it, so the embeddings matrix does not outlive attach-shc.
    done: dict[str, object] = {}
    take = _taker(cfg, done, children)
    last_taker = {name: stage for stage in STAGE_ORDER for name in STAGES[stage].takes}
    try:
        for stage in STAGE_ORDER:
            spec = STAGES[stage]
            out = paths.out_dir / spec.artifact
            try:
                done[stage] = spec.fn(cfg, out, *map(take, spec.takes))
                if stage == "filter":
                    children["scores"] = _Forked(score_from_files, cfg, done[stage], paths.corpus)
            except (ToolkitError, OSError) as exc:
                raise StageError(stage, exc) from exc
            for name in spec.takes:
                if last_taker[name] == stage:
                    done.pop(name, None)
            manifest["stages"].append({"name": stage, "artifacts": [{"path": out.name, "sha256": sha256_file(out)}]})
    except BaseException as exc:  # KeyboardInterrupt and MemoryError too
        manifest["status"] = "failed"
        manifest["failed_stage"] = stage
        named = ": ".join(filter(None, (type(exc).__name__, str(exc))))
        manifest["cause"] = str(exc) if isinstance(exc, StageError) else named  # StageError: as the CLI prints it
        _dump_json(manifest_path, manifest)
        raise
    manifest["status"] = "ok"
    _dump_json(manifest_path, manifest)
    return manifest_path


def run_stage(cfg: PipelineConfig, stage: str, **options) -> Path:
    """Run ``stage`` alone, reading what it takes back from the files; returns its artifact's path.

    ``options`` go to the stage function as keyword arguments.  The manifest
    of an earlier run is deleted before the artifact is replaced.
    """
    spec = STAGES[stage]
    out_dir = cfg.paths.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    taken = list(map(_taker(cfg, {}, {}), spec.takes))
    (out_dir / "run_manifest.json").unlink(missing_ok=True)
    spec.fn(cfg, out_dir / spec.artifact, *taken, **options)
    return out_dir / spec.artifact
