"""Pipeline orchestration: configuration, stage functions, run manifests.

``run_pipeline`` executes the stages

    filter -> see-extract -> normalize -> index -> attach-shc -> fuse-demo -> score

in order.  Each ``_stage_*`` function takes parsed inputs (records, the
embeddings matrix, the sequences map) and an output path, replaces its
artifact atomically and returns what the next stage consumes.
``run_pipeline`` parses ``paths.corpus`` and ``paths.embeddings`` once each
and hands the records and the matrix forward; the CLI subcommands parse the
files their flags name and call the same stage functions.  Every artifact is
rewritten on each run, so deleting an intermediate and rerunning regenerates
it; a manifest records input and artifact hashes plus the effective
configuration.  Runs are deterministic: identical inputs and config reproduce
byte-identical artifacts.

Two pieces of ``run_pipeline``'s work depend on nothing the stages before
them produce, so each runs in a forked child process (``_Forked``) while
this process works through the stages in between:

* the embeddings parse, started right after the input checks;
* ``score_from_files`` over the filter stage's kept records, started as soon
  as the filter stage has written them.

Fork, not spawn: the child starts with the records already in its memory, so
nothing but the result is pickled.  The stage that needs a child's result
waits for it there (``index`` for the parse, ``score`` for the scores), so a
child's error surfaces at that stage, in stage order, as it would
in-process; a child that dies without a result fails that stage with a
ChildProcessError (exit 3).  When any stage fails, the children still running
are killed and reaped before ``run_pipeline`` returns.  A forked child has
only the thread that forked it, so both forks come before ``attach_shc``
starts its thread pool.  Where a fork is not safe or not possible (another
Python thread is running, this process is daemonic, or the fork fails), the
work runs in this process at the stage that needs it, with the same result.
Threads Python does not see, such as OpenBLAS's workers, are not counted:
OpenBLAS stops them at a fork.  Python 3.12 and later may still warn about
them at ``os.fork``, with a DeprecationWarning that is hidden by default.

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
    StudyRecord,
    _entity_tokens_label,
    _json_value,
    _read_json,
    atomic_write,
    dump_jsonl,
    filter_corpus,
    load_corpus,
    load_embeddings,
    read_keyed_jsonl,
    read_text,
    save_corpus,
    tokenize,
)
from .errors import CorpusError, StageError, ToolkitError, ValidationError, check_at_least
from .fusion import ROUTES, FeatureSet, _check_heads, fuse, fuse_backward, fusion_objective, init_params
from .gradcheck import max_fd_error
from .indications import NormalizerConfig, normalize_indication
from .losses import AlignmentBatch
from .metrics import M_GT_CHOICES, EvalPair, score_settings
from .retrieval import EmbeddingIndex, attach_shc, index_from_vectors, load_index, save_index
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
    "STAGE_ORDER",
]

_ARTIFACTS = {
    "filter": "filtered.jsonl",
    "see-extract": "sequences.jsonl",
    "normalize": "normalized.jsonl",
    "index": "index.bin",
    "attach-shc": "shc.jsonl",
    "fuse-demo": "fusion.json",
    "score": "scores.json",
}
STAGE_ORDER = tuple(_ARTIFACTS)


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


@dataclass
class PipelineConfig:
    """Configuration for one run: the JSON file ``load_config`` reads, and nothing else.

    Each field is one key of the file; a dataclass-typed field is a section
    whose own fields are its keys.  A scalar key takes the JSON kind
    ``corpus._JSON_KINDS`` gives its type (a path is a string, a float is
    finite), and each section checks its values as it is built.  ``tau`` and
    ``jobs`` are read by no stage, yet still parsed, validated and echoed:
    their values are part of ``run_manifest.json``, whose bytes a rerun must
    reproduce.
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
    jobs: int = 1

    def __post_init__(self):
        check_at_least(0, k=self.k, seed=self.seed)
        check_at_least(1, jobs=self.jobs)
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
    naming the dotted key.
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
    return cls(**kwargs)


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


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _dump_json(path: str | Path, obj: dict) -> None:
    with atomic_write(path) as handle:
        handle.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _read_id_map(path: str | Path, field_name: str) -> dict[str, str]:
    """Map study_id to the string ``field_name`` over a JSONL file that lists each id once."""
    return read_keyed_jsonl(path, field_name, lambda value: _json_value(value, str, f"field {field_name!r}"))


# ---------------------------------------------------------------------------
# Stage implementations (parsed inputs in, one artifact out, what the next
# stage consumes returned)
# ---------------------------------------------------------------------------


def _stage_filter(
    records: list[StudyRecord],
    out: str | Path,
    rules: CorpusFilterConfig,
    dropped_out: str | Path | None = None,
) -> tuple[list[StudyRecord], int]:
    """Write the records ``rules`` keep, and optionally the dropped ids with reasons.

    Returns the kept records and the dropped count.
    """
    kept, dropped = filter_corpus(records, rules)
    save_corpus(kept, out)
    if dropped_out is not None:
        dump_jsonl(dropped_out, ({"study_id": rec.study_id, "reason": why} for rec, why in dropped))
    return kept, len(dropped)


def _stage_see(records: list[StudyRecord], out: str | Path) -> dict[str, str]:
    """Write one factual sequence per record; returns them keyed by study_id."""
    rows = [{"study_id": rec.study_id, "factual_sequence": see_extract(rec).rendered} for rec in records]
    dump_jsonl(out, rows)
    return {row["study_id"]: row["factual_sequence"] for row in rows}


def _stage_normalize(
    records: list[StudyRecord], out: str | Path, normalizer: NormalizerConfig
) -> list[StudyRecord]:
    """Write the records with normalized indications; returns them."""
    normalized = [
        replace(rec, indication=normalize_indication(rec.indication, normalizer)) for rec in records
    ]
    save_corpus(normalized, out)
    return normalized


def _stage_index(
    records: list[StudyRecord], embeddings: EmbeddingIndex, out: str | Path, normalize: bool
) -> EmbeddingIndex:
    """Index the records' rows of the raw ``embeddings``, which each record needs; returns ``embeddings``."""
    rows = []
    for rec in records:
        row = embeddings.row_of(rec.study_id)
        if row is None:
            raise ValidationError(f"study {rec.study_id!r} has no embedding")
        rows.append(row)
    ids = [rec.study_id for rec in records]
    save_index(index_from_vectors(ids, embeddings.matrix[rows], normalize), out)
    return embeddings


def _stage_attach(
    records: list[StudyRecord],
    index: EmbeddingIndex,
    embeddings: EmbeddingIndex,
    sequences: dict[str, str] | None,
    out: str | Path,
    k: int,
) -> int:
    """Write each record's top-k similar cases; returns the record count.

    A record's query is its row of the raw ``embeddings``.  ``sequences`` maps study_id to factual sequence; without it the
    sequences are extracted from the records.
    """
    attached = attach_shc(records, index, k, embeddings, sequences=sequences)
    rows = ({"study_id": rec.study_id, "cases": [vars(c) for c in cases]} for rec, cases in attached)
    dump_jsonl(out, rows)
    return len(attached)


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


def _stage_fuse_demo(
    records: list[StudyRecord], out: str | Path, fusion: FusionConfig, k: int, seed: int
) -> None:
    """Run the fusion demo on the branch the records and k select."""
    has_indication = any(rec.indication for rec in records) and fusion.sn > 0
    _dump_json(out, fuse_demo_result(fusion, seed, with_shc=k > 0, with_indication=has_indication))


def read_generated(path: Path) -> dict[str, str]:
    """Read generated reports: JSONL of {"study_id", "text"}."""
    return _read_id_map(path, "text")


_LABEL_CELLS = frozenset(("0", "1"))


def read_label_csv(path: Path) -> dict[str, tuple[int, ...]]:
    """Read a label CSV with header study_id,l1..l14."""
    out: dict[str, tuple[int, ...]] = {}
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    header = next(reader, None)
    if header is None or header[0] != "study_id" or len(header) != 15:
        raise CorpusError(f"{path}: expected header study_id,l1..l14")
    for lineno, row in enumerate(reader, 2):
        if len(row) != 15:
            raise CorpusError(f"{path}: line {lineno}: expected 15 columns, got {len(row)}")
        sid = row[0]
        if sid in out:
            raise CorpusError(f"{path}: line {lineno}: duplicate study_id {sid!r}")
        if not _LABEL_CELLS.issuperset(row[1:]):
            raise CorpusError(f"{path}: line {lineno}: labels must each be exactly 0 or 1")
        out[sid] = tuple(map(int, row[1:]))
    return out


def _entity_set(entities) -> set[tuple[str, str]]:
    """The (lowercased tokens, label) pairs of one generated-side ``entities`` list."""
    if not isinstance(entities, list):
        raise ValidationError("field 'entities' must be a list")
    return {(tokens.lower(), label.value) for tokens, label in map(_entity_tokens_label, entities)}


def read_entity_sets(path: Path) -> dict[str, set[tuple[str, str]]]:
    """Read generated-side entities: JSONL of {"study_id", "entities": [{"tokens","label"}]}."""
    return read_keyed_jsonl(path, "entities", _entity_set)


def score_from_files(
    reference_records: list[StudyRecord],
    reference_path: str | Path,
    generated_path: str | Path,
    labels_path: str | Path | None,
    entities_path: str | Path | None,
    m_gt_values: tuple[float, ...],
) -> dict[str, dict[str, float]]:
    """Score the generated-side files against reference records per truncation setting.

    The reference records, read from ``reference_path``, supply gold labels
    (labels14) and reference entity sets; the generated side supplies text plus
    optional label vectors and entity sets keyed by study_id.  Every file is
    parsed before any id is matched, and an id missing from a file, or a
    generated id the reference corpus lacks, raises ValidationError naming that
    file.
    """
    generated = read_generated(generated_path)
    generated_labels = read_label_csv(labels_path) if labels_path else None
    generated_entities = read_entity_sets(entities_path) if entities_path else None
    by_id = {rec.study_id: rec for rec in reference_records}
    unknown = [sid for sid in generated if sid not in by_id]
    if unknown:
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
            ref_set = {(e.tokens.lower(), e.label.value) for e in rec.entities}
            entities.append((generated_entities[rec.study_id], ref_set))
    scores = score_settings(pairs, labels=labels, entities=entities, m_gt_values=m_gt_values)
    return {m_gt_key(m): report for m, report in scores.items()}


class _Forked:
    """``fn(*args)`` run in a forked child process; ``result`` waits for it.

    The child sends what ``fn`` returned, or the exception it raised, down a
    ``multiprocessing`` pipe.  A fork copies only the thread that calls it, so
    while another Python thread runs here, in a daemonic process (which may
    not have children) or when the pipe or the fork fails, no child is made
    and ``result`` calls ``fn`` in this process instead.
    """

    def __init__(self, fn: Callable, *args):
        import multiprocessing  # here, so importing sei does not pay for it
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

    On a stage failure the manifest is still written, flagged failed with
    the completed stages listed, and a StageError is raised.
    """
    paths = cfg.paths
    paths.out_dir.mkdir(parents=True, exist_ok=True)
    given = {name: path for name, path in vars(paths).items() if name != "out_dir" and path is not None}
    for path in given.values():
        if not Path(path).exists():
            raise ValidationError(f"input file {path} does not exist")
    # Work running in forked children, by the stage that waits for its result.
    children = {"index": _Forked(load_embeddings, paths.embeddings)}
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
        "status": "ok",
    }
    manifest_path = paths.out_dir / "run_manifest.json"
    art = {stage: paths.out_dir / name for stage, name in _ARTIFACTS.items()}
    # Stage results by stage name.  The last stage to read a result pops it,
    # so the embeddings matrix does not outlive attach-shc.
    done: dict[str, object] = {}

    def filtered() -> list[StudyRecord]:
        kept = _stage_filter(load_corpus(paths.corpus), art["filter"], cfg.filter)[0]
        if paths.generated is not None:
            children["score"] = _Forked(
                score_from_files, kept, paths.corpus, paths.generated, paths.generated_labels,
                paths.generated_entities, cfg.m_gt,
            )
        return kept

    def scored() -> None:
        if paths.generated is None:
            raise ValidationError("score stage requires paths.generated in the config")
        _dump_json(art["score"], children["score"].result())

    stages: dict[str, Callable[[], object]] = {
        "filter": filtered,
        "see-extract": lambda: _stage_see(done["filter"], art["see-extract"]),
        "normalize": lambda: _stage_normalize(done.pop("filter"), art["normalize"], cfg.normalizer),
        "index": lambda: _stage_index(
            done["normalize"], children["index"].result(), art["index"], cfg.index_normalize
        ),
        "attach-shc": lambda: _stage_attach(
            done["normalize"], load_index(art["index"]), done.pop("index"), done.pop("see-extract"),
            art["attach-shc"], cfg.k,
        ),
        "fuse-demo": lambda: _stage_fuse_demo(
            done["normalize"], art["fuse-demo"], cfg.fusion, cfg.k, cfg.seed
        ),
        "score": scored,
    }
    for stage in STAGE_ORDER:
        try:
            done[stage] = stages[stage]()
        except (ToolkitError, OSError) as exc:
            manifest["status"] = "failed"
            manifest["failed_stage"] = stage
            _dump_json(manifest_path, manifest)
            raise StageError(stage, exc) from exc
        manifest["stages"].append(
            {"name": stage, "artifacts": [{"path": art[stage].name, "sha256": sha256_file(art[stage])}]}
        )
    _dump_json(manifest_path, manifest)
    return manifest_path
