"""Shared test helpers: synthetic corpora, entity generators, finite differences.

The finite-difference checker here is intentionally independent of the
package's own gradcheck module so analytic gradients are verified against a
second implementation.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from sei.corpus import EntityAnnotation, EntityLabel, ReportDocument, StudyRecord

VOCAB = (
    "lungs", "clear", "pleural", "effusion", "cardiac", "silhouette", "stable",
    "opacity", "left", "right", "lower", "lobe", "consolidation", "pneumothorax",
    "edema", "mild", "acute", "chest", "tube", "device", "unchanged", "focal",
)

ALL_LABELS = (EntityLabel.ANAT_DP, EntityLabel.OBS_DP, EntityLabel.OBS_DA, EntityLabel.OBS_U)
PLAIN_LABELS = (EntityLabel.ANAT_DP, EntityLabel.OBS_DP)


def central_diff(fn, array: np.ndarray, flat_index: int, eps: float = 1e-4) -> float:
    """Independent central finite difference, perturbing in place."""
    flat = array.reshape(-1)
    old = flat[flat_index]
    flat[flat_index] = old + eps
    f_plus = fn()
    flat[flat_index] = old - eps
    f_minus = fn()
    flat[flat_index] = old
    return (f_plus - f_minus) / (2.0 * eps)


def rel_err(a: float, b: float, floor: float = 1e-6) -> float:
    return abs(a - b) / max(abs(a), abs(b), floor)


def make_report(rng: np.random.Generator, n_sentences: int | None = None,
                trailing_period: bool | None = None) -> ReportDocument:
    """Random multi-sentence report built from the word vocabulary."""
    if n_sentences is None:
        n_sentences = int(rng.integers(1, 5))
    if trailing_period is None:
        trailing_period = bool(rng.random() < 0.8)
    sentences = []
    for s in range(n_sentences):
        words = [VOCAB[int(i)] for i in rng.integers(0, len(VOCAB), size=int(rng.integers(3, 8)))]
        text = " ".join(words)
        if s < n_sentences - 1 or trailing_period:
            text += "."
        sentences.append(text)
    return ReportDocument(" ".join(sentences))


def word_spans_by_sentence(report: ReportDocument) -> list[tuple[int, int]]:
    """Inclusive (lo, hi) word-token bounds per sentence, periods excluded."""
    spans = []
    lo = 0
    for end in report.sentence_ends:
        if end > lo:
            spans.append((lo, end - 1))
        lo = end + 1
    if lo < len(report.tokens):
        spans.append((lo, len(report.tokens) - 1))
    return spans


def span_entity(report: ReportDocument, start: int, end: int, label: EntityLabel) -> EntityAnnotation:
    text = " ".join(report.tokens[start : end + 1])
    return EntityAnnotation(tokens=text, label=label, start_ix=start, end_ix=end)


def make_entities(
    rng: np.random.Generator,
    report: ReportDocument,
    n_entities: int | None = None,
    allow_cross: bool = True,
    labels: tuple[EntityLabel, ...] = ALL_LABELS,
) -> list[EntityAnnotation]:
    """Random entities over word tokens; spans may overlap and may cross sentences."""
    spans = word_spans_by_sentence(report)
    if not spans:
        return []
    if n_entities is None:
        n_entities = int(rng.integers(0, 7))
    entities = []
    for _ in range(n_entities):
        label = labels[int(rng.integers(0, len(labels)))]
        if allow_cross and len(spans) >= 2 and rng.random() < 0.15:
            k = int(rng.integers(0, len(spans) - 1))
            lo_a, hi_a = spans[k]
            lo_b, hi_b = spans[k + 1]
            start = int(rng.integers(lo_a, hi_a + 1))
            end = int(rng.integers(lo_b, hi_b + 1))
        else:
            k = int(rng.integers(0, len(spans)))
            lo, hi = spans[k]
            start = int(rng.integers(lo, hi + 1))
            end = int(rng.integers(start, hi + 1))
        entities.append(span_entity(report, start, end, label))
    return entities


def make_record(rng: np.random.Generator, study_id: str = "s0", **entity_kwargs) -> StudyRecord:
    report = make_report(rng)
    entities = make_entities(rng, report, **entity_kwargs)
    return StudyRecord(study_id=study_id, report=report, entities=tuple(entities))


def disjoint_plain_record(rng: np.random.Generator, study_id: str = "s0") -> StudyRecord:
    """Record with non-overlapping, within-sentence, non-negated entities only."""
    report = make_report(rng)
    entities = []
    for lo, hi in word_spans_by_sentence(report):
        pos = lo
        while pos <= hi and len(entities) < 8:
            end = min(hi, pos + int(rng.integers(0, 3)))
            if rng.random() < 0.7:
                label = PLAIN_LABELS[int(rng.integers(0, 2))]
                entities.append(span_entity(report, pos, end, label))
            pos = end + 2  # leave a gap so spans stay disjoint
    return StudyRecord(study_id=study_id, report=report, entities=tuple(entities))


# ---------------------------------------------------------------------------
# Pipeline fixture files
# ---------------------------------------------------------------------------

INDICATION_SAMPLES = (
    "History: 62-year-old Female with cough/fever",
    "History: 45 year old male with chest pain",
    "evaluate for pneumonia",
    "shortness of breath @ rest",
    None,
    "rule out effusion_",
)


def write_pipeline_fixture(root: Path, n: int = 10, d: int = 8, seed: int = 123) -> dict:
    """Write a complete synthetic input set plus config; returns the paths."""
    rng = np.random.default_rng(seed)
    root.mkdir(parents=True, exist_ok=True)
    corpus_rows = []
    emb_rows = []
    gen_rows = []
    label_rows = []
    ent_rows = []
    for i in range(n):
        sid = f"st{i:03d}"
        report = make_report(rng, n_sentences=int(rng.integers(2, 4)), trailing_period=True)
        entities = []
        for lo, hi in word_spans_by_sentence(report):
            end = min(hi, lo + int(rng.integers(0, 3)))
            entities.append(span_entity(report, lo, end, ALL_LABELS[int(rng.integers(0, 4))]))
        corpus_rows.append(
            {
                "study_id": sid,
                "findings": report.text,
                "indication": INDICATION_SAMPLES[i % len(INDICATION_SAMPLES)],
                "entities": [
                    {"tokens": e.tokens, "label": e.label.value, "start_ix": e.start_ix, "end_ix": e.end_ix}
                    for e in entities
                ],
                "labels14": [int(v) for v in rng.integers(0, 2, size=14)],
            }
        )
        emb_rows.append({"study_id": sid, "vec": [float(v) for v in rng.standard_normal(d)]})
        # generated report: the first sentence of the reference, slightly edited
        first = report.text.split(".")[0].strip()
        gen_rows.append({"study_id": sid, "text": first + " noted."})
        label_rows.append([sid] + [int(v) for v in rng.integers(0, 2, size=14)])
        ent_rows.append(
            {
                "study_id": sid,
                "entities": [{"tokens": e.tokens, "label": e.label.value} for e in entities[:1]],
            }
        )
    paths = {
        "corpus": root / "corpus.jsonl",
        "embeddings": root / "emb.jsonl",
        "generated": root / "generated.jsonl",
        "generated_labels": root / "gen_labels.csv",
        "generated_entities": root / "gen_entities.jsonl",
        "config": root / "config.json",
        "out_dir": root / "out",
    }
    paths["corpus"].write_text(
        "".join(json.dumps(r, sort_keys=True) + "\n" for r in corpus_rows), encoding="utf-8"
    )
    paths["embeddings"].write_text(
        "".join(json.dumps(r, sort_keys=True) + "\n" for r in emb_rows), encoding="utf-8"
    )
    paths["generated"].write_text(
        "".join(json.dumps(r, sort_keys=True) + "\n" for r in gen_rows), encoding="utf-8"
    )
    with open(paths["generated_labels"], "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["study_id"] + [f"l{i}" for i in range(1, 15)])
        writer.writerows(label_rows)
    paths["generated_entities"].write_text(
        "".join(json.dumps(r, sort_keys=True) + "\n" for r in ent_rows), encoding="utf-8"
    )
    config = {
        "paths": {
            "corpus": str(paths["corpus"]),
            "embeddings": str(paths["embeddings"]),
            "out_dir": str(paths["out_dir"]),
            "generated": str(paths["generated"]),
            "generated_labels": str(paths["generated_labels"]),
            "generated_entities": str(paths["generated_entities"]),
        },
        "k": 1,
        "m_gt": [60, 80, 90, 100, "cpl"],
        "filter": {"min_tokens": 3, "junk_patterns": ["is subnitted"]},
        "fusion": {"d": 8, "heads": 2, "si": 4, "sh": 6, "sn": 3},
        "tau": 0.07,
        "seed": 7,
    }
    paths["config"].write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return paths


def patch_config(config: Path, **patch) -> Path:
    """Merge ``patch`` into the config file at ``config``: a dict into its section, any other value as the key's."""
    raw = json.loads(config.read_text(encoding="utf-8"))
    for name, value in patch.items():
        raw[name] = {**raw[name], **value} if isinstance(value, dict) and isinstance(raw.get(name), dict) else value
    config.write_text(json.dumps(raw, indent=2) + "\n", encoding="utf-8")
    return config


def write_study_fixture(root: Path, embeddings: bytes, ids: str = "ab", **patch) -> dict:
    """A fixture whose corpus lists one plain study per character of ``ids`` and whose
    embeddings file holds ``embeddings``; ``patch`` goes into its config."""
    paths = write_pipeline_fixture(root, n=1)
    rows = [{"study_id": sid, "findings": "lungs are clear."} for sid in ids]
    paths["corpus"].write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    paths["embeddings"].write_bytes(embeddings)
    patch_config(paths["config"], **patch)
    return paths


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
