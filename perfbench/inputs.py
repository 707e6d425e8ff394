"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed and sizes: the same seed
writes the same bytes.  The pipeline corpus follows the schema documented in
``sei.corpus`` and carries a few deliberate quirks:

* about 2% of studies are dropped by the filter (half empty findings, half a
  junk phrase), so the filter's drop path runs;
* about 1% of embeddings exactly copy another kept study's vector, in groups
  of three, so retrieval must break exact score ties;
* the generated reports, labels and entities cover only the kept studies.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

WORDS = (
    "lungs", "clear", "pleural", "effusion", "cardiac", "silhouette", "stable",
    "opacity", "left", "right", "lower", "upper", "lobe", "consolidation",
    "pneumothorax", "edema", "mild", "moderate", "acute", "chest", "tube",
    "device", "unchanged", "focal", "basilar", "atelectasis", "heart", "size",
    "normal", "mediastinal", "contour", "no", "small", "interval",
)
LABELS = ("ANAT-DP", "OBS-DP", "OBS-DA", "OBS-U")
INDICATIONS = (
    "History: 62-year-old Female with cough/fever",
    "History: 45 year old male with chest pain",
    "evaluate for pneumonia",
    "shortness of breath @ rest",
    None,
    "rule out effusion_",
    "___M with dyspnea, r/o chf",
)
JUNK_PHRASE = "is subnitted"
FUSION = {"d": 32, "heads": 4, "si": 16, "sh": 20, "sn": 8}
EMPTY_FRAC = 0.01
JUNK_FRAC = 0.01
DUP_FRAC = 0.01


def _dump_jsonl(path: Path, rows) -> None:
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in rows), encoding="utf-8")


def duplicate_groups(rng: np.random.Generator, pool: np.ndarray, frac: float) -> list[tuple[int, int, int]]:
    """Pick (source, copy, copy) row triples from ``pool`` so ~frac of rows are copies."""
    n_groups = max(1, int(round(len(pool) * frac / 2)))
    picked = rng.choice(pool, size=3 * n_groups, replace=False)
    return [tuple(int(v) for v in picked[3 * g : 3 * g + 3]) for g in range(n_groups)]


def _report(rng: np.random.Generator) -> tuple[str, list[dict]]:
    """Findings text of 2-3 sentences and one entity at the start of each sentence."""
    sentences = []
    entities = []
    pos = 0
    for _ in range(int(rng.integers(2, 4))):
        words = [WORDS[int(i)] for i in rng.integers(0, len(WORDS), size=int(rng.integers(3, 9)))]
        end = int(rng.integers(0, min(3, len(words))))
        entities.append(
            {
                "tokens": " ".join(words[: end + 1]),
                "label": LABELS[int(rng.integers(0, len(LABELS)))],
                "start_ix": pos,
                "end_ix": pos + end,
            }
        )
        sentences.append(" ".join(words) + ".")
        pos += len(words) + 1  # the period is a token of its own
    return " ".join(sentences), entities


def write_pipeline_inputs(root: Path, n: int, d: int, seed: int, k: int = 5) -> dict:
    """Write corpus, embeddings, generated side and a ``sei run`` config under ``root``.

    Paths inside the config are relative to ``root``, so a run started there
    writes a manifest that does not depend on where the checkout lives.
    Returns a summary: the kept and dropped ids and the duplicate groups.
    """
    rng = np.random.default_rng([seed, 0x5E1])
    root.mkdir(parents=True, exist_ok=True)
    order = rng.permutation(n)
    n_empty = int(round(n * EMPTY_FRAC))
    n_junk = int(round(n * JUNK_FRAC))
    empty = set(int(i) for i in order[:n_empty])
    junk = set(int(i) for i in order[n_empty : n_empty + n_junk])
    kept = np.array(sorted(set(range(n)) - empty - junk), dtype=np.int64)
    vectors = rng.standard_normal((n, d))
    groups = duplicate_groups(rng, kept, DUP_FRAC)
    for src, *copies in groups:
        vectors[copies] = vectors[src]

    ids = [f"st{i:05d}" for i in range(n)]
    corpus_rows, gen_rows, label_rows, ent_rows = [], [], [], []
    for i, sid in enumerate(ids):
        findings, entities = _report(rng)
        labels14 = [int(v) for v in rng.integers(0, 2, size=14)]
        gen_labels = [int(v) for v in rng.integers(0, 2, size=14)]
        if i in empty:
            findings, entities = "", []
        elif i in junk:
            findings += f" Study {JUNK_PHRASE}."
        corpus_rows.append(
            {
                "study_id": sid,
                "findings": findings,
                "indication": INDICATIONS[i % len(INDICATIONS)],
                "entities": entities,
                "labels14": labels14,
            }
        )
        if i in empty or i in junk:
            continue
        first = findings.split(".")[0].strip()
        gen_rows.append({"study_id": sid, "text": first + " noted."})
        label_rows.append([sid] + gen_labels)
        ent_rows.append(
            {"study_id": sid, "entities": [{"tokens": e["tokens"], "label": e["label"]} for e in entities[:1]]}
        )

    _dump_jsonl(root / "corpus.jsonl", corpus_rows)
    with open(root / "emb.jsonl", "w", encoding="utf-8") as handle:
        for sid, vec in zip(ids, vectors.tolist()):
            handle.write(json.dumps({"study_id": sid, "vec": vec}) + "\n")
    _dump_jsonl(root / "generated.jsonl", gen_rows)
    with open(root / "gen_labels.csv", "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["study_id"] + [f"l{i}" for i in range(1, 15)])
        writer.writerows(label_rows)
    _dump_jsonl(root / "gen_entities.jsonl", ent_rows)
    config = {
        "paths": {
            "corpus": "corpus.jsonl",
            "embeddings": "emb.jsonl",
            "out_dir": "out",
            "generated": "generated.jsonl",
            "generated_labels": "gen_labels.csv",
            "generated_entities": "gen_entities.jsonl",
        },
        "k": k,
        "m_gt": [60, 80, 90, 100, "cpl"],
        "filter": {"min_tokens": 3, "junk_patterns": [JUNK_PHRASE]},
        "fusion": FUSION,
        "tau": 0.07,
        "seed": seed,
    }
    (root / "config.json").write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return {
        "kept": [ids[i] for i in kept],
        "dropped": [ids[i] for i in sorted(empty | junk)],
        "duplicates": [[ids[i] for i in group] for group in groups],
    }


def index_vectors(n: int, d: int, seed: int) -> tuple[list[str], np.ndarray]:
    """Unit-length rows with ~1% exact duplicates, for the query workload's index."""
    rng = np.random.default_rng([seed, 0x1DE])
    matrix = rng.standard_normal((n, d))
    for src, *copies in duplicate_groups(rng, np.arange(n), DUP_FRAC):
        matrix[copies] = matrix[src]
    matrix /= np.linalg.norm(matrix, axis=1)[:, None]
    return [f"ix{i:05d}" for i in range(n)], matrix


def query_rows(seed: int, n: int, count: int) -> np.ndarray:
    """Stored rows to query, in order."""
    return np.random.default_rng([seed, 0x0E5]).integers(0, n, size=count)


def train_step_arrays(seed: int, step: int, shapes: dict) -> dict:
    """Raw arrays for one training step: alignment batch, fusion studies, NLL targets.

    A seeded quarter of the fusion studies has no indication, so both the
    ``full`` and the ``no_indication`` branches run.
    """
    rng = np.random.default_rng([seed, 0x7A1, step])
    b, d = shapes["B"], shapes["d"]
    align = {
        "image_locals": rng.standard_normal((b, shapes["S_i"], d)),
        "text_locals": rng.standard_normal((b, shapes["S_t"], d)),
    }
    align["image_feats"] = align["image_locals"].mean(axis=1)
    align["text_feats"] = align["text_locals"].mean(axis=1)
    no_indication = rng.permutation(b) < b // 4
    studies = []
    for i in range(b):
        studies.append(
            {
                "image": rng.standard_normal((shapes["S_i"], d)),
                "shc": rng.standard_normal((shapes["S_h"], d)),
                "indication": None if no_indication[i] else rng.standard_normal((shapes["S_n"], d)),
                "upstream": rng.standard_normal((shapes["S_i"], d)),
            }
        )
    logits = rng.standard_normal((b, shapes["M"], shapes["V"]))
    probs = np.exp(logits - logits.max(axis=2, keepdims=True))
    probs /= probs.sum(axis=2, keepdims=True)
    refs = rng.integers(0, shapes["V"], size=(b, shapes["M"]))
    return {"align": align, "studies": studies, "probs": probs, "refs": refs}
