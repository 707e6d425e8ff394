"""The generators are pure functions of their seed."""

import hashlib

import numpy as np

import inputs
from sei.corpus import filter_corpus, load_corpus, CorpusFilterConfig


def digest(root):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(root.iterdir())}


def test_same_seed_same_bytes(tmp_path):
    a = inputs.write_pipeline_inputs(tmp_path / "a", n=300, d=8, seed=5)
    b = inputs.write_pipeline_inputs(tmp_path / "b", n=300, d=8, seed=5)
    c = inputs.write_pipeline_inputs(tmp_path / "c", n=300, d=8, seed=6)
    assert a == b
    assert digest(tmp_path / "a") == digest(tmp_path / "b")
    assert digest(tmp_path / "a")["corpus.jsonl"] != digest(tmp_path / "c")["corpus.jsonl"]


def test_drops_duplicates_and_generated_side(tmp_path):
    summary = inputs.write_pipeline_inputs(tmp_path, n=1000, d=8, seed=3)
    records = load_corpus(tmp_path / "corpus.jsonl")
    kept, dropped = filter_corpus(records, CorpusFilterConfig(junk_patterns=(inputs.JUNK_PHRASE,)))
    assert [rec.study_id for rec, _ in dropped] == summary["dropped"]
    assert len(dropped) == 20
    assert [rec.study_id for rec in kept] == summary["kept"]
    generated = [line.split('"study_id": "')[1][:7] for line in (tmp_path / "generated.jsonl").read_text().splitlines()]
    assert generated == summary["kept"]
    vectors = {}
    for line in (tmp_path / "emb.jsonl").read_text().splitlines():
        sid = line.split('"study_id": "')[1][:7]
        vectors[sid] = line.split('"vec": ')[1]
    copies = sum(len(group) - 1 for group in summary["duplicates"])
    assert copies == 10
    for source, *rest in summary["duplicates"]:
        assert all(vectors[sid] == vectors[source] for sid in rest)
        assert source in summary["kept"] and all(sid in summary["kept"] for sid in rest)


def test_index_queries_and_train_arrays_repeat():
    ids_a, m_a = inputs.index_vectors(500, 8, seed=2)
    ids_b, m_b = inputs.index_vectors(500, 8, seed=2)
    assert ids_a == ids_b and m_a.tobytes() == m_b.tobytes()
    assert np.allclose(np.linalg.norm(m_a, axis=1), 1.0)
    assert len({row.tobytes() for row in m_a}) == 500 - 2 * 2  # two groups of three
    assert (inputs.query_rows(4, 500, 50) == inputs.query_rows(4, 500, 50)).all()
    shapes = {"B": 8, "S_i": 3, "S_t": 4, "d": 8, "S_h": 5, "S_n": 2, "M": 3, "V": 11}
    x = inputs.train_step_arrays(1, 2, shapes)
    y = inputs.train_step_arrays(1, 2, shapes)
    assert x["probs"].tobytes() == y["probs"].tobytes()
    assert sum(s["indication"] is None for s in x["studies"]) == 2
