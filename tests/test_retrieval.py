"""Retrieval engine: construction, oracle equivalence, ties, BLAS threads, serialization."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sei
from sei.corpus import ReportDocument, StudyRecord
from sei.errors import CorpusError, ValidationError
from sei.retrieval import (
    EmbeddingIndex,
    attach_shc,
    build_index,
    load_index,
    save_index,
    top_k,
    top_k_naive,
)


def embedded_record(study_id, vec, text="lungs are clear."):
    return StudyRecord(
        study_id=study_id,
        report=ReportDocument.from_text(study_id, text),
        entities=(),
        embedding=tuple(float(v) for v in vec),
    )


def random_records(rng, n, d):
    return [embedded_record(f"s{i:05d}", rng.standard_normal(d)) for i in range(n)]


class TestBuildIndex:
    def test_construction(self, rng):
        index = build_index(random_records(rng, 3, 4), normalize=False)
        assert index.n == 3
        assert index.dim == 4
        assert not index.normalized

    def test_normalized_rows(self, rng):
        index = build_index(random_records(rng, 10, 6), normalize=True)
        norms = np.linalg.norm(index.matrix, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-6)

    def test_missing_embedding_names_study(self, rng):
        records = random_records(rng, 2, 4)
        records.append(
            StudyRecord(
                study_id="missing",
                report=ReportDocument.from_text("missing", "ok."),
                entities=(),
            )
        )
        with pytest.raises(ValidationError, match="missing"):
            build_index(records)

    def test_dimension_mismatch_names_both(self, rng):
        records = [embedded_record("a", [1.0, 2.0]), embedded_record("b", [1.0])]
        with pytest.raises(ValidationError, match="1") as exc:
            build_index(records)
        assert "2" in str(exc.value)

    def test_duplicate_id(self):
        records = [embedded_record("a", [1.0, 0.0]), embedded_record("a", [0.0, 1.0])]
        with pytest.raises(ValidationError, match="duplicate"):
            build_index(records)

    def test_zero_records(self):
        with pytest.raises(ValidationError, match="zero records"):
            build_index([])


class TestTopK:
    def test_orthogonal_unit_hit(self):
        vecs = np.eye(4)
        records = [embedded_record(f"s{i}", vecs[i]) for i in range(4)]
        index = build_index(records, normalize=True)
        result = top_k(index, vecs[2], k=1)
        assert result.hits[0][0] == "s2"
        assert result.hits[0][1] == pytest.approx(1.0, abs=1e-12)

    def test_k_zero(self, rng):
        index = build_index(random_records(rng, 5, 3))
        assert top_k(index, rng.standard_normal(3), 0).hits == ()

    def test_k_larger_than_candidates(self, rng):
        index = build_index(random_records(rng, 4, 3))
        result = top_k(index, rng.standard_normal(3), 10, exclude_id="s00001")
        assert len(result.hits) == 3

    def test_dim_mismatch(self, rng):
        index = build_index(random_records(rng, 4, 3))
        with pytest.raises(ValidationError, match="dimension"):
            top_k(index, rng.standard_normal(5), 2)

    def test_negative_k(self, rng):
        index = build_index(random_records(rng, 4, 3))
        with pytest.raises(ValidationError, match=">= 0"):
            top_k(index, rng.standard_normal(3), -1)

    def test_oracle_equivalence_random(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 400))
            d = int(rng.integers(1, 64))
            k = int(rng.integers(0, 21))
            normalize = bool(rng.random() < 0.5)
            records = random_records(rng, n, d)
            index = build_index(records, normalize=normalize)
            query = np.asarray(records[int(rng.integers(0, n))].embedding)
            exclude = records[int(rng.integers(0, n))].study_id if rng.random() < 0.5 else None
            fast = top_k(index, query, k, exclude_id=exclude)
            slow = top_k_naive(index, query, k, exclude_id=exclude)
            assert [h[0] for h in fast.hits] == [h[0] for h in slow.hits]
            assert [h[1] for h in fast.hits] == [h[1] for h in slow.hits]

    def test_tie_break_by_insertion_order(self):
        rows = [[1.0, 0.0], [1.0, 0.0], [0.5, 0.1], [1.0, 0.0]]
        records = [embedded_record(f"s{i}", rows[i]) for i in range(4)]
        index = build_index(records, normalize=False)
        result = top_k(index, np.array([1.0, 0.0]), 3)
        assert [h[0] for h in result.hits] == ["s0", "s1", "s3"]
        naive = top_k_naive(index, np.array([1.0, 0.0]), 3)
        assert result.hits == naive.hits

    def test_blocked_path_spans_blocks(self, rng):
        # more rows than one block so the bounded merge actually runs
        n = 9000
        d = 8
        records = random_records(rng, n, d)
        index = build_index(records)
        query = rng.standard_normal(d)
        fast = top_k(index, query, 15)
        slow = top_k_naive(index, query, 15)
        assert fast.hits == slow.hits

    def test_scores_descending_and_bounded(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 50))
            records = random_records(rng, n, 5)
            index = build_index(records, normalize=True)
            result = top_k_naive(index, rng.standard_normal(5), int(rng.integers(1, 10)))
            scores = [h[1] for h in result.hits]
            assert all(a >= b for a, b in zip(scores, scores[1:]))
            assert all(-1 - 1e-6 <= s <= 1 + 1e-6 for s in scores)

    def test_exclusion_single_record(self, rng):
        index = build_index(random_records(rng, 1, 3))
        assert top_k_naive(index, rng.standard_normal(3), 5, exclude_id="s00000").hits == ()

    def test_determinism_across_runs(self, rng):
        records = random_records(rng, 200, 16)
        index = build_index(records)
        query = rng.standard_normal(16)
        first = top_k(index, query, 10)
        second = top_k(index, query, 10)
        assert first == second


class TestAttachShc:
    def test_mutual_pair(self):
        records = [
            embedded_record("a", [1.0, 0.0], "lungs clear."),
            embedded_record("b", [0.9, 0.1], "heart normal."),
        ]
        index = build_index(records)
        attached = attach_shc(records, index, k=1)
        by_id = {rec.study_id: cases for rec, cases in attached}
        assert by_id["a"][0].study_id == "b"
        assert by_id["b"][0].study_id == "a"
        assert by_id["a"][0].factual_sequence == ""

    def test_k_zero_gives_empty_case_lists(self, rng):
        records = random_records(rng, 5, 4)
        index = build_index(records)
        attached = attach_shc(records, index, k=0)
        assert all(cases == () for _, cases in attached)

    def test_never_retrieves_self(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 40))
            records = random_records(rng, n, 6)
            index = build_index(records)
            k = int(rng.integers(1, n + 2))
            for rec, cases in attach_shc(records, index, k):
                assert rec.study_id not in [c.study_id for c in cases]

    def test_unindexed_record_rejected(self, rng):
        records = random_records(rng, 3, 4)
        index = build_index(records[:2])
        with pytest.raises(ValidationError, match="not indexed"):
            attach_shc(records, index, 1)

    def test_sequences_mapping_used(self, rng):
        records = random_records(rng, 3, 4)
        index = build_index(records)
        sequences = {rec.study_id: f"seq-{rec.study_id}" for rec in records}
        attached = attach_shc(records, index, 1, sequences=sequences)
        for rec, cases in attached:
            assert cases[0].factual_sequence == f"seq-{cases[0].study_id}"


# Scores 32 records against a 9801 x 256 index (20 slabs) with k = n - 1, so every
# row's score is in the output, on argv[1] scoring threads, and prints a digest of
# the ids and float.hex scores.  With "oracle" it also checks each record against
# top_k_naive.
THREAD_PROBE = """
import hashlib, sys
import numpy as np
from sei import retrieval
from sei.corpus import ReportDocument, StudyRecord
from sei.retrieval import attach_shc, index_from_vectors, top_k_naive

retrieval._scoring_threads = lambda: int(sys.argv[1])
n, d = 9801, 256
rng = np.random.default_rng(9801)
vectors = rng.standard_normal((n, d))
ids = [f"s{i:05d}" for i in range(n)]
index = index_from_vectors(ids, vectors)
report = ReportDocument.from_text("s", "lungs clear.")
records = [
    StudyRecord(study_id=ids[r], report=report, entities=(), embedding=tuple(vectors[r].tolist()))
    for r in rng.choice(n, size=32, replace=False)
]
digest = hashlib.sha256()
for rec, cases in attach_shc(records, index, n - 1, sequences=dict.fromkeys(ids, "")):
    got = [(c.study_id, c.score.hex()) for c in cases]
    digest.update(repr(got).encode())
    if sys.argv[2:] == ["oracle"]:
        want = top_k_naive(index, np.asarray(rec.embedding), n - 1, exclude_id=rec.study_id)
        assert got == [(sid, s.hex()) for sid, s in want.hits], rec.study_id
print(digest.hexdigest())
"""


class TestBlasThreads:
    """attach_shc scores are the one-thread product's bits on any mix of BLAS and
    scoring threads.

    At n = 9801 (not a multiple of 4) a whole-matrix product on two OpenBLAS
    threads differs from one thread in a few last bits; the slab kernel does not,
    and each scoring thread scores whole query blocks over every slab.
    """

    def _probe(self, blas_threads, scoring_threads, *args):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads))
        env["PYTHONPATH"] = os.pathsep.join([str(Path(sei.__file__).parents[1]), env.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-c", THREAD_PROBE, str(scoring_threads), *args],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    def test_one_thread_equals_naive_and_two_threads_equal_one(self):
        one = self._probe(1, 1, "oracle")
        for blas_threads, scoring_threads in [(1, 2), (2, 1), (2, 2)]:
            assert self._probe(blas_threads, scoring_threads) == one, (blas_threads, scoring_threads)


class TestSerialization:
    def test_round_trip(self, tmp_path, rng):
        records = random_records(rng, 20, 7)
        index = build_index(records)
        path = tmp_path / "index.bin"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.ids == index.ids
        assert loaded.dim == index.dim
        assert loaded.normalized == index.normalized
        # float32 storage: values match at float32 precision
        assert np.allclose(loaded.matrix, index.matrix, atol=1e-6)
        # byte-stable: saving the loaded index reproduces the same file
        path2 = tmp_path / "index2.bin"
        save_index(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_same_results_after_reload(self, tmp_path, rng):
        records = random_records(rng, 50, 8)
        index = build_index(records)
        path = tmp_path / "index.bin"
        save_index(index, path)
        loaded = load_index(path)
        query = rng.standard_normal(8)
        assert [h[0] for h in top_k(loaded, query, 5).hits] == [
            h[0] for h in top_k_naive(loaded, query, 5).hits
        ]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "index.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(CorpusError, match="magic"):
            load_index(path)

    def test_truncated(self, tmp_path, rng):
        records = random_records(rng, 4, 4)
        index = build_index(records)
        path = tmp_path / "index.bin"
        save_index(index, path)
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(CorpusError, match="truncated|payload"):
            load_index(path)
