"""Retrieval engine: construction, oracle equivalence, ties, the exact score, serialization."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sei
from sei import retrieval
from sei.corpus import ReportDocument, StudyRecord
from sei.errors import CorpusError, ValidationError
from sei.retrieval import (
    EmbeddingIndex,
    attach_shc,
    index_from_vectors,
    load_index,
    save_index,
    top_k,
    top_k_naive,
)
from sei.see import see_extract


def plain_record(study_id, text="lungs are clear."):
    return StudyRecord(study_id=study_id, report=ReportDocument(text), entities=())


def random_embeddings(rng, n, d):
    """Raw vectors of studies s00000, s00001, ...: an unnormalized index, as load_embeddings returns."""
    return index_from_vectors([f"s{i:05d}" for i in range(n)], rng.standard_normal((n, d)), normalize=False)


def index_of(embeddings, normalize=True):
    """The index ``sei index`` builds over ``embeddings``."""
    return index_from_vectors(embeddings.ids, embeddings.matrix, normalize)


def records_of(embeddings):
    return [plain_record(sid) for sid in embeddings.ids]


def sequences_of(records):
    """The factual sequence of each record, keyed by study_id, as the see-extract stage writes them."""
    return {rec.study_id: see_extract(rec).rendered for rec in records}


class TestIndexFromVectors:
    def test_construction(self, rng):
        index = index_from_vectors(["a", "b", "c"], rng.standard_normal((3, 4)), normalize=False)
        assert index.n == 3
        assert len(index) == 3
        assert index.dim == 4
        assert not index.normalized

    def test_normalized_rows(self, rng):
        index = index_from_vectors([f"s{i}" for i in range(10)], rng.standard_normal((10, 6)), normalize=True)
        norms = np.linalg.norm(index.matrix, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-6)

    def test_duplicate_id(self):
        with pytest.raises(ValidationError, match="duplicate"):
            index_from_vectors(["a", "a"], [[1.0, 0.0], [0.0, 1.0]])

    def test_zero_records(self):
        with pytest.raises(ValidationError, match="zero records"):
            index_from_vectors([], [])


class TestTopK:
    def test_orthogonal_unit_hit(self):
        vecs = np.eye(4)
        index = index_from_vectors([f"s{i}" for i in range(4)], vecs, normalize=True)
        result = top_k(index, vecs[2], k=1)
        assert result.hits[0][0] == "s2"
        assert result.hits[0][1] == pytest.approx(1.0, abs=1e-12)

    def test_k_zero(self, rng):
        index = index_of(random_embeddings(rng, 5, 3))
        assert top_k(index, rng.standard_normal(3), 0).hits == ()

    def test_k_larger_than_candidates(self, rng):
        index = index_of(random_embeddings(rng, 4, 3))
        result = top_k(index, rng.standard_normal(3), 10, exclude_id="s00001")
        assert len(result.hits) == 3

    def test_dim_mismatch(self, rng):
        index = index_of(random_embeddings(rng, 4, 3))
        with pytest.raises(ValidationError, match="dimension"):
            top_k(index, rng.standard_normal(5), 2)

    def test_negative_k(self, rng):
        index = index_of(random_embeddings(rng, 4, 3))
        with pytest.raises(ValidationError, match=">= 0"):
            top_k(index, rng.standard_normal(3), -1)

    def test_oracle_equivalence_random(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 400))
            d = int(rng.integers(1, 64))
            k = int(rng.integers(0, 21))
            normalize = bool(rng.random() < 0.5)
            embeddings = random_embeddings(rng, n, d)
            index = index_of(embeddings, normalize=normalize)
            query = embeddings.matrix[int(rng.integers(0, n))]
            exclude = embeddings.ids[int(rng.integers(0, n))] if rng.random() < 0.5 else None
            fast = top_k(index, query, k, exclude_id=exclude)
            slow = top_k_naive(index, query, k, exclude_id=exclude)
            assert [h[0] for h in fast.hits] == [h[0] for h in slow.hits]
            assert [h[1] for h in fast.hits] == [h[1] for h in slow.hits]

    def test_zero_dimension_scores_zero(self):
        index = index_from_vectors(["a", "b", "c"], [[], [], []], normalize=False)
        for search in (top_k, top_k_naive):
            assert search(index, np.zeros(0), 5, exclude_id="b").hits == (("a", 0.0), ("c", 0.0))

    def test_tie_break_by_insertion_order(self):
        rows = [[1.0, 0.0], [1.0, 0.0], [0.5, 0.1], [1.0, 0.0]]
        index = index_from_vectors([f"s{i}" for i in range(4)], rows, normalize=False)
        result = top_k(index, np.array([1.0, 0.0]), 3)
        assert [h[0] for h in result.hits] == ["s0", "s1", "s3"]
        naive = top_k_naive(index, np.array([1.0, 0.0]), 3)
        assert result.hits == naive.hits

    def test_blocked_path_spans_blocks(self, rng):
        # more rows than one block so the bounded merge actually runs
        n = 9000
        d = 8
        index = index_of(random_embeddings(rng, n, d))
        query = rng.standard_normal(d)
        fast = top_k(index, query, 15)
        slow = top_k_naive(index, query, 15)
        assert fast.hits == slow.hits

    def test_scores_descending_and_bounded(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 50))
            index = index_of(random_embeddings(rng, n, 5), normalize=True)
            result = top_k_naive(index, rng.standard_normal(5), int(rng.integers(1, 10)))
            scores = [h[1] for h in result.hits]
            assert all(a >= b for a, b in zip(scores, scores[1:]))
            assert all(-1 - 1e-6 <= s <= 1 + 1e-6 for s in scores)

    def test_exclusion_single_record(self, rng):
        index = index_of(random_embeddings(rng, 1, 3))
        assert top_k_naive(index, rng.standard_normal(3), 5, exclude_id="s00000").hits == ()

    def test_determinism_across_runs(self, rng):
        index = index_of(random_embeddings(rng, 200, 16))
        query = rng.standard_normal(16)
        first = top_k(index, query, 10)
        second = top_k(index, query, 10)
        assert first == second


class TestAttachShc:
    def test_mutual_pair(self):
        records = [plain_record("a", "lungs clear."), plain_record("b", "heart normal.")]
        embeddings = index_from_vectors(["a", "b"], [[1.0, 0.0], [0.9, 0.1]], normalize=False)
        attached = attach_shc(embeddings.ids, index_of(embeddings), 1, embeddings, sequences_of(records))
        by_id = {row["study_id"]: row["cases"] for row in attached}
        assert by_id["a"][0]["study_id"] == "b"
        assert by_id["b"][0]["study_id"] == "a"
        assert by_id["a"][0]["factual_sequence"] == ""

    def test_k_zero_gives_empty_case_lists(self, rng):
        embeddings = random_embeddings(rng, 5, 4)
        records = records_of(embeddings)
        attached = attach_shc(embeddings.ids, index_of(embeddings), 0, embeddings, sequences_of(records))
        assert all(row["cases"] == [] for row in attached)

    def test_never_retrieves_self(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 40))
            embeddings = random_embeddings(rng, n, 6)
            k = int(rng.integers(1, n + 2))
            records = records_of(embeddings)
            for row in attach_shc(embeddings.ids, index_of(embeddings), k, embeddings, sequences_of(records)):
                assert row["study_id"] not in [c["study_id"] for c in row["cases"]]

    def test_missing_embedding_names_study(self, rng):
        embeddings = random_embeddings(rng, 3, 4)
        index = index_of(embeddings)
        records = records_of(embeddings) + [plain_record("missing", "ok.")]
        with pytest.raises(ValidationError, match="study 'missing' has no embedding"):
            attach_shc([rec.study_id for rec in records], index, 1, embeddings, sequences_of(records))

    def test_unindexed_record_rejected(self, rng):
        embeddings = random_embeddings(rng, 3, 4)
        index = index_from_vectors(embeddings.ids[:2], embeddings.matrix[:2])
        records = records_of(embeddings)
        with pytest.raises(ValidationError, match="not indexed"):
            attach_shc(embeddings.ids, index, 1, embeddings, sequences_of(records))

    def test_sequences_mapping_used(self, rng):
        embeddings = random_embeddings(rng, 3, 4)
        records = records_of(embeddings)
        sequences = {rec.study_id: f"seq-{rec.study_id}" for rec in records}
        attached = attach_shc(embeddings.ids, index_of(embeddings), 1, embeddings, sequences=sequences)
        for row in attached:
            assert row["cases"][0]["factual_sequence"] == f"seq-{row['cases'][0]['study_id']}"

    def test_float32_margin_keeps_the_rows_underflow_ranks_wrong(self):
        """Products near 1e-45 underflow in float32: the filter scores r10 above r5, the exact
        score r5 above r10, so a float32 margin of 0 keeps r10 alone.  A counterexample that
        test_attach_shc_matches_naive_across_slabs_and_blocks shrank to, without its patches."""
        far = [-5e-24, -2e-23, -2e-23]
        rows = [[-5e-23, -2e-22, -2e-22], *[far] * 4, [0.0, -1.4997884186649116e-22, -3.749471046662279e-23]]
        rows += [*[far] * 4, [-2.265791818800409e-23, -9.063167275201636e-23, -9.063167275201636e-23]]
        index = index_from_vectors([f"r{i}" for i in range(len(rows))], rows, normalize=False)
        query = np.asarray(rows[0])
        want = [(sid, score.hex()) for sid, score in top_k_naive(index, query, 1, exclude_id="r0").hits]
        assert want[0][0] == "r5"
        embeddings = index_from_vectors(["r0"], [rows[0]], normalize=False)
        (row,) = attach_shc(["r0"], index, 1, embeddings, sequences={sid: sid for sid in index.ids})
        assert [(c["study_id"], c["score"].hex()) for c in row["cases"]] == want
        assert [(sid, score.hex()) for sid, score in top_k(index, query, 1, exclude_id="r0").hits] == want


# d runs past 8 and past 128, where numpy's pairwise sum starts unrolling by 8 and
# where it splits a row in halves
EXACT_DIMS = [1, 7, 8, 9, 17, 64, 128, 129, 256, 257, 1000]


@pytest.mark.parametrize("d", EXACT_DIMS)
def test_exact_score_is_defined_by_code(rng, monkeypatch, d):
    """A row's exact score is its float64 widening times q summed by np.add.reduce:
    _block_hits' rescoring of any gathered subset of rows, by slabs of 1 to 3 rows or
    in one, and top_k_naive give each row the bits of that sum over the whole matrix,
    from float32 or float64 storage, and each lies within gamma_(d+1) * sum|m_j q_j|
    of the correctly rounded sum of the float64 products."""
    n = 37
    matrix = rng.standard_normal((n, d)) * rng.choice([1e-3, 1.0, 1e3], size=(n, 1))
    q = rng.standard_normal(d)
    ids = tuple(f"s{i:05d}" for i in range(n))
    ud = (d + 1) * 2.0**-53
    for stored in (matrix, matrix.astype("<f4")):
        wide = stored.astype(np.float64)
        whole = np.add.reduce(wide * q, axis=1)
        naive = dict(top_k_naive(EmbeddingIndex(dim=d, ids=ids, matrix=stored, normalized=False), q, n).hits)
        assert [naive[sid].hex() for sid in ids] == [s.hex() for s in whole.tolist()], stored.dtype
        for height in (1, 2, 3, n):
            monkeypatch.setattr(retrieval, "_SLAB_BYTES", height * 8 * d)
            for rows in (np.arange(n), np.flatnonzero(rng.random(n) < 0.3), np.array([n - 1])):
                got = retrieval._exact_scores(stored, q, rows)
                assert got.tobytes() == whole[rows].tobytes(), (stored.dtype, height, rows)
        for row, score in zip(wide, whole.tolist()):
            products = (row * q).tolist()
            assert abs(score - math.fsum(products)) <= ud / (1 - ud) * math.fsum(map(abs, products))


@pytest.mark.parametrize("d", EXACT_DIMS)
def test_query_norm_has_the_index_row_norm_bits(rng, d):
    """A query's norm has _row_norms' bits, so a normalized index turns each study's
    raw vector into that study's row, bit for bit, as a query or as a row."""
    n = 37
    vectors = rng.standard_normal((n, d)) * rng.uniform(1e-3, 1e3, (n, 1))
    (row_norms,) = retrieval._row_norms(vectors)
    assert b"".join(retrieval._norms(v).tobytes() for v in vectors) == row_norms.tobytes()
    index = index_from_vectors([f"s{i:05d}" for i in range(n)], vectors)
    for vector, row in zip(vectors, index.matrix):
        assert retrieval._prepare_query(index, vector).tobytes() == row.tobytes()


class TestSerialization:
    def test_round_trip(self, tmp_path, rng):
        index = index_of(random_embeddings(rng, 20, 7))
        path = tmp_path / "index.bin"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.ids == index.ids
        assert loaded.dim == index.dim
        assert loaded.normalized == index.normalized
        # the loaded matrix is the file's float32 payload, bit for bit
        payload = path.read_bytes()[-index.n * index.dim * 4 :]
        assert loaded.matrix.dtype == np.dtype("<f4") and loaded.matrix.tobytes() == payload
        assert np.allclose(loaded.matrix, index.matrix, atol=1e-6)
        # byte-stable: saving the loaded index reproduces the same file
        path2 = tmp_path / "index2.bin"
        save_index(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_same_results_after_reload(self, tmp_path, rng):
        index = index_of(random_embeddings(rng, 50, 8))
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
        index = index_of(random_embeddings(rng, 4, 4))
        path = tmp_path / "index.bin"
        save_index(index, path)
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(CorpusError, match="truncated|payload"):
            load_index(path)


class TestSlabEdges:
    """save_index, load_index and the row norms work one slab of rows at a time;
    where the slab edges fall changes no bit and no error."""

    D = 3
    H = 4  # slab height: _SLAB_BYTES below holds 4 float64 rows of D values

    @pytest.fixture(autouse=True)
    def slabs_of_h_rows(self, monkeypatch):
        monkeypatch.setattr(retrieval, "_SLAB_BYTES", self.H * self.D * 8)

    @pytest.mark.parametrize("n", [1, H - 1, H, H + 1, 3 * H + 2])
    @pytest.mark.parametrize("normalize", [True, False])
    def test_round_trip_is_bit_identical(self, tmp_path, rng, n, normalize):
        index = index_of(random_embeddings(rng, n, self.D), normalize)
        assert retrieval._slab_bounds(index.matrix) == [*range(0, n, self.H), n]
        path, again = tmp_path / "index.bin", tmp_path / "again.bin"
        save_index(index, path)
        loaded = load_index(path)
        payload = np.frombuffer(path.read_bytes()[-n * self.D * 4 :], dtype="<f4").reshape(n, self.D)
        assert loaded.matrix.dtype == np.dtype("<f4")
        assert loaded.matrix.tobytes() == payload.tobytes()
        assert loaded.matrix.tobytes() == index.matrix.astype("<f4").tobytes()
        save_index(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("n", [1, H + 1, 3 * H + 2])
    def test_normalized_rows_keep_the_bits_of_one_pass(self, rng, n):
        vectors = rng.standard_normal((n, self.D)) * rng.uniform(1e-3, 1e3, (n, 1))
        want = vectors / np.linalg.norm(vectors, axis=1)[:, None]
        assert index_from_vectors([f"s{i}" for i in range(n)], vectors).matrix.tobytes() == want.tobytes()

    def _saved(self, tmp_path, rng, normalize):
        """A file of 3h + 2 rows, so its last slab is h + 2 rows, and its bytes."""
        path = tmp_path / "index.bin"
        save_index(index_of(random_embeddings(rng, 3 * self.H + 2, self.D), normalize), path)
        return path, path.read_bytes()

    def test_nan_in_the_last_slab_comes_before_a_repeated_id(self, tmp_path, rng):
        path, blob = self._saved(tmp_path, rng, normalize=False)
        blob = blob.replace(b"s00001", b"s00000", 1)
        path.write_bytes(blob[:-4] + np.float32(np.nan).tobytes())
        with pytest.raises(CorpusError) as excinfo:
            load_index(path)
        assert str(excinfo.value) == f"{path}: index matrix contains non-finite values"
        path.write_bytes(blob)
        with pytest.raises(CorpusError, match="duplicate study_id 's00000'"):
            load_index(path)

    def test_non_unit_row_in_the_last_slab(self, tmp_path, rng):
        path, blob = self._saved(tmp_path, rng, normalize=True)
        last = np.frombuffer(blob[-4:], dtype="<f4")
        path.write_bytes(blob[:-4] + (2 * last).tobytes())
        with pytest.raises(CorpusError) as excinfo:
            load_index(path)
        assert str(excinfo.value) == f"{path}: index flagged normalized but rows are not unit length"

    def test_overflow_in_the_last_slab_names_its_row_and_keeps_the_file(self, tmp_path, rng):
        path, blob = self._saved(tmp_path, rng, normalize=False)
        n = 3 * self.H + 2
        matrix = rng.standard_normal((n, self.D))
        matrix[n - 2, 1] = 1e39
        ids = tuple(f"s{i:05d}" for i in range(n))
        with pytest.raises(ValidationError) as excinfo:
            save_index(EmbeddingIndex(dim=self.D, ids=ids, matrix=matrix, normalized=False), path)
        assert str(excinfo.value) == (
            f"study 's{n - 2:05d}' has embedding value 1e+39, which does not fit in the index file's float32"
        )
        assert path.read_bytes() == blob
        assert sorted(p.name for p in tmp_path.iterdir()) == ["index.bin"]


LOAD_PEAK_PROBE = """
import sys
from sei.retrieval import load_index

def hwm_kib():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

before = hwm_kib()
index = load_index(sys.argv[1])
print(hwm_kib() - before, index.matrix.nbytes)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_load_index_peak_is_the_matrix_plus_a_slab(tmp_path):
    """Loading a 16,384 x 256 index grows the peak RSS of a fresh process by
    less than its float64 matrix plus 8 MiB (reading the whole file at once took
    about 2.5 times the matrix)."""
    rng = np.random.default_rng(16384)
    ids = [f"s{i:05d}" for i in range(16384)]
    path = tmp_path / "index.bin"
    save_index(index_from_vectors(ids, rng.standard_normal((16384, 256))), path)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(Path(sei.__file__).parents[1]), env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", LOAD_PEAK_PROBE, str(path)], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    grew_kib, matrix_bytes = map(int, proc.stdout.split())
    assert grew_kib * 1024 < matrix_bytes + (8 << 20), (grew_kib, matrix_bytes)
