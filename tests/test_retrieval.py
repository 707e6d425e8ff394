"""Retrieval engine: construction, oracle equivalence, ties, BLAS threads, serialization."""

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


# Scores 32 records against an argv[1] x 256 index with k = n - 1, through attach_shc
# and through top_k, so every row's score is in the output and each record scores the
# index slab by slab, and prints a digest of the ids and float.hex scores.  With
# "oracle" it also checks each record's hits from both against top_k_naive, and
# their scores against one product over the whole matrix.
BLAS_PROBE = """
import hashlib, sys
import numpy as np
from sei.retrieval import attach_shc, index_from_vectors, top_k, top_k_naive

n, d = int(sys.argv[1]), 256
rng = np.random.default_rng(9801)
vectors = rng.standard_normal((n, d))
ids = [f"s{i:05d}" for i in range(n)]
index = index_from_vectors(ids, vectors)
embeddings = index_from_vectors(ids, vectors, normalize=False)
picked = [ids[r] for r in rng.choice(n, size=32, replace=False)]
digest = hashlib.sha256()
for row in attach_shc(picked, index, n - 1, embeddings, sequences=dict.fromkeys(ids, "")):
    sid = row["study_id"]
    query = vectors[ids.index(sid)]
    got = [(c["study_id"], c["score"].hex()) for c in row["cases"]]
    alone = [(hit, s.hex()) for hit, s in top_k(index, query, n - 1, exclude_id=sid).hits]
    digest.update(repr((got, alone)).encode())
    if sys.argv[2:] == ["oracle"]:
        want = top_k_naive(index, query, n - 1, exclude_id=sid)
        assert got == alone == [(hit, s.hex()) for hit, s in want.hits], sid
        whole = index.matrix @ (query / np.linalg.norm(query))
        assert [s for _, s in got] == [whole[index.row_of(hit)].hex() for hit, _ in got], sid
print(digest.hexdigest())
"""


class TestBlasThreads:
    """attach_shc, top_k and top_k_naive scores are the one-thread product's bits
    on one BLAS thread or two.

    With OpenBLAS 0.3.31 at d = 256, a whole-matrix product on two threads differed
    from one thread in a few last bits at n = 9801 and at n = 9804, a multiple of 4,
    and matched at n = 20000; the exact scores of attach_shc, top_k and top_k_naive
    come from products of at most 7 rows or of one slab of at most 1 MiB, which did
    not differ.
    """

    def _probe(self, blas_threads, n, *args):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads))
        env["PYTHONPATH"] = os.pathsep.join([str(Path(sei.__file__).parents[1]), env.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-c", BLAS_PROBE, str(n), *args], capture_output=True, text=True, env=env, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    @pytest.mark.parametrize("n", [9801, 9804])
    def test_one_thread_equals_naive_and_two_threads_equal_one(self, n):
        assert self._probe(2, n) == self._probe(1, n, "oracle")


@pytest.mark.parametrize("d", [8, 17, 64])
def test_gemv_rows_gives_whole_matrix_bits_by_group_and_by_slab(rng, monkeypatch, d):
    """Both of _gemv_rows' paths, the stacked 4-row groups that hold its rows or the
    whole matrix, each scored by slabs of 4, 8 or 12 rows (a slab height of 7, 11 or
    15 rows, which the last slab can fill), give each row the bits of the
    whole-matrix float64 product, for every n up to 39, from a float64 matrix or
    from a float32 one, which they widen (below 8 columns OpenBLAS sums every row
    alike, so d starts at 8)."""
    for n in range(1, 40):
        matrix = rng.standard_normal((n, d)) * rng.choice([1e-3, 1.0, 1e3], size=(n, 1))
        q = rng.standard_normal(d)
        for stored in (matrix, matrix.astype("<f4")):
            want = stored.astype(np.float64) @ q
            for rows in (np.arange(n), np.flatnonzero(rng.random(n) < 0.3)):
                for group_cost, height in [(c, h) for c in (0, n + 1) for h in (7, 11, 15)]:
                    monkeypatch.setattr(retrieval, "_GROUP_COST", group_cost)
                    monkeypatch.setattr(retrieval, "_SLAB_BYTES", height * 8 * d)
                    got = retrieval._gemv_rows(stored, q, rows)
                    assert got.tobytes() == want[rows].tobytes(), (n, stored.dtype, group_cost, height)


class ProductRows:
    """A query vector that records the row count of each product a matrix makes with it."""

    __array_ufunc__ = None  # so ``matrix @ query`` calls __rmatmul__

    def __init__(self, q):
        self.q, self.rows = q, []

    def __rmatmul__(self, matrix):
        self.rows.append(len(matrix))
        return matrix @ self.q


def gemv_product_rows(matrix):
    """The row count of each product ``_gemv`` makes over ``matrix``, in order."""
    query = ProductRows(np.ones(matrix.shape[1]))
    assert len(retrieval._gemv(matrix, query)) == len(matrix)
    return query.rows


@pytest.mark.parametrize("d, ns", [(256, [512, 513, 514, 515, 516, 1027, 1031]), (768, [170, 171, 173, 341, 343])])
def test_every_gemv_product_fits_a_slab(d, ns):
    """Each product _gemv makes holds at most _SLAB_BYTES of float64, though its
    last product takes in the remainder of fewer than 4 rows."""
    for n in ns:
        rows = gemv_product_rows(np.zeros((n, d)))
        assert sum(rows) == n and max(rows) <= retrieval._slab_height(d), (n, rows)


def test_every_gemv_product_fits_a_slab_of_any_height(monkeypatch):
    """At every slab height, each product holds at most that many rows, or 7 where
    the height is less."""
    d = 8
    for height in range(1, 20):
        monkeypatch.setattr(retrieval, "_SLAB_BYTES", height * 8 * d)
        for n in range(1, 60):
            rows = gemv_product_rows(np.zeros((n, d)))
            assert sum(rows) == n and max(rows) <= max(height, 7), (height, n, rows)


@pytest.mark.parametrize("d", [8, 17, 64])
def test_naive_gives_whole_matrix_bits(rng, d):
    """top_k_naive, the oracle, scores every row with the bits of the whole-matrix
    float64 product, for every n up to 39, from a float64 matrix or a float32 one."""
    for n in range(1, 40):
        matrix = rng.standard_normal((n, d)) * rng.choice([1e-3, 1.0, 1e3], size=(n, 1))
        q = rng.standard_normal(d)
        ids = tuple(f"s{i:05d}" for i in range(n))
        for stored in (matrix, matrix.astype("<f4")):
            index = EmbeddingIndex(dim=d, ids=ids, matrix=stored, normalized=False)
            got = dict(top_k_naive(index, q, n).hits)
            want = stored.astype(np.float64) @ q
            assert [got[sid].hex() for sid in ids] == [s.hex() for s in want.tolist()], (n, stored.dtype)


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
