"""Exact top-K dot-product retrieval over dense study embeddings.

Scores are plain dot products (cosine once rows and query are unit length,
which is the default).  Two implementations share one contract:
``top_k_naive`` scans and fully sorts, while ``top_k`` partitions the score
vector around its k-th best score and sorts only the rows that reach it.
Both order ties by row insertion order, so results are reproducible bit for
bit.  Either returns a ``RetrievalResult``, which is the hits and no more.

Embedding files are JSONL with ``{"study_id": id, "vec": [number x d]}``.
``load_embeddings`` parses them straight into the rows of one float64
matrix, returned as an unnormalized ``EmbeddingIndex``.

``attach_shc`` queries with each record's own row of the raw embeddings
matrix that ``load_embeddings`` returns, normalized here when the index
is.  It scores its records on the calling thread in blocks of
``_QUERY_BLOCK`` queries.  A filter scores each block with one
matrix-matrix product, as FAISS ``IndexFlatIP`` runs query batches
(Johnson, Douze and Jegou, arXiv:1702.08734), and keeps each query's rows
within a proven rounding margin of its k-th best score; only those rows are
rescored exactly and ranked.  An exact score has the bits of one
matrix-vector product over the whole matrix on one BLAS thread, by the
4-row rule: OpenBLAS sums each row of a matrix-vector product by its place
in a group of 4 rows, and a product of a single row goes to a dot kernel
instead.  So ``_gemv_rows`` scores a row in its group of 4 or in a slab of
groups, and the last group takes in the remainder of fewer than 4 rows.
OpenBLAS 0.3.31 gives a product of at most ``_SLAB_BYTES`` the same bits
on one thread or two, so ``attach_shc``'s are the same on any BLAS thread
count.  ``top_k`` and ``top_k_naive`` answer one query with one product
over the whole matrix and equal them on one BLAS thread; on two, OpenBLAS
(d = 256) moved a few last bits at n = 9801 to 9804, 20001 and 20003.

Indexes serialize to a small binary format: magic "SEIX", u32 version,
u32 n, u32 d, u8 normalized flag, length-prefixed UTF-8 ids, then the
row-major little-endian float32 matrix.  ``load_index`` and
``save_index`` stream the matrix one slab of rows (``_slab_bounds``) at a
time through one reused float32 buffer.  The unit-norm check and the norms
``index_from_vectors`` divides by run one slab at a time too; a row's norm
does not depend on which slab holds it, so every bit is that of one pass
over the whole matrix.  Loading or saving an index holds the float64 matrix
plus one slab at most.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .corpus import StudyRecord, _json_list, atomic_write, read_keyed_jsonl
from .errors import CorpusError, ValidationError, as_finite_array, check_at_least

__all__ = [
    "EmbeddingIndex",
    "RetrievalResult",
    "SimilarCase",
    "index_from_vectors",
    "load_embeddings",
    "top_k",
    "top_k_naive",
    "attach_shc",
    "save_index",
    "load_index",
]

_MAGIC = b"SEIX"
_HEADER = "<4sIIIB"  # magic, version, n, d, normalized flag
_VERSION = 1
_SLAB_BYTES = 1 << 20  # float64 index rows per slab: scored, read, written or norm-checked in one pass
_QUERY_BLOCK = 64  # queries attach_shc scores with one matrix-matrix product
_GROUP_COST = 16  # rows of a pass over the matrix that take as long as one kept row rescored on its own


@dataclass
class EmbeddingIndex:
    """Immutable id-addressed dense-vector store.

    A normalized index checks that its rows are unit length one slab at a
    time, so the check holds one slab of temporaries next to the matrix.
    """

    dim: int
    ids: tuple[str, ...]
    matrix: np.ndarray  # (n, dim) float64
    normalized: bool
    _row_of: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        if self.matrix.shape != (len(self.ids), self.dim):
            raise ValidationError(
                f"index matrix shape {self.matrix.shape} does not match "
                f"{len(self.ids)} ids of dimension {self.dim}"
            )
        self._row_of = {}
        for row, sid in enumerate(self.ids):
            if sid in self._row_of:
                raise ValidationError(f"duplicate study_id {sid!r} in index")
            self._row_of[sid] = row
        if self.normalized and not all(np.allclose(norms, 1.0, atol=1e-6) for norms in _row_norms(self.matrix)):
            raise ValidationError("index flagged normalized but rows are not unit length")
        self.matrix.setflags(write=False)

    def __reduce__(self):
        # unpickle through __init__, so the copy is checked and read-only too
        return (EmbeddingIndex, (self.dim, self.ids, self.matrix, self.normalized))

    @property
    def n(self) -> int:
        return len(self.ids)

    def __len__(self) -> int:
        return self.n

    def row_of(self, study_id: str) -> int | None:
        return self._row_of.get(study_id)


@dataclass(frozen=True)
class RetrievalResult:
    """Top-K hits for one query, scores non-increasing, query excluded."""

    hits: tuple[tuple[str, float], ...]


@dataclass(frozen=True)
class SimilarCase:
    """One retrieved historical case: id, score, and its factual sequence."""

    study_id: str
    score: float
    factual_sequence: str


def index_from_vectors(
    ids: Sequence[str], vectors: Sequence[Sequence[float]], normalize: bool = True
) -> EmbeddingIndex:
    """Build an index whose row i is ``vectors[i]`` under ``ids[i]``.

    The vectors must share one dimension; rows are L2-normalized iff
    ``normalize``.
    """
    if not ids:
        raise ValidationError("cannot build an index from zero records")
    matrix = np.asarray(vectors, dtype=np.float64)
    if normalize:
        with np.errstate(over="ignore"):
            norms = np.concatenate(list(_row_norms(matrix)))
        zero = np.nonzero(norms == 0.0)[0]
        if zero.size:
            raise ValidationError(
                f"study {ids[int(zero[0])]!r} has a zero-norm embedding; cannot normalize"
            )
        overflow = np.nonzero(~np.isfinite(norms))[0]
        if overflow.size:
            raise ValidationError(
                f"study {ids[int(overflow[0])]!r} has an embedding whose norm overflows; "
                "cannot normalize"
            )
        matrix = matrix / norms[:, None]
    return EmbeddingIndex(dim=matrix.shape[1], ids=tuple(ids), matrix=matrix, normalized=normalize)


def load_embeddings(path: str | Path) -> EmbeddingIndex:
    """Read an embeddings JSONL file into an unnormalized ``EmbeddingIndex``.

    Row i of its float64 matrix is the file's i-th vector, each value the
    ``float`` of its JSON number.  All vectors must share one dimension and
    hold finite JSON numbers (not ``true``/``false`` or numeric strings, and
    no integer beyond float range); duplicates are rejected.
    """
    matrix = np.empty((0, 0))
    n = 0

    def row(raw) -> int:
        nonlocal matrix, n
        _json_list(raw, float, "field 'vec'")
        if n == 0:
            matrix = np.empty((1024, len(raw)))
        elif len(raw) != matrix.shape[1]:
            raise ValidationError(f"vector of length {len(raw)} but corpus dimension is {matrix.shape[1]}")
        if n == len(matrix):
            matrix.resize((2 * n, matrix.shape[1]), refcheck=False)  # no view of it exists yet
        try:
            matrix[n] = raw  # numpy takes each value's float()
        except OverflowError:
            raise ValidationError("field 'vec' holds an integer too large for a float") from None
        if not np.isfinite(matrix[n]).all():
            raise ValidationError("field 'vec' holds a NaN or infinite value")
        n += 1
        return n - 1

    ids = tuple(read_keyed_jsonl(path, "vec", row))
    matrix.resize((n, matrix.shape[1]), refcheck=False)
    return EmbeddingIndex(dim=matrix.shape[1], ids=ids, matrix=matrix, normalized=False)


def _prepare_query(index: EmbeddingIndex, query: np.ndarray) -> np.ndarray:
    q = np.asarray(query, dtype=np.float64)
    if q.ndim != 1 or q.shape[0] != index.dim:
        raise ValidationError(
            f"query has dimension {q.shape[0] if q.ndim == 1 else q.shape} "
            f"but the index dimension is {index.dim}"
        )
    if index.normalized:
        norm = float(np.linalg.norm(q))
        if norm == 0.0:
            raise ValidationError("cannot normalize a zero-norm query")
        q = q / norm
    return q


def _result(index: EmbeddingIndex, rows: np.ndarray, scores: np.ndarray) -> RetrievalResult:
    hits = tuple((index.ids[int(r)], float(s)) for r, s in zip(rows, scores))
    return RetrievalResult(hits=hits)


def _slab_bounds(matrix: np.ndarray) -> list[int]:
    """Slab edges over ``matrix``'s rows, 0 to n; a slab is as many rows as fit in ``_SLAB_BYTES``, at least 1."""
    n, dim = matrix.shape
    height = max(1, _SLAB_BYTES // max(dim * matrix.itemsize, 1))
    return [*range(0, n, height), n]


def _row_norms(matrix: np.ndarray) -> Iterator[np.ndarray]:
    """The L2 norms of ``matrix``'s rows, one array per slab of rows, in row order."""
    bounds = _slab_bounds(matrix)
    for lo, hi in zip(bounds, bounds[1:]):
        yield np.linalg.norm(matrix[lo:hi], axis=1)


def _gemv_rows(matrix: np.ndarray, q: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``(matrix @ q)[rows]``, ``rows`` ascending, in one-BLAS-thread bits: by 4-row group, or by slab when cheaper."""
    n, dim = matrix.shape
    last = max(0, n - 4 - n % 4)  # the last group runs to row n
    if len(rows) * _GROUP_COST > n:
        edges = [*range(0, last + 1, max(4, _SLAB_BYTES // (8 * dim) // 4 * 4)), n]
        return np.concatenate([matrix[lo:hi] @ q for lo, hi in zip(edges, edges[1:])])[rows]
    out = np.empty(len(rows))
    hi = 0
    for i, row in enumerate(rows.tolist()):
        if row >= hi:  # rows ascend, so each group is scored once
            lo = min(row - row % 4, last)
            hi = n if lo == last else lo + 4
            group = matrix[lo:hi] @ q
        out[i] = group[row - lo]
    return out


def _select(index: EmbeddingIndex, scores: np.ndarray, k: int, skip: int | None) -> RetrievalResult:
    """The k best rows of ``scores``, never row ``skip``; needs 1 <= k <= the candidates.

    ``np.partition`` finds the k-th best score; every row reaching it is
    kept, so ties at the cut are complete, and only those rows are sorted.
    Ties break toward the earlier row and NaN scores rank last, as in the
    naive scan's ``lexsort``.
    """
    neg = -scores  # ascending order of neg is the ranking; NaN sorts last, as in lexsort
    if skip is not None:
        neg[skip] = np.inf
    kth = np.partition(neg, k - 1)[k - 1]
    rows = np.flatnonzero(~(neg > kth))
    if skip is not None:
        rows = rows[rows != skip]
    rows = rows[np.lexsort((rows, neg[rows]))[:k]]
    return _result(index, rows, scores[rows])


def top_k(
    index: EmbeddingIndex,
    query: np.ndarray,
    k: int,
    exclude_id: str | None = None,
) -> RetrievalResult:
    """Exact top-k by dot product: partial selection, then an exact tie-break.

    Scores come from the same matrix-vector product over the whole matrix
    as the naive scan, so they are bit-identical to it; selection is
    ``_select``.  Ties break toward the earlier row; ``exclude_id`` never
    appears; asking for more hits than candidates returns all of them.
    """
    check_at_least(0, k=k)
    q = _prepare_query(index, query)
    skip = index.row_of(exclude_id) if exclude_id is not None else None
    k = min(k, index.n - (skip is not None))
    if k == 0:
        return RetrievalResult(hits=())
    return _select(index, index.matrix @ q, k, skip)


def top_k_naive(
    index: EmbeddingIndex,
    query: np.ndarray,
    k: int,
    exclude_id: str | None = None,
) -> RetrievalResult:
    """Reference implementation: full scan, full sort.  Same contract as top_k."""
    check_at_least(0, k=k)
    q = _prepare_query(index, query)
    scores = index.matrix @ q
    rows = np.arange(index.n, dtype=np.int64)
    skip = index.row_of(exclude_id) if exclude_id is not None else None
    if skip is not None:
        keep = rows != skip
        rows = rows[keep]
        scores = scores[keep]
    order = np.lexsort((rows, -scores))[:k]
    return _result(index, rows[order], scores[order])


def _block_hits(
    index: EmbeddingIndex, queries: np.ndarray, skips: list[int], k: int, scores: np.ndarray, big: float
) -> list[tuple[tuple[str, float], ...]]:
    """Each query's k best rows but its row in ``skips``, as ``top_k_naive`` ranks exact scores; ``big`` is max|M|."""
    # The margin.  Any order of summing d products, FMA included, errs by at
    # most E = gamma_d * sum|m_j q_j| + d * 2**-1074, gamma_d = d*u / (1 - d*u),
    # u = 2**-53 (Higham 2002, section 3.1; under gradual underflow a product
    # errs by at most 2**-1075 more, the eta of section 2.1), and sum|m_j q_j|
    # <= B = d * big * max|q|.  So a filter score is within 2E of the exact one:
    # k exact scores reach kth - 2E, kth the k-th best filter score, and every
    # row of the exact top k, ties at the cut included, has a filter score of
    # at least kth - 4E.  ``err`` takes 2B for B, which covers the roundings in
    # computing E, plus 8 spare units of 2**-1074.  It is inf where 2B, and so
    # a partial sum, could overflow, and NaN after a NaN or inf; the floor is
    # then not finite, and that query keeps every row.
    d = index.dim
    gamma = d * 2.0**-53 / (1 - d * 2.0**-53)
    with np.errstate(over="ignore", invalid="ignore"):
        err = gamma * (2.0 * d * big * np.abs(queries).max(axis=1)) + (d + 8) * 2.0**-1074
    np.matmul(queries, index.matrix.T, out=scores)
    found = []
    for q, skip, approx, e in zip(queries, skips, scores, err):
        approx[skip] = -np.inf
        with np.errstate(invalid="ignore"):
            floor = np.partition(approx, -k)[-k] - 4 * e
        rows = np.flatnonzero(approx >= floor) if np.isfinite(floor) else np.delete(np.arange(index.n), skip)
        exact = _gemv_rows(index.matrix, q, rows)
        order = np.lexsort((rows, -exact))[:k]  # NaN last, as in top_k_naive
        found.append(_result(index, rows[order], exact[order]).hits)
    return found


def _shc_query(index: EmbeddingIndex, embeddings: EmbeddingIndex, rec: StudyRecord) -> np.ndarray:
    """Check one ``attach_shc`` record in the order ``top_k`` would; return its query."""
    row = embeddings.row_of(rec.study_id)
    if row is None:
        raise ValidationError(f"study {rec.study_id!r} has no embedding")
    if index.row_of(rec.study_id) is None:
        raise ValidationError(f"study {rec.study_id!r} is not indexed")
    return _prepare_query(index, embeddings.matrix[row])


def attach_shc(
    records: Sequence[StudyRecord],
    index: EmbeddingIndex,
    k: int,
    embeddings: EmbeddingIndex,
    sequences: Mapping[str, str],
) -> list[tuple[StudyRecord, tuple[SimilarCase, ...]]]:
    """Pair each record with its top-k similar *other* studies.

    Every record must have a row in ``embeddings``, the raw vectors its
    query comes from, and be present in the index (its own id is excluded
    from its results).  ``sequences`` maps study_id to a rendered factual
    sequence.

    Each block of ``_QUERY_BLOCK`` records is checked up to the first that
    fails; the rest are scored by ``_block_hits``, whose hits equal
    ``top_k``'s on one BLAS thread, bit for bit, and their hits' sequences
    looked up before the check error is raised, so errors come as one record
    at a time would raise them and no later record is looked at.
    """
    check_at_least(0, k=k)
    hits = min(k, index.n - 1)
    big = np.maximum(index.matrix.max(initial=0.0), -index.matrix.min(initial=0.0))
    scores = np.empty((min(_QUERY_BLOCK, len(records)), index.n))
    out = []
    for start in range(0, len(records), _QUERY_BLOCK):
        queries, error = [], None
        for rec in records[start : start + _QUERY_BLOCK]:
            try:
                queries.append(_shc_query(index, embeddings, rec))
            except ValidationError as exc:  # raised after the records before it
                error = exc
                break
        block = records[start : start + len(queries)]
        found = [()] * len(block)
        if hits > 0 and block:
            skips = [index.row_of(rec.study_id) for rec in block]
            found = _block_hits(index, np.stack(queries), skips, hits, scores[: len(block)], big)
        for rec, rec_hits in zip(block, found):
            for sid, _ in rec_hits:
                if sid not in sequences:
                    raise ValidationError(f"no factual sequence for retrieved study {sid!r}")
            out.append((rec, tuple(SimilarCase(sid, score, sequences[sid]) for sid, score in rec_hits)))
        if error is not None:
            raise error
    return out


def _float32_slabs(matrix: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Each slab of ``matrix``'s rows as its first row and a float32 array of its shape.

    Every array is a view of one buffer, so a pass over the slabs holds one
    slab of float32 at a time.
    """
    bounds = _slab_bounds(matrix)
    dim = matrix.shape[1]
    buffer = np.empty(max((hi - lo for lo, hi in zip(bounds, bounds[1:])), default=0) * dim, dtype="<f4")
    for lo, hi in zip(bounds, bounds[1:]):
        yield lo, buffer[: (hi - lo) * dim].reshape(hi - lo, dim)


def save_index(index: EmbeddingIndex, path: str | Path) -> None:
    """Write the binary index format described in the module docstring.

    The matrix is narrowed to float32, checked and written one slab at a
    time; a value float32 cannot hold raises naming its study and value, and
    ``path`` then keeps its old content.
    """
    with atomic_write(path, binary=True) as handle:
        handle.write(struct.pack(_HEADER, _MAGIC, _VERSION, index.n, index.dim, int(index.normalized)))
        for sid in index.ids:
            raw = sid.encode("utf-8")
            handle.write(struct.pack("<I", len(raw)) + raw)
        for lo, slab in _float32_slabs(index.matrix):
            with np.errstate(over="ignore"):
                np.copyto(slab, index.matrix[lo : lo + len(slab)], casting="unsafe")
            overflow = np.argwhere(np.isinf(slab))
            if overflow.size:
                row, col = overflow[0]
                raise ValidationError(
                    f"study {index.ids[lo + row]!r} has embedding value {float(index.matrix[lo + row, col])!r}, "
                    "which does not fit in the index file's float32"
                )
            handle.write(slab)


def load_index(path: str | Path) -> EmbeddingIndex:
    """Read an index written by save_index; the matrix loads as float64.

    The header and id table are read first, each id's length checked
    against the file size; then the float32 payload is read one slab at a
    time into one reused buffer, widened into the preallocated matrix and
    checked finite.  Every error, a NaN or infinite value or a repeated id
    among them, is a CorpusError starting with ``path``.
    """
    ids: list[str] = []
    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        try:
            offset = struct.calcsize(_HEADER)
            magic, version, n, dim, normalized = struct.unpack(_HEADER, handle.read(offset))
            if magic != _MAGIC:
                raise ValidationError(f"bad magic {magic!r}, expected {_MAGIC!r}")
            if version != _VERSION:
                raise ValidationError(f"unsupported index version {version}")
            for _ in range(n):
                (length,) = struct.unpack("<I", handle.read(4))
                offset += 4 + length
                if offset > size:
                    raise ValidationError("index file truncated in id table")
                ids.append(handle.read(length).decode("utf-8"))
            if size - offset != n * dim * 4:
                raise ValidationError(f"matrix payload is {size - offset} bytes, expected {n * dim * 4}")
            matrix = np.empty((n, dim))
            for lo, slab in _float32_slabs(matrix):
                if handle.readinto(slab) != slab.nbytes:
                    raise ValidationError("index file truncated")
                rows = matrix[lo : lo + len(slab)]
                with np.errstate(invalid="ignore"):  # a signalling NaN warns as it widens; it is rejected here
                    np.copyto(rows, slab)
                as_finite_array(rows, "index matrix", 2)
            return EmbeddingIndex(dim=dim, ids=tuple(ids), matrix=matrix, normalized=bool(normalized))
        except struct.error:
            raise CorpusError(f"{path}: index file truncated") from None
        except UnicodeDecodeError:
            raise CorpusError(f"{path}: id {len(ids) + 1} in the id table is not valid UTF-8") from None
        except ValidationError as exc:
            raise CorpusError(f"{path}: {exc}") from None
