"""Exact top-K dot-product retrieval over dense study embeddings.

Scores are plain dot products (cosine once rows and query are unit length,
which is the default).  Two implementations share one contract:
``top_k_naive`` scans and fully sorts, while ``top_k`` partitions the score
vector around its k-th best score and sorts only the rows that reach it.
Both order ties by row insertion order, so results are reproducible bit for
bit.

``attach_shc`` queries with each record's own row of the raw embeddings
matrix that ``corpus.load_embeddings`` returns, normalized here when the
index is.  It scores its records in blocks of ``_QUERY_BLOCK`` queries.  It
walks the index in slabs of rows that fit in ``_SLAB_BYTES`` and runs one
matrix-vector product per query on each slab while the slab is still in
cache, the blocked exact search of FAISS ``IndexFlatIP`` (Johnson,
Douze and Jegou, arXiv:1702.08734).  The bits match one product over the
whole matrix because of the 4-row rule: OpenBLAS sums each row of a
matrix-vector product by its place in a group of 4 rows, and a product of a
single row goes to a dot kernel instead.  So every slab starts on a
multiple of 4 rows, and the last slab ends at row n and takes in any
remainder of fewer than 4 rows.  ``top_k`` and ``top_k_naive`` answer one
query, which has nothing to reuse from cache, so they keep one product over
the whole matrix.

Scoring threads: ``attach_shc`` runs its blocks on a pool of one thread
per CPU the process may run on (``_scoring_threads``; no option sets it).
Each task checks, scores and selects one whole block, so every product is
still a slab on the 4-row grid and the bits do not depend on the pool size.
The calling thread takes the blocks in record order, so errors come as one
record at a time would raise them.

Score bits and BLAS threads: ``attach_shc`` scores are the bits of the
whole-matrix product run on one BLAS thread, on any BLAS thread count.
``top_k`` and ``top_k_naive`` equal them when their product runs on one
thread.  On more, OpenBLAS may split the rows at a point that is not a
multiple of 4, which moves a few last bits when n is not a multiple of 4.

Indexes serialize to a small binary format: magic "SEIX", u32 version,
u32 n, u32 d, u8 normalized flag, length-prefixed UTF-8 ids, then the
row-major little-endian float32 matrix.  Reads and writes stream the
matrix one slab of rows at a time (``_slab_bounds`` in groups of 1 row)
through one reused float32 buffer: ``load_index`` widens each slab into the
preallocated float64 matrix and checks it is finite, and ``save_index``
narrows, overflow-checks and writes each slab.  The unit-norm check and the
norms ``index_from_vectors`` divides by run one slab at a time too; a row's
norm does not depend on which slab holds it, so every bit is that of one
pass over the whole matrix.  Loading or saving an index holds the float64
matrix plus one slab at most.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .corpus import StudyRecord, atomic_write
from .errors import CorpusError, ValidationError, as_finite_array, check_at_least
from .see import see_extract

__all__ = [
    "EmbeddingIndex",
    "RetrievalResult",
    "SimilarCase",
    "index_from_vectors",
    "top_k",
    "top_k_naive",
    "attach_shc",
    "save_index",
    "load_index",
]

_MAGIC = b"SEIX"
_HEADER = "<4sIIIB"  # magic, version, n, d, normalized flag
_VERSION = 1
_SLAB_BYTES = 1 << 20  # float64 index rows per slab: scored, read, written or norm-checked in one pass; stays in L2
_QUERY_BLOCK = 64  # queries attach_shc scores per pass over the index


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

    query_id: str | None
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


def _result(index: EmbeddingIndex, rows: np.ndarray, scores: np.ndarray, query_id) -> RetrievalResult:
    hits = tuple((index.ids[int(r)], float(s)) for r, s in zip(rows, scores))
    return RetrievalResult(query_id=query_id, hits=hits)


def _scoring_threads() -> int:
    """Threads that score ``attach_shc``'s blocks: one per CPU this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _slab_bounds(matrix: np.ndarray, group: int = 4) -> list[int]:
    """Slab edges over the rows of ``matrix``, first 0 and last n.

    Each slab is the largest multiple of ``group`` rows that fits in
    ``_SLAB_BYTES`` (at least ``group``), and the last takes in a remainder
    of fewer than ``group`` rows.  Scoring slabs keep the 4-row rule in the
    module docstring; a pass that treats each row on its own (norms, file
    IO) takes groups of 1.
    """
    n, dim = matrix.shape
    height = max(group, _SLAB_BYTES // max(dim * matrix.itemsize, 1) // group * group)
    bounds = list(range(0, n, height))
    if len(bounds) > 1 and n - bounds[-1] < group:
        bounds.pop()
    bounds.append(n)
    return bounds


def _row_norms(matrix: np.ndarray) -> Iterator[np.ndarray]:
    """The L2 norms of ``matrix``'s rows, one array per slab of rows, in row order."""
    bounds = _slab_bounds(matrix, 1)
    for lo, hi in zip(bounds, bounds[1:]):
        yield np.linalg.norm(matrix[lo:hi], axis=1)


def _score_run(matrix: np.ndarray, bounds: list[int], queries: np.ndarray, out: np.ndarray) -> None:
    """``out[j, lo:hi] = matrix[lo:hi] @ queries[j]`` for each slab between ``bounds``.

    ``queries`` is a stack of column vectors, shape (m, d, 1), so numpy runs
    each slab as one matrix-vector product per query: the bits of the
    whole-matrix product on one BLAS thread.  OpenBLAS gives a slab of at
    most 1 MiB the same bits on one thread or two, so the result does not
    depend on the BLAS thread count either.
    """
    for lo, hi in zip(bounds, bounds[1:]):
        np.matmul(matrix[lo:hi], queries, out=out[:, lo:hi, None])


def _select(
    index: EmbeddingIndex, scores: np.ndarray, k: int, skip: int | None, query_id
) -> RetrievalResult:
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
    return _result(index, rows, scores[rows], query_id)


def top_k(
    index: EmbeddingIndex,
    query: np.ndarray,
    k: int,
    exclude_id: str | None = None,
) -> RetrievalResult:
    """Exact top-k by dot product: partial selection, then an exact tie-break.

    Scores come from the same matrix-vector product over the whole matrix
    as the naive scan, so they are bit-identical to it; a single query has
    nothing to reuse from cache, so it is not split into slabs.  Selection
    is ``_select``, shared with ``attach_shc``.  Ties break toward the
    earlier row; ``exclude_id`` never appears; asking for more hits than
    candidates returns all of them.
    """
    check_at_least(0, k=k)
    q = _prepare_query(index, query)
    skip = index.row_of(exclude_id) if exclude_id is not None else None
    k = min(k, index.n - (skip is not None))
    if k == 0:
        return RetrievalResult(query_id=exclude_id, hits=())
    return _select(index, index.matrix @ q, k, skip, exclude_id)


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
    return _result(index, rows[order], scores[order], exclude_id)


def _shc_query(index: EmbeddingIndex, embeddings: EmbeddingIndex, rec: StudyRecord, k: int) -> np.ndarray:
    """Check one ``attach_shc`` record in the order ``top_k`` would; return its query."""
    row = embeddings.row_of(rec.study_id)
    if row is None:
        raise ValidationError(f"study {rec.study_id!r} has no embedding")
    if index.row_of(rec.study_id) is None:
        raise ValidationError(f"study {rec.study_id!r} is not indexed")
    check_at_least(0, k=k)
    return _prepare_query(index, embeddings.matrix[row])


def attach_shc(
    records: Sequence[StudyRecord],
    index: EmbeddingIndex,
    k: int,
    embeddings: EmbeddingIndex,
    sequences: Mapping[str, str] | None = None,
) -> list[tuple[StudyRecord, tuple[SimilarCase, ...]]]:
    """Pair each record with its top-k similar *other* studies.

    Every record must have a row in ``embeddings``, the raw vectors its
    query comes from, and be present in the index (its own id is excluded
    from its results).  ``sequences`` maps study_id to a rendered factual
    sequence; when omitted it is computed from the records themselves.

    Each block of ``_QUERY_BLOCK`` records is one pool task: it checks the
    records up to the first that fails, scores the rest with ``_score_run``
    and selects them with ``_select``, so the hits equal ``top_k``'s on one
    BLAS thread, bit for bit.  This thread takes the blocks in record order
    and looks up each hit's sequence, so a block's check error comes after
    its good records and no later record is looked at.  On any raise the
    blocks not yet started are cancelled.
    """
    from concurrent.futures import ThreadPoolExecutor  # here, so importing sei does not pay for it
    from queue import SimpleQueue

    if sequences is None:
        sequences = {rec.study_id: see_extract(rec).rendered for rec in records}
    hits = min(k, index.n - 1)
    bounds = _slab_bounds(index.matrix)
    starts = range(0, len(records), _QUERY_BLOCK)
    threads = min(_scoring_threads(), len(starts)) or 1
    buffers = SimpleQueue()  # filled here: pool threads' malloc arenas would keep their buffers
    for _ in range(threads):
        buffers.put(np.empty((min(_QUERY_BLOCK, len(records)), index.n)))

    def run_block(start: int):
        """Check one block's records up to the first that fails; score and select the rest."""
        queries, error = [], None
        for rec in records[start : start + _QUERY_BLOCK]:
            try:
                queries.append(_shc_query(index, embeddings, rec, k))
            except ValidationError as exc:  # raised after the records before it
                error = exc
                break
        block = records[start : start + len(queries)]
        if hits <= 0 or not block:
            return block, [()] * len(block), error
        scores = buffers.get()
        try:
            _score_run(index.matrix, bounds, np.stack(queries)[:, :, None], scores[: len(block)])
            found = [
                _select(index, scores[j], hits, index.row_of(rec.study_id), rec.study_id).hits
                for j, rec in enumerate(block)
            ]
        finally:
            buffers.put(scores)
        return block, found, error

    out = []
    pool = ThreadPoolExecutor(threads)
    try:
        for block, found, error in pool.map(run_block, starts):
            for rec, rec_hits in zip(block, found):
                for sid, _ in rec_hits:
                    if sid not in sequences:
                        raise ValidationError(f"no factual sequence for retrieved study {sid!r}")
                out.append((rec, tuple(SimilarCase(sid, score, sequences[sid]) for sid, score in rec_hits)))
            if error is not None:
                raise error
    finally:
        pool.shutdown(cancel_futures=True)
    return out


def _float32_slabs(matrix: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Each slab of ``matrix``'s rows as its first row and a float32 array of its shape.

    Every array is a view of one buffer, so a pass over the slabs holds one
    slab of float32 at a time.
    """
    bounds = _slab_bounds(matrix, 1)
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
