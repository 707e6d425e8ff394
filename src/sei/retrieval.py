"""Exact top-K dot-product retrieval over dense study embeddings.

Scores are plain dot products (cosine once rows and query are unit length,
which is the default), in float64 over the matrix widened to float64.  Two
implementations share one contract: ``top_k_naive`` scores every row and
fully sorts, while ``top_k`` and ``attach_shc`` filter and rescore (below).
All order ties by row insertion order, so results are reproducible bit for
bit.  ``top_k`` and ``top_k_naive`` return a ``RetrievalResult``, which is
the hits and no more; ``attach_shc`` returns the rows of ``shc.jsonl``.

Embedding files are JSONL with ``{"study_id": id, "vec": [number x d]}``.
``load_embeddings`` parses them straight into the rows of one float64
matrix, returned as an unnormalized ``EmbeddingIndex``.

``attach_shc`` queries with each study's own row of the raw embeddings
matrix that ``load_embeddings`` returns, normalized here when the index
is, in blocks of ``_QUERY_BLOCK`` queries; ``top_k`` is a block of one.
A filter scores each block with one float32 matrix-matrix product, as
FAISS ``IndexFlatIP`` runs query batches (Johnson, Douze and Jegou,
arXiv:1702.08734), and keeps each query's rows within a proven rounding
margin of its k-th best score.  Where that keeps more than k rows, as it
does among rows of one tight cluster, a float64 product over just those
rows keeps the ones within its far narrower margin.  Only the rows left are
rescored exactly and ranked.  The exact score is defined by code, not by
BLAS: the row widened to float64, times the query, summed by
``np.add.reduce``, whose pairwise order within a row depends on d alone.
IEEE multiplication and addition are correctly rounded, so a row's exact
score has the same bits whichever rows are scored with it, on any CPU, SIMD
dispatch target or BLAS thread count.  ``_exact_scores`` gathers the kept
rows ``_slab_height`` at a time, and ``top_k_naive``, the oracle, scores the
whole matrix slab by slab under the same expression.  A normalized index
divides a query by its norm summed the same way, ``_row_norms``' bits, so a
query that is a study's raw vector rounds to that study's index row.

Indexes serialize to a small binary format: magic "SEIX", u32 version,
u32 n, u32 d, u8 normalized flag, length-prefixed UTF-8 ids, then the
row-major little-endian float32 matrix.  ``load_index`` reads that matrix
into the index as it is, one slab of rows (``_slab_bounds``) at a time, and
``save_index`` narrows and writes it one slab at a time.  The unit-norm
check and the norms ``index_from_vectors`` divides by run one slab at a
time too, in float64; a row's norm does not depend on which slab holds it,
so every bit is that of one pass over the whole matrix.  Loading an index
holds its float32 matrix plus one slab's temporaries at most; saving holds
one float32 slab next to the index.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .corpus import _json_list, atomic_write, read_keyed_jsonl
from .errors import CorpusError, ValidationError, as_finite_array, check_at_least

__all__ = [
    "EmbeddingIndex",
    "RetrievalResult",
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
_QUERY_BLOCK = 128  # queries attach_shc's filter scores with one float32 matrix-matrix product
_FLOAT32_MAX = float(np.finfo(np.float32).max)


@dataclass
class EmbeddingIndex:
    """Immutable id-addressed dense-vector store.

    ``load_index`` gives it the little-endian float32 matrix its file holds;
    ``index_from_vectors`` and ``load_embeddings`` give it a float64 matrix.
    A normalized index checks that its rows are unit length one slab at a
    time, each slab widened to float64, so the check holds one slab of
    temporaries next to the matrix.  The float32 matrix the retrieval filter
    scores, its largest row norm and max|M| are made on the first query and
    kept: a float32 matrix is its own filter, a float64 one gets a float32
    copy.
    """

    dim: int
    ids: tuple[str, ...]
    matrix: np.ndarray  # (n, dim), float64 or <f4, read-only
    normalized: bool
    _row_of: dict[str, int] = field(init=False, repr=False)
    _filter: tuple[np.ndarray, float, float] | None = field(init=False, repr=False, compare=False, default=None)

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

    def _float32(self) -> tuple[np.ndarray, float, float]:
        """The float32 matrix the filter scores, its largest row norm and max|M|, made on the first call and kept."""
        if self._filter is None:
            with np.errstate(over="ignore"):  # a value past float32's range is inf here; _block_hits then keeps every row
                matrix32 = self.matrix.astype(np.float32, copy=False)
                norm = max((float(norms.max()) for norms in _row_norms(self.matrix)), default=0.0)
            big = float(np.maximum(self.matrix.max(initial=0.0), -self.matrix.min(initial=0.0)))
            self._filter = (matrix32, norm, big)
        return self._filter


@dataclass(frozen=True)
class RetrievalResult:
    """Top-K hits for one query, scores non-increasing, query excluded."""

    hits: tuple[tuple[str, float], ...]


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
        norm = float(_norms(q))
        if norm == 0.0:
            raise ValidationError("cannot normalize a zero-norm query")
        q = q / norm
    return q


def _result(index: EmbeddingIndex, rows: np.ndarray, scores: np.ndarray) -> RetrievalResult:
    hits = tuple((index.ids[r], s) for r, s in zip(rows.tolist(), scores.tolist()))
    return RetrievalResult(hits=hits)


def _slab_height(dim: int) -> int:
    """Rows of ``dim`` values in a slab: as many as fit in ``_SLAB_BYTES`` as float64, at least 1."""
    return max(1, _SLAB_BYTES // max(dim * 8, 1))


def _slab_bounds(matrix: np.ndarray) -> list[int]:
    """Slab edges over ``matrix``'s rows, 0 to n, ``_slab_height`` rows apart."""
    n, dim = matrix.shape
    return [*range(0, n, _slab_height(dim)), n]


def _row_norms(matrix: np.ndarray) -> Iterator[np.ndarray]:
    """The L2 norms of ``matrix``'s rows widened to float64, one array per slab of rows, in row order.

    Each slab's float64 squares go to one reused buffer, then are summed and
    rooted as ``np.linalg.norm`` does, so every norm has its bits.
    """
    bounds = _slab_bounds(matrix)
    squares = np.empty((bounds[1] if len(bounds) > 1 else 0, matrix.shape[1]))
    for lo, hi in zip(bounds, bounds[1:]):
        np.multiply(matrix[lo:hi], matrix[lo:hi], out=squares[: hi - lo], dtype=np.float64)
        yield np.sqrt(np.add.reduce(squares[: hi - lo], axis=1))


def _norms(x: np.ndarray) -> np.ndarray:
    """The L2 norm of float64 ``x``, or of each of its rows, summed as ``_row_norms`` sums, so with its bits."""
    return np.sqrt(np.add.reduce(x * x, axis=-1))


def _exact_scores(matrix: np.ndarray, q: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The exact scores of ``matrix``'s ``rows`` against ``q``, gathered ``_slab_height`` rows at a time.

    A query whose margin is not finite keeps every row, hence the slabs.
    """
    height = _slab_height(len(q))
    exact = np.empty(len(rows))
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN scores rank as in top_k_naive
        for at in range(0, len(rows), height):
            slab = matrix[rows[at : at + height]]
            exact[at : at + len(slab)] = np.add.reduce(np.multiply(slab, q, dtype=np.float64), axis=1)
    return exact


def top_k(
    index: EmbeddingIndex,
    query: np.ndarray,
    k: int,
    exclude_id: str | None = None,
) -> RetrievalResult:
    """Exact top-k by dot product: a block of one query through ``_block_hits``.

    Its hits equal ``top_k_naive``'s, bit for bit.
    Ties break toward the earlier row; ``exclude_id`` never appears; asking
    for more hits than candidates returns all of them.
    """
    check_at_least(0, k=k)
    q = _prepare_query(index, query)
    skip = index.row_of(exclude_id) if exclude_id is not None else None
    k = min(k, index.n - (skip is not None))
    if k == 0:
        return RetrievalResult(hits=())
    ((rows, scores),) = _block_hits(index, q[None], [skip], k, np.empty((1, index.n), dtype=np.float32))
    return _result(index, rows, scores)


def top_k_naive(
    index: EmbeddingIndex,
    query: np.ndarray,
    k: int,
    exclude_id: str | None = None,
) -> RetrievalResult:
    """Reference implementation: every row scored, full sort.  Same contract as top_k.

    The matrix is scored slab by slab, each row widened to float64, times q,
    summed by ``np.add.reduce``: the exact score of the module docstring.
    """
    check_at_least(0, k=k)
    q = _prepare_query(index, query)
    scores = np.empty(index.n)
    bounds = _slab_bounds(index.matrix)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi in zip(bounds, bounds[1:]):
            scores[lo:hi] = np.add.reduce(np.multiply(index.matrix[lo:hi], q, dtype=np.float64), axis=1)
    rows = np.arange(index.n, dtype=np.int64)
    skip = index.row_of(exclude_id) if exclude_id is not None else None
    if skip is not None:
        keep = rows != skip
        rows = rows[keep]
        scores = scores[keep]
    order = np.lexsort((rows, -scores))[:k]
    return _result(index, rows[order], scores[order])


def _block_hits(
    index: EmbeddingIndex, queries: np.ndarray, skips: list[int | None], k: int, scores: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each query's k best rows but its row in ``skips`` (None skips none), and their exact scores, as two arrays.

    They rank as in ``top_k_naive``.  ``scores`` is a float32 buffer of one
    row per query and one column per index row; ``queries`` are float64.
    """
    # The margin.  The filter sums a_j b_j in float32, a_j and b_j the float32
    # roundings of m_j and q_j; the exact score sums m_j q_j in float64.
    # Rounding to float32 errs by at most u|x| or, under gradual underflow,
    # eta = 2**-150, u = 2**-24 (Higham 2002, section 2.1).  Any order of
    # summing d products, FMA included, errs by at most gamma_d * sum|a_j b_j|
    # plus 2 * eta per product under underflow, gamma_d = d*u / (1 - d*u)
    # (section 3.1).  With the two roundings of each product's inputs, a filter
    # score is within E = gamma_(d+2) * sum|m_j q_j| + d * 2**-148 * (|m| + |q|)
    # + d * 2**-149 of sum m_j q_j, |m| and |q| the 2-norms of the row and the
    # query, each at least its largest value; the exact score, numpy's fixed
    # pairwise sum in float64 with its u = 2**-53, errs by less than that
    # bound (section 4.2).  By Cauchy-Schwarz sum|m_j q_j| <= B = R * |q|,
    # R the largest row norm, which ``err`` also puts for |m|.  So a filter
    # score is within 2E of the exact one: k exact scores reach kth - 2E, kth
    # the k-th best filter score, and every row of the exact top k, ties at
    # the cut included, has a filter score of at least kth - 4E.  ``err`` takes 2B for B and doubles the underflow
    # term, which covers the roundings in computing E, R and |q|, plus 8 spare
    # units of 2**-149, which cover the squares that underflow in the float64
    # norms (each norm errs by less than sqrt(d) * 2**-537 then).  It is inf
    # where R, |q| or 2B, and so a value or a partial sum, could overflow
    # float32, and where d + 2 >= 2**23, past which a partial sum could pass
    # 2B; NaN after a NaN or inf.  The floor is then not finite, and that
    # query keeps every row.
    #
    # Where the filter keeps more than k rows, a second filter scores them in
    # float64 and keeps those of at least its k-th best score less 4 * err64,
    # by the same argument over the kept rows, which hold the exact top k:
    # float64 inputs are exact, so E = gamma_d * sum|m_j q_j| + d * 2**-1074
    # with u = 2**-53, and sum|m_j q_j| <= d * big * max|q|, big = max|M|,
    # which no underflow shrinks.  err64 takes 2B for B plus 8 spare units of
    # 2**-1074, and is inf where 2B overflows.  Rows of one cluster can all
    # lie within the float32 margin; the float64 one holds near-ties only.
    d = index.dim
    matrix32, norm, big = index._float32()
    ud = (d + 2) * 2.0**-24
    gamma = ud / (1 - ud) if ud < 0.5 else np.inf
    gamma64 = d * 2.0**-53 / (1 - d * 2.0**-53)
    with np.errstate(over="ignore", invalid="ignore"):
        normq = _norms(queries)
        two_b = 2.0 * norm * normq
        err = gamma * two_b + d * 2.0**-147 * (norm + normq) + (d + 8) * 2.0**-149
        err[~(np.maximum(np.maximum(norm, normq), two_b) < _FLOAT32_MAX)] = np.inf
        err64 = gamma64 * (2.0 * d * big * np.abs(queries).max(axis=1, initial=0.0)) + (d + 8) * 2.0**-1074
        np.matmul(queries.astype(np.float32), matrix32.T, out=scores)
    height = _slab_height(d)
    found = []
    for q, skip, approx, e, e64 in zip(queries, skips, scores, err, err64):
        if skip is not None:
            approx[skip] = -np.inf
        with np.errstate(invalid="ignore"):
            floor = np.partition(approx, -k)[-k] - 4 * e
        if np.isfinite(floor):
            # numpy 2 compares in float64; numpy 1.x first rounds floor to the nearest
            # float32, which can keep one more float32 value but drops none.  Never skip:
            # -inf is below a finite floor.
            rows = np.flatnonzero(approx >= floor)
            if len(rows) > k:  # the float64 filter, over slabs of the kept rows
                slabs = (rows[at : at + height] for at in range(0, len(rows), height))
                near = np.concatenate([np.asarray(index.matrix[slab], dtype=np.float64) @ q for slab in slabs])
                with np.errstate(invalid="ignore"):
                    floor = np.partition(near, -k)[-k] - 4 * e64
                if np.isfinite(floor):
                    rows = rows[near >= floor]
        else:
            rows = np.arange(index.n) if skip is None else np.delete(np.arange(index.n), skip)
        exact = _exact_scores(index.matrix, q, rows)
        order = np.lexsort((rows, -exact))[:k]  # NaN last, as in top_k_naive
        found.append((rows[order], exact[order]))
    return found


def _shc_query(index: EmbeddingIndex, embeddings: EmbeddingIndex, study_id: str) -> np.ndarray:
    """Check one ``attach_shc`` study in the order ``top_k`` would; return its query."""
    row = embeddings.row_of(study_id)
    if row is None:
        raise ValidationError(f"study {study_id!r} has no embedding")
    if index.row_of(study_id) is None:
        raise ValidationError(f"study {study_id!r} is not indexed")
    return _prepare_query(index, embeddings.matrix[row])


def attach_shc(
    ids: Sequence[str],
    index: EmbeddingIndex,
    k: int,
    embeddings: EmbeddingIndex,
    sequences: Mapping[str, str],
) -> list[dict]:
    """The ``shc.jsonl`` row of each study in ``ids``: its top-k similar *other* studies.

    A row is ``{"study_id": id, "cases": [{"study_id", "score",
    "factual_sequence"}, ...]}``, cases best first.  Every study must have a
    row in ``embeddings``, the raw vectors its query comes from, and be
    present in the index (its own id is excluded from its results).
    ``sequences`` maps study_id to a rendered factual sequence.

    Each block of ``_QUERY_BLOCK`` studies is checked up to the first that
    fails; the rest are scored by ``_block_hits``, whose hits equal
    ``top_k``'s bit for bit, and their hits' sequences
    looked up before the check error is raised, so errors come as one study
    at a time would raise them and no later study is looked at.
    """
    check_at_least(0, k=k)
    hits = min(k, index.n - 1)
    scores = np.empty((min(_QUERY_BLOCK, len(ids)), index.n), dtype=np.float32)
    empty = np.empty(0, dtype=np.int64)
    out = []
    for start in range(0, len(ids), _QUERY_BLOCK):
        queries, error = [], None
        for study_id in ids[start : start + _QUERY_BLOCK]:
            try:
                queries.append(_shc_query(index, embeddings, study_id))
            except ValidationError as exc:  # raised after the studies before it
                error = exc
                break
        block = ids[start : start + len(queries)]
        found = [(empty, empty)] * len(block)
        if hits > 0 and block:
            skips = [index.row_of(study_id) for study_id in block]
            found = _block_hits(index, np.stack(queries), skips, hits, scores[: len(block)])
        for study_id, (rows, row_scores) in zip(block, found):
            names = [index.ids[row] for row in rows.tolist()]
            for sid in names:
                if sid not in sequences:
                    raise ValidationError(f"no factual sequence for retrieved study {sid!r}")
            cases = [
                {"study_id": sid, "score": score, "factual_sequence": sequences[sid]}
                for sid, score in zip(names, row_scores.tolist())
            ]
            out.append({"study_id": study_id, "cases": cases})
        if error is not None:
            raise error
    return out


def save_index(index: EmbeddingIndex, path: str | Path) -> None:
    """Write the binary index format described in the module docstring.

    The matrix is narrowed to little-endian float32 (a loaded index's matrix
    already is), checked and written one slab at a time; a value float32
    cannot hold raises naming its study and value, and ``path`` then keeps
    its old content.
    """
    with atomic_write(path, binary=True) as handle:
        handle.write(struct.pack(_HEADER, _MAGIC, _VERSION, index.n, index.dim, int(index.normalized)))
        for sid in index.ids:
            raw = sid.encode("utf-8")
            handle.write(struct.pack("<I", len(raw)) + raw)
        bounds = _slab_bounds(index.matrix)
        for lo, hi in zip(bounds, bounds[1:]):
            with np.errstate(over="ignore"):
                slab = index.matrix[lo:hi].astype("<f4", copy=False)
            overflow = np.argwhere(np.isinf(slab))
            if overflow.size:
                row, col = overflow[0]
                raise ValidationError(
                    f"study {index.ids[lo + row]!r} has embedding value {float(index.matrix[lo + row, col])!r}, "
                    "which does not fit in the index file's float32"
                )
            handle.write(slab)


def load_index(path: str | Path) -> EmbeddingIndex:
    """Read an index written by save_index; the matrix is the file's little-endian float32.

    The header and id table are read first, each id's length checked
    against the file size; then the float32 payload is read one slab at a
    time straight into the preallocated matrix and checked finite.  Every
    error, a NaN or infinite value or a repeated id among them, is a
    CorpusError starting with ``path``.
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
            matrix = np.empty((n, dim), dtype="<f4")
            bounds = _slab_bounds(matrix)
            for lo, hi in zip(bounds, bounds[1:]):
                if handle.readinto(matrix[lo:hi]) != matrix[lo:hi].nbytes:
                    raise ValidationError("index file truncated")
                with np.errstate(invalid="ignore"):  # a signalling NaN warns as it widens; it is rejected here
                    as_finite_array(matrix[lo:hi], "index matrix", 2)
            return EmbeddingIndex(dim=dim, ids=tuple(ids), matrix=matrix, normalized=bool(normalized))
        except struct.error:
            raise CorpusError(f"{path}: index file truncated") from None
        except UnicodeDecodeError:
            raise CorpusError(f"{path}: id {len(ids) + 1} in the id table is not valid UTF-8") from None
        except ValidationError as exc:
            raise CorpusError(f"{path}: {exc}") from None
