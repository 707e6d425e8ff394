"""Property tests: top_k and attach_shc against their oracle, fusion weights against
the shape table, the one-pass scorer against per-setting scoring, and the scoring and
SEE invariants."""

import math
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sei import retrieval
from sei.corpus import EntityAnnotation, EntityLabel, ReportDocument, StudyRecord
from sei.fusion import LAYER_NAMES, LAYER_SHAPES, init_params
from sei.metrics import EvalPair, score_corpus, score_settings, truncate_reference
from sei.retrieval import attach_shc, index_from_vectors, load_index, save_index, top_k, top_k_naive
from sei.see import see_extract

M_GT_SETTINGS = (60, 80, 90, 100, math.inf)


@st.composite
def tie_heavy_case(draw):
    """A small index with duplicate rows and few distinct values, plus one query."""
    n = draw(st.integers(1, 24))
    d = draw(st.integers(1, 5))
    values = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
    pool = draw(st.lists(st.lists(values, min_size=d, max_size=d), min_size=1, max_size=4))
    rows = [pool[draw(st.integers(0, len(pool) - 1))] for _ in range(n)]
    normalize = draw(st.booleans())
    if draw(st.booleans()):
        query = rows[draw(st.integers(0, n - 1))]
    else:
        query = draw(st.lists(values, min_size=d, max_size=d))
    exclude = draw(st.sampled_from([None, "missing"] + [f"r{i}" for i in range(n)]))
    k = draw(st.sampled_from([0, 1, n - 1, n, n + 5]))
    return rows, normalize, np.asarray(query), exclude, k


@settings(max_examples=300, deadline=None)
@given(tie_heavy_case())
def test_top_k_matches_naive_bit_for_bit(case):
    rows, normalize, query, exclude, k = case
    if normalize:
        assume(all(any(rows_i) for rows_i in rows) and query.any())
    index = index_from_vectors([f"r{i}" for i in range(len(rows))], rows, normalize)
    fast = top_k(index, query, k, exclude_id=exclude)
    slow = top_k_naive(index, query, k, exclude_id=exclude)
    assert [sid for sid, _ in fast.hits] == [sid for sid, _ in slow.hits]
    assert [float(s).hex() for _, s in fast.hits] == [float(s).hex() for _, s in slow.hits]


def hits_hex(hits) -> list[tuple[str, str]]:
    return [(sid, float(score).hex()) for sid, score in hits]


@st.composite
def shc_case(draw):
    """An index of at most 63 rows, so its products never split across BLAS threads,
    with every n % 4 residue; duplicate, quantized and unnormalized rows of very
    different norms; a permuted subset of its studies as records; slabs of 4 or 8
    rows and query blocks of 1-3, so all but the smallest cases cross both; and 1-4
    scoring threads, or one more than there are blocks."""
    n = draw(st.integers(0, 15)) * 4 + draw(st.integers(0, 3))
    assume(n >= 1)
    # below 8 columns OpenBLAS sums every row alike, so a misplaced slab edge shows only from 8 on
    d = draw(st.integers(1, 7) | st.integers(8, 24))
    normalize = draw(st.booleans())
    value = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]) | st.floats(-1.0, 1.0, width=32)
    pool = draw(st.lists(st.lists(value, min_size=d, max_size=d), min_size=1, max_size=6))
    scale = st.sampled_from([1.0, 1e-3, 37.5, 1e3])
    rows = [[v * draw(scale) for v in pool[draw(st.integers(0, len(pool) - 1))]] for _ in range(n)]
    if normalize:
        assume(all(any(row) for row in rows))
    order = draw(st.permutations(range(n)))
    picked = order[: draw(st.integers(1, n))]
    # a record's query is its own row, or now and then another row of the index
    queries = [rows[draw(st.sampled_from([i, draw(st.integers(0, n - 1))]))] for i in picked]
    k = draw(st.sampled_from([0, 1, n - 1, n, n + 5]))
    slab_rows = draw(st.integers(4, 8))  # the kernel rounds this down to 4 or 8
    block = draw(st.integers(1, 3))
    blocks = -(-len(picked) // block)
    threads = draw(st.integers(1, 4) | st.just(blocks + 1))
    reload = draw(st.booleans())
    return rows, normalize, picked, queries, k, slab_rows, block, threads, reload


@settings(max_examples=200, deadline=None)
@given(shc_case())
def test_attach_shc_matches_naive_across_slabs_and_blocks(case):
    rows, normalize, picked, queries, k, slab_rows, block, threads, reload = case
    d = len(rows[0])
    ids = [f"r{i}" for i in range(len(rows))]
    index = index_from_vectors(ids, rows, normalize)
    if reload:
        with tempfile.TemporaryDirectory() as tmp:
            save_index(index, Path(tmp) / "index.bin")
            index = load_index(Path(tmp) / "index.bin")
    report = ReportDocument("lungs clear.")
    records = [StudyRecord(study_id=ids[i], report=report, entities=()) for i in picked]
    embeddings = index_from_vectors([ids[i] for i in picked], queries, normalize=False)
    sequences = {sid: f"seq-{sid}" for sid in ids}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so a race between blocks would show
    try:
        with mock.patch.object(retrieval, "_SLAB_BYTES", slab_rows * 8 * d), mock.patch.object(
            retrieval, "_QUERY_BLOCK", block
        ), mock.patch("sei.threads.usable_cpus", lambda: threads):
            attached = attach_shc(records, index, k, embeddings, sequences=sequences)
    finally:
        sys.setswitchinterval(interval)
    assert [rec for rec, _ in attached] == records
    for (rec, cases), query in zip(attached, queries):
        want = top_k_naive(index, np.asarray(query), k, exclude_id=rec.study_id)
        assert hits_hex((c.study_id, c.score) for c in cases) == hits_hex(want.hits)
        assert [c.factual_sequence for c in cases] == [sequences[c.study_id] for c in cases]


def test_shape_table_lists_layer_fields_in_order():
    d, seed = 4, 0
    params = init_params(d, 2, seed)
    # init_params draws in LAYER_SHAPES order, first layer first, which fixes the bytes of fusion.json
    bound = 1 / math.sqrt(d)
    assert np.array_equal(params.img_enrich.self_q, np.random.default_rng(seed).uniform(-bound, bound, (d, d)))
    for name in LAYER_NAMES:
        for weight, array in params.layers()[name].arrays().items():
            assert array.shape == tuple(d * units for units in LAYER_SHAPES[weight])


def as_hex(report: dict) -> dict:
    return {name: float(value).hex() for name, value in report.items()}


@st.composite
def scoring_case(draw):
    """Pairs over a four-word vocabulary, so n-grams repeat, with references of
    0-150 tokens, so every truncation setting cuts some of them; optional
    label vectors and entity sets."""
    words = st.sampled_from(["a", "b", "c", "d"])
    n = draw(st.integers(1, 6))
    pairs = []
    for _ in range(n):
        ref_len = draw(st.integers(0, 150))
        pairs.append(
            EvalPair(
                generated=draw(st.lists(words, max_size=40)),
                reference=draw(st.lists(words, min_size=ref_len, max_size=ref_len)),
            )
        )
    labels = None
    if draw(st.booleans()):
        vector = st.lists(st.integers(0, 1), min_size=14, max_size=14)
        labels = [(draw(vector), draw(vector)) for _ in range(n)]
    entities = None
    if draw(st.booleans()):
        entity = st.tuples(words, st.sampled_from([label.value for label in EntityLabel]))
        entities = [(draw(st.sets(entity, max_size=3)), draw(st.sets(entity, max_size=3))) for _ in range(n)]
    return pairs, labels, entities


@settings(max_examples=200, deadline=None)
@given(scoring_case())
def test_one_pass_scoring_matches_each_setting_bit_for_bit(case):
    pairs, labels, entities = case
    together = score_settings(pairs, labels, entities, M_GT_SETTINGS)
    assert list(together) == list(M_GT_SETTINGS)
    for m_gt in M_GT_SETTINGS:
        alone = score_corpus(pairs, labels, entities, m_gt=m_gt)
        assert as_hex(together[m_gt]) == as_hex(alone)


@settings(max_examples=200, deadline=None)
@given(scoring_case(), st.sampled_from(M_GT_SETTINGS))
def test_scoring_truncates_the_reference_only(case, m_gt):
    """Scoring at m_gt equals scoring the pre-truncated references in full: only the reference is cut."""
    pairs, labels, entities = case
    truncated = [EvalPair(pair.generated, truncate_reference(pair.reference, m_gt)) for pair in pairs]
    assert as_hex(score_corpus(pairs, labels, entities, m_gt=m_gt)) == as_hex(
        score_corpus(truncated, labels, entities)
    )


@st.composite
def annotated_record(draw):
    """A report of 1-4 sentences with entities that may overlap, repeat or cross sentences."""
    words = st.sampled_from(["lungs", "clear", "heart", "size", "normal", "effusion", "no"])
    sentences = draw(st.lists(st.lists(words, min_size=1, max_size=6), min_size=1, max_size=4))
    report = ReportDocument(" ".join(" ".join(s) + " ." for s in sentences))
    word_ix = [i for i, tok in enumerate(report.tokens) if tok != "."]
    entities = []
    for _ in range(draw(st.integers(0, 8))):
        start = draw(st.sampled_from(word_ix))
        end = draw(st.sampled_from([i for i in word_ix if i >= start]))
        text = " ".join(report.tokens[start : end + 1])  # may hold a "." and so cross sentences
        label = draw(st.sampled_from(list(EntityLabel)))
        entities.append(EntityAnnotation(tokens=text, label=label, start_ix=start, end_ix=end))
    return StudyRecord(study_id="s0", report=report, entities=tuple(entities))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_see_ignores_entity_order(data):
    record = data.draw(annotated_record())
    permuted = data.draw(st.permutations(record.entities))
    reordered = StudyRecord(study_id="s0", report=record.report, entities=tuple(permuted))
    assert see_extract(reordered) == see_extract(record)
