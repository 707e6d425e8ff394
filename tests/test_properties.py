"""Property tests: top_k and attach_shc against their oracle, fusion weights against
the shape table, the one-pass scorer against per-setting scoring, and the scoring and
SEE invariants."""

import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sei import retrieval
from sei.corpus import EntityAnnotation, EntityLabel, ReportDocument, StudyRecord
from sei.errors import ValidationError
from sei.fusion import LAYER_NAMES, LAYER_SHAPES, init_params
from sei.metrics import EvalPair, score_corpus, score_settings, truncate_reference
from sei.retrieval import attach_shc, index_from_vectors, load_index, save_index, top_k, top_k_naive
from sei.see import see_extract

M_GT_SETTINGS = (60, 80, 90, 100, math.inf)


def hits_hex(hits) -> list[tuple[str, str]]:
    return [(sid, float(score).hex()) for sid, score in hits]


SCALES = {
    "unit": st.just(1.0),
    "1e-3 to 1e3": st.floats(-3, 3).map(lambda e: 10.0**e),
    "1e-23.5 to 1e-22": st.floats(22, 23.5).map(lambda e: 10.0**-e),  # float32 products underflow
    "1e18 to 1e20": st.floats(18, 20).map(lambda e: 10.0**e),  # float32 sums can overflow
    "1e-170 to 1e-160": st.floats(160, 170).map(lambda e: 10.0**-e),
    "1e160 and 1e300": st.sampled_from([1.0, 1e160, 1e300]),
}
FLOAT32_SCALES = ("unit", "1e-3 to 1e3", "1e-23.5 to 1e-22", "1e18 to 1e20")  # the scales an index file can hold
VALUES = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]) | st.floats(-1.0, 1.0, width=32)


@st.composite
def shc_case(draw):
    """An index of 1 to 63 rows.  Its rows tie or nearly tie: copies of a few base rows,
    some moved one ulp in one value or in all, each row scaled by its own draw from
    one of SCALES, whose products underflow in float32 or float64, or overflow so
    that retrieval keeps every row.  An index at a scale float32 holds may be
    normalized, or reloaded through index.bin as float32.  A permuted subset of its
    studies are the records, in query blocks of 1-3; the kept rows are gathered and
    scored by slabs of 1-12 rows."""
    n = draw(st.integers(1, 63))
    # below 8 values numpy sums a row in order, from 8 on with 8 partial sums
    d = draw(st.integers(1, 7) | st.integers(8, 24))
    scale = draw(st.sampled_from(sorted(SCALES)))
    pool = draw(st.lists(st.lists(VALUES, min_size=d, max_size=d), min_size=1, max_size=6))
    rows = []
    for _ in range(n):
        row = np.array(pool[draw(st.integers(0, len(pool) - 1))]) * draw(SCALES[scale])
        toward = draw(st.sampled_from([None, np.inf, -np.inf]))
        if toward is not None:
            at = slice(None) if draw(st.booleans()) else draw(st.integers(0, d - 1))
            row[at] = np.nextafter(row[at], toward)
        rows.append(row.tolist())
    normalize = scale in FLOAT32_SCALES and draw(st.booleans())
    if normalize:
        assume(all(np.linalg.norm(row) > 0 for row in rows))  # a row of 5e-324 has a norm of 0
    order = draw(st.permutations(range(n)))
    picked = order[: draw(st.integers(1, n))]
    # a record's query is its own row, or now and then another row of the index
    queries = [rows[draw(st.sampled_from([i, draw(st.integers(0, n - 1))]))] for i in picked]
    k = draw(st.integers(1, 2) | st.sampled_from([0, n - 1, n, n + 5]))  # a margin too small shows at a small k
    patches = {
        "_QUERY_BLOCK": draw(st.integers(1, 3)),
        "_SLAB_BYTES": draw(st.integers(1, 12)) * 8 * d,
    }
    reload = scale in FLOAT32_SCALES and draw(st.booleans())
    return rows, normalize, picked, queries, k, reload, patches


def shc_index(rows, normalize, reload):
    """The index of rows r0, r1, ...: float64 as built, or float32 reloaded through index.bin."""
    index = index_from_vectors([f"r{i}" for i in range(len(rows))], rows, normalize)
    if reload:
        with tempfile.TemporaryDirectory() as tmp:
            save_index(index, Path(tmp) / "index.bin")
            index = load_index(Path(tmp) / "index.bin")
    return index


def hits_or_error(search, *args, **kwargs):
    try:
        return hits_hex(search(*args, **kwargs).hits)
    except ValidationError as exc:  # a normalized index rejects a query whose norm is 0
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(shc_case(), st.data())
def test_top_k_matches_naive_bit_for_bit(case, data):
    """top_k gives top_k_naive's ids and score bits for each of shc_case's queries,
    or now and then a free query of VALUES at any scale, which no row of a float64
    index equals, excluding its record's row, as attach_shc does, another row, an
    id the index lacks or nothing."""
    rows, normalize, picked, queries, k, reload, patches = case
    index = shc_index(rows, normalize, reload)
    with mock.patch.multiple(retrieval, **patches), np.errstate(over="ignore", invalid="ignore"):
        for i, q in zip(picked, queries):
            if data.draw(st.integers(0, 3)) == 0:
                scale = data.draw(SCALES[data.draw(st.sampled_from(sorted(SCALES)))])
                q = np.array(data.draw(st.lists(VALUES, min_size=index.dim, max_size=index.dim))) * scale
            exclude = data.draw(st.just(index.ids[i]) | st.sampled_from([None, "missing", *index.ids]))
            fast = hits_or_error(top_k, index, np.asarray(q), k, exclude_id=exclude)
            assert fast == hits_or_error(top_k_naive, index, np.asarray(q), k, exclude_id=exclude)


@settings(max_examples=400, deadline=None)
@given(shc_case())
def test_attach_shc_matches_naive_across_slabs_and_blocks(case):
    rows, normalize, picked, queries, k, reload, patches = case
    index = shc_index(rows, normalize, reload)
    ids = [index.ids[i] for i in picked]
    embeddings = index_from_vectors(ids, queries, normalize=False)
    sequences = {sid: f"seq-{sid}" for sid in index.ids}
    with mock.patch.multiple(retrieval, **patches), np.errstate(over="ignore", invalid="ignore"):
        attached = attach_shc(ids, index, k, embeddings, sequences=sequences)
        wants = [top_k_naive(index, np.asarray(q), k, exclude_id=sid) for sid, q in zip(ids, queries)]
    assert [row["study_id"] for row in attached] == ids
    for row, want in zip(attached, wants):
        cases = row["cases"]
        assert hits_hex((c["study_id"], c["score"]) for c in cases) == hits_hex(want.hits)
        assert [c["factual_sequence"] for c in cases] == [sequences[c["study_id"]] for c in cases]


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
