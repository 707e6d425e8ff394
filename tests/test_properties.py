"""Property tests: top_k against its oracle, fusion weights against the shape table."""

from dataclasses import fields

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sei.fusion import LAYER_NAMES, LAYER_SHAPES, LayerParams, init_params
from sei.retrieval import index_from_vectors, top_k, top_k_naive


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


def test_shape_table_lists_layer_fields_in_order():
    assert tuple(LAYER_SHAPES) == tuple(f.name for f in fields(LayerParams))
    params = init_params(4, 2, 0)
    for name in LAYER_NAMES:
        for weight, array in params.layers()[name].arrays().items():
            assert array.shape == tuple(4 * units for units in LAYER_SHAPES[weight])
