"""Property tests for core.chunks_from_shards, the one code path that
turns stored chunks into other chunks: any set of present nodes and any
targets give encode's own chunks, or InsufficientDataError when a target
can be neither copied, XORed nor derived."""

import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from srcodes.core import ChunkId, SrcParams, chunks_from_shards, encode, \
    layout, reconstruct
from srcodes.errors import InsufficientDataError


@st.composite
def cases(draw, enough):
    n = draw(st.integers(2, 12))
    k = draw(st.integers(1, n - 1))
    f = draw(st.integers(1, n - 1))
    p = SrcParams(n, k, f, draw(st.integers(1, 8)))
    size = draw(st.integers(0, 3 * p.stripe_data_bytes))
    data = draw(st.binary(min_size=size, max_size=size))
    nodes = st.integers(1, n)
    present = draw(st.sets(nodes, min_size=k) if enough
                   else st.sets(nodes, max_size=k - 1))
    ids = st.builds(ChunkId, st.integers(1, f + 1), nodes)
    return p, data, present, draw(st.lists(ids, max_size=2 * (f + 1)))


def _expected(arr, targets):
    out = np.zeros((arr.stripe_count, len(targets), arr.params.chunk_size),
                   dtype=np.uint8)
    for t, target in enumerate(targets):
        for stripe in range(arr.stripe_count):
            out[stripe, t] = arr.chunk(stripe, target)
    return out


@settings(max_examples=120, deadline=None, derandomize=True)
@given(cases(enough=True))
def test_any_k_present_nodes_give_encoded_chunks(case):
    p, data, present, targets = case
    arr = encode(data, p)
    shards = {i: arr.shards[i] for i in present}
    got = chunks_from_shards(p, shards, targets)
    assert np.array_equal(got, _expected(arr, targets))
    assert reconstruct(shards, p, len(data)) == data


@settings(max_examples=120, deadline=None, derandomize=True)
@given(cases(enough=False))
def test_fewer_than_k_nodes_name_an_underivable_target(case):
    p, data, present, targets = case
    arr = encode(data, p)
    shards = {i: arr.shards[i] for i in present}
    lay = layout(p)
    stuck = [t for t in targets if lay.chunk_location(t) not in present
             and {lay.chunk_location(h) for h in lay.helpers(t)} - present]
    with pytest.raises(InsufficientDataError):
        reconstruct(shards, p, len(data))
    if not stuck:
        assume(present)   # with no shard the stripe count is unknown
        got = chunks_from_shards(p, shards, targets)
        assert np.array_equal(got, _expected(arr, targets))
        return
    with pytest.raises(InsufficientDataError,
                       match=re.escape(stuck[0].label(p.f))):
        chunks_from_shards(p, shards, targets)
