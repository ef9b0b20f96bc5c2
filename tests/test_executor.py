"""Property tests for the chunk executor behind core.encode and
core.chunks_from_shards, core.run_plan with its planner core.plan_chunks,
the one code path that turns chunks into other chunks: encode gives the reference encoder's shards, and any set of
present nodes and any targets give the reference chunks, or
InsufficientDataError when a target can be neither copied, XORed nor
derived."""

import hashlib
import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from srcodes import gf256
from srcodes.core import ChunkId, SrcParams, chunks_from_shards, \
    data_chunks, encode, plan_chunks, reconstruct, run_plan
from srcodes.errors import InsufficientDataError

from gf_reference import chunk_row, gf_rank, reference_encode


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


def _reference(p, data):
    return reference_encode(data, p.n, p.k, p.f, p.chunk_size)


def _expected(chunks, targets):
    return chunks[:, np.array([t.part - 1 for t in targets], dtype=int),
                  np.array([t.subscript - 1 for t in targets], dtype=int)]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(cases(enough=True))
def test_any_k_present_nodes_give_encoded_chunks(case):
    p, data, present, targets = case
    chunks, ref = _reference(p, data)
    arr = encode(data, p)
    assert all(np.array_equal(arr.shards[i], ref[i]) for i in ref)
    shards = {i: ref[i] for i in present}
    got = chunks_from_shards(p, shards, targets)
    assert np.array_equal(got, _expected(chunks, targets))
    assert reconstruct(shards, p, len(data)) == data


@settings(max_examples=120, deadline=None, derandomize=True)
@given(cases(enough=False))
def test_fewer_than_k_nodes_name_an_underivable_target(case):
    p, data, present, targets = case
    chunks, ref = _reference(p, data)
    shards = {i: ref[i] for i in present}

    rows = [chunk_row(p.n, p.k, p.f, c.part, c.subscript)
            for i in present for c in p.node_chunks(i)]

    def stuck(wanted):
        # the targets the present chunks do not span, by the rank oracle
        return [t for t in wanted if gf_rank(
            rows + [chunk_row(p.n, p.k, p.f, t.part, t.subscript)])
            > gf_rank(rows)]

    # the planner loses a data chunk exactly when the present chunks do
    # not determine it
    if stuck(data_chunks(p)):
        with pytest.raises(InsufficientDataError):
            reconstruct(shards, p, len(data))
    else:
        assert reconstruct(shards, p, len(data)) == data
    if not stuck(targets):
        assume(present)   # with no shard the stripe count is unknown
        got = chunks_from_shards(p, shards, targets)
        assert np.array_equal(got, _expected(chunks, targets))
        return
    with pytest.raises(InsufficientDataError,
                       match=re.escape(stuck(targets)[0].label(p.f)) + ": "):
        chunks_from_shards(p, shards, targets)


@pytest.mark.parametrize("triple,left,decodable", [
    ((10, 6, 2), 5, 250), ((10, 6, 2), 4, 140), ((7, 4, 3), 3, 34),
    ((6, 4, 2), 3, 18), ((5, 3, 2), 2, 10)])
def test_reconstruct_exactly_where_the_nodes_span_the_data(triple, left,
                                                           decodable):
    # every set of `left` nodes: the file back where their chunks have
    # rank f*k by the oracle, InsufficientDataError elsewhere
    n, k, f = triple
    p = SrcParams(n, k, f, 3)
    data = np.random.default_rng(n * k).integers(
        0, 256, 2 * p.stripe_data_bytes - 5, dtype=np.uint8).tobytes()
    _, ref = _reference(p, data)
    spanning = 0
    for nodes in combinations(range(1, n + 1), left):
        shards = {i: ref[i] for i in nodes}
        if gf_rank([chunk_row(n, k, f, c.part, c.subscript)
                    for i in nodes for c in p.node_chunks(i)]) == f * k:
            assert reconstruct(shards, p, len(data)) == data
            spanning += 1
        else:
            with pytest.raises(InsufficientDataError):
                reconstruct(shards, p, len(data))
    assert spanning == decodable


def test_parity_target_determined_though_its_helpers_are_not():
    # parity[1], parity[2] and part1[3] span parity[4], the XOR of
    # part1[4] and part2[4], but neither of those: the plan derives
    # parity[4] itself
    p = SrcParams(4, 2, 2, 5)
    available = [ChunkId(3, 1), ChunkId(3, 2), ChunkId(1, 3)]
    rows = [chunk_row(4, 2, 2, c.part, c.subscript) for c in available]
    for t, spanned in ((ChunkId(3, 4), True), (ChunkId(1, 4), False),
                       (ChunkId(2, 4), False)):
        assert (gf_rank(rows + [chunk_row(4, 2, 2, t.part, t.subscript)])
                == gf_rank(rows)) == spanned
    plan = plan_chunks(p, available, [ChunkId(3, 4)])
    assert set(plan.reads) <= set(available)
    data = bytes(range(3 * p.stripe_data_bytes))
    chunks, _ = _reference(p, data)
    got = run_plan(plan, {c: chunks[:, c.part - 1, c.subscript - 1]
                          for c in plan.reads},
                   np.empty((len(chunks), 1, p.chunk_size), dtype=np.uint8))
    assert np.array_equal(got, _expected(chunks, [ChunkId(3, 4)]))
    with pytest.raises(InsufficientDataError, match=re.escape("part1[4]: ")):
        plan_chunks(p, available, [ChunkId(3, 4), ChunkId(1, 4)])


@st.composite
def chunk_cases(draw):
    n = draw(st.integers(2, 8))
    k = draw(st.integers(1, n - 1))
    f = draw(st.integers(1, n - 1))
    p = SrcParams(n, k, f, draw(st.integers(1, 4)))
    every = [ChunkId(l, s) for l in range(1, f + 2) for s in range(1, n + 1)]
    lost = draw(st.sets(st.sampled_from(every), max_size=len(every) - 1))
    # mostly lost chunks, so that plans XOR and derive, not only copy
    targets = draw(st.lists(st.sampled_from(every), max_size=2)) + draw(
        st.lists(st.sampled_from(sorted(lost) or every), min_size=1,
                 max_size=2 * (f + 1)))
    available = set(every) - lost
    size = draw(st.integers(0, 2 * p.stripe_data_bytes))
    return p, draw(st.binary(min_size=size, max_size=size)), available, \
        targets


@settings(max_examples=150, deadline=None, derandomize=True)
@given(chunk_cases())
def test_every_plan_is_ordered_and_in_the_span_of_its_reads(case):
    # what a plan must be whenever plan_chunks makes one, and that it
    # makes one whenever the available chunks span the targets
    p, data, available, targets = case
    rows = [chunk_row(p.n, p.k, p.f, c.part, c.subscript)
            for c in sorted(available)]
    wanted = [chunk_row(p.n, p.k, p.f, t.part, t.subscript)
              for t in targets]
    try:
        plan = plan_chunks(p, available, targets)
    except InsufficientDataError:
        assert gf_rank(rows + wanted) > gf_rank(rows)
        return
    assert set(plan.reads) <= available
    made = set()
    for step in plan.steps:
        assert set(step.sources) <= set(plan.reads) | made
        if step.coeffs is not None:
            assert step.coeffs.shape == (len(step.outs), len(step.sources))
        made.update(step.outs)
    assert set(targets) <= made
    chunks, _ = _reference(p, data)
    got = run_plan(plan, {c: chunks[:, c.part - 1, c.subscript - 1]
                          for c in plan.reads},
                   np.empty((len(chunks), len(targets), p.chunk_size),
                            dtype=np.uint8))
    assert np.array_equal(got, _expected(chunks, targets))
    assert gf_rank(rows + wanted) == gf_rank(rows)


def test_gf_bytes_per_path(monkeypatch):
    # bytes scaled by a coefficient >= 2: 0 and 1 are skips and XORs
    p = SrcParams(10, 6, 2, 64)
    data = np.random.default_rng(5).integers(
        0, 256, 3 * p.stripe_data_bytes, dtype=np.uint8).tobytes()
    scaled = []
    addmul_rows = gf256.addmul_rows

    def counting(out, coeffs, rows):
        scaled.extend(rows[j].nbytes for i, j in np.argwhere(coeffs >= 2))
        addmul_rows(out, coeffs, rows)

    monkeypatch.setattr(gf256, "addmul_rows", counting)
    arr = encode(data, p)
    assert sum(scaled) == 9216
    scaled.clear()
    rest = {i: s for i, s in arr.shards.items() if i not in (3, 4)}
    got = chunks_from_shards(p, rest, p.node_chunks(4))
    assert np.array_equal(got, arr.shards[4])
    assert sum(scaled) == 2304
    scaled.clear()
    assert reconstruct({i: s for i, s in arr.shards.items() if i > 4}, p,
                       len(data)) == data
    assert sum(scaled) == 8064
    # a healthy decode through the planner copies the f*k data chunks
    scaled.clear()
    every = {c: shard[:, slot] for node, shard in arr.shards.items()
             for slot, c in enumerate(p.node_chunks(node))}
    plan = plan_chunks(p, every, data_chunks(p))
    assert set(plan.reads) == set(data_chunks(p))
    assert all(step.coeffs is None for step in plan.steps)
    got = run_plan(plan, {c: every[c] for c in plan.reads},
                   np.empty((arr.stripe_count, p.f * p.k, p.chunk_size),
                            dtype=np.uint8))
    assert got.tobytes() == data
    assert sum(scaled) == 0


def _plan_text(p, available, targets):
    """A plan as text: its targets, reads and steps, each step's outs,
    sources and coefficient bytes; or the error it raises."""
    def ids(chunks):
        return " ".join(f"{c.part}.{c.subscript}" for c in chunks)

    try:
        plan = plan_chunks(p, available, targets)
    except InsufficientDataError as e:
        return f"error {e}\n"
    lines = [f"targets {ids(plan.targets)}", f"reads {ids(plan.reads)}"]
    lines += [f"step {ids(s.outs)} <- {ids(s.sources)} : "
              + ("xor" if s.coeffs is None else s.coeffs.tobytes().hex())
              for s in plan.steps]
    return "\n".join(lines) + "\n"


def _pinned_cases():
    """(params, available, targets) per pinned plan: every set of
    surviving nodes of five small triples and every set of chunks at
    (3,2,1), for the data chunks and for each node's chunks; then seeded
    chunk-level losses at three production triples."""
    def target_lists(p):
        return [data_chunks(p)] + [p.node_chunks(i)
                                   for i in range(1, p.n + 1)]

    for n, k, f in ((4, 2, 2), (5, 3, 2), (6, 4, 2), (6, 3, 3), (7, 4, 3)):
        p = SrcParams(n, k, f, 1)
        for r in range(n + 1):
            for nodes in combinations(range(1, n + 1), r):
                available = [c for i in nodes for c in p.node_chunks(i)]
                for targets in target_lists(p):
                    yield p, available, targets
    p = SrcParams(3, 2, 1, 1)
    every = [ChunkId(l, s) for l in (1, 2) for s in (1, 2, 3)]
    for r in range(len(every) + 1):
        for available in combinations(every, r):
            for targets in target_lists(p):
                yield p, available, targets
    for n, k, f in ((10, 6, 2), (20, 16, 3), (50, 46, 2)):
        p = SrcParams(n, k, f, 1)
        rng = np.random.default_rng(n * 1000 + k * 10 + f)
        every = [ChunkId(l, s) for l in range(1, f + 2)
                 for s in range(1, n + 1)]
        for _ in range(60):
            lost = rng.choice(len(every), rng.integers(
                1, (n - k + 2) * (f + 1)), replace=False)
            available = [c for i, c in enumerate(every) if i not in lost]
            if rng.integers(2):
                targets = data_chunks(p)
            else:
                targets = [every[i] for i in rng.choice(
                    lost, rng.integers(1, 2 * (f + 1)))]
            yield p, available, targets


def test_plans_pinned():
    # the exact plans, read for read and coefficient for coefficient,
    # and the exact errors: a change of planner that keeps these keeps
    # every byte a command reads and every byte it computes
    digest = hashlib.sha256()
    count = 0
    for p, available, targets in _pinned_cases():
        digest.update(_plan_text(p, available, targets).encode())
        count += 1
    assert count == 2628
    assert digest.hexdigest() == (
        "64882ad957721fbefec1ac7349e19c770b2a2c1cf56ab235ec954eabd269f045")
