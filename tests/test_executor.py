"""Property tests for the chunk executor behind core.encode and
core.chunks_from_shards, core.run_plan with its planner core.plan_chunks,
the one code path that turns chunks into other chunks: encode gives the reference encoder's shards, and any set of
present nodes and any targets give the reference chunks, or
InsufficientDataError when a target can be neither copied, XORed nor
derived."""

import hashlib
import re
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, \
    strategies as st

from srcodes import gf256
from srcodes.core import ChunkId, SrcParams, chunks_from_shards, \
    data_chunks, encode, plan_chunks, reconstruct, run_plan
from srcodes.errors import InsufficientDataError

from gf_reference import chunk_row, gf_inverse, gf_mul, gf_rank, \
    reference_encode


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
    assert sum(scaled) == 9216   # both parts derived: 12 reads, not 13
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
        "dcd9268c18bc409308bafd9c3224a0395090c800c8fa12adf0ea86e219a42660")


def test_no_pinned_plan_reads_more_than_before():
    # tests/plan_reads.txt holds each pinned plan's read count before
    # plans read the fewest chunks the code allows (tests/plan_reads.py
    # prints it): none reads more now, and the same cases raise
    from plan_reads import read_counts

    table = (Path(__file__).parent / "plan_reads.txt").read_text()
    before = [(code, count) for line in table.splitlines()
              for code, *counts in [line.split()] for count in counts]
    now = list(read_counts())
    assert len(before) == len(now) == 2628
    for (code, old), (p, new) in zip(before, now):
        assert code == f"{p.n},{p.k},{p.f}"
        assert (old == "-") == (new is None)
        assert new is None or new <= int(old)


def _fewest_reads(p, available, targets):
    """The fewest available chunks whose span holds every target, by an
    exhaustive search over sets of growing size ranked with gf_reference
    alone; None when all of them do not.  A set only grows by a chunk
    outside its span, and is dropped once its span with the targets
    needs more chunks than the size sought."""
    def reduce(basis, row):
        # row less its part in the span of basis, rows each 1 at a pivot
        # column where the rows before it are 0
        row = list(row)
        for pivot, b in basis:
            if row[pivot]:
                scale = row[pivot]
                row = [x ^ gf_mul(scale, y) for x, y in zip(row, b)]
        return row

    def grown(basis, row):
        row = reduce(basis, row)
        pivot = next((i for i, x in enumerate(row) if x), None)
        if pivot is None:
            return basis
        inv = gf_inverse(row[pivot])
        return basis + [(pivot, [gf_mul(inv, x) for x in row])]

    rows = [chunk_row(p.n, p.k, p.f, c.part, c.subscript)
            for c in sorted(available)]
    wanted = [chunk_row(p.n, p.k, p.f, t.part, t.subscript) for t in targets]
    if gf_rank(rows + wanted) > gf_rank(rows):
        return None
    goal = []
    for row in wanted:
        goal = grown(goal, row)

    def found(start, chosen, joint, size):
        # chosen spans the chunks taken, joint those and the targets
        if len(joint) == len(chosen):
            return True
        if len(joint) > size:   # each chunk closes at most one dimension
            return False
        for i in range(start, len(rows)):
            more = grown(chosen, rows[i])
            if more is not chosen and found(i + 1, more,
                                            grown(joint, rows[i]), size):
                return True
        return False

    return next(size for size in range(len(goal), len(rows) + 1)
                if found(0, [], goal, size))


@pytest.mark.parametrize("triple", [
    (4, 2, 1), (5, 3, 1), (6, 4, 1), (5, 3, 2), (6, 4, 2), (6, 3, 2),
    (7, 4, 2), (5, 2, 2)])
def test_plans_read_the_fewest_chunks_on_the_degraded_patterns(triple):
    # the degraded benchmark's two patterns: a repair with the node's
    # lowest-numbered look-up helper missing, and a decode with n-k of
    # nodes 1..k missing; each plan reads as few chunks as any set of
    # available chunks that determines its targets
    p = SrcParams(*triple, 1)
    cases = []
    for node in range(1, p.n + 1):
        helper = min(p.chunk_location(h) for c in p.node_chunks(node)
                     for h in p.helpers(c))
        cases.append(({node, helper}, p.node_chunks(node)))
    for gone in combinations(range(1, p.k + 1), p.n - p.k):
        cases.append((set(gone), data_chunks(p)))
    for gone, targets in cases:
        available = [c for i in range(1, p.n + 1) if i not in gone
                     for c in p.node_chunks(i)]
        fewest = _fewest_reads(p, available, targets)
        try:
            reads = len(plan_chunks(p, available, targets).reads)
        except InsufficientDataError:
            reads = None
        assert reads == fewest, (gone, targets)


def test_a_target_in_a_derived_part_is_the_xor_of_helpers_read_anyway():
    # (10,6,2) with nodes 1 and 2 gone: part1[2] needs part 1 derived,
    # but part1[1] stays the XOR of part2[1] and parity[1], which the plan
    # copies as targets anyway
    p = SrcParams(10, 6, 2, 1)
    part1_1, part1_2, part2_1, parity_1 = (ChunkId(1, 1), ChunkId(1, 2),
                                           ChunkId(2, 1), ChunkId(3, 1))
    assert {p.chunk_location(c) for c in (part1_1, part1_2, ChunkId(2, 2))} \
        == {1, 2}
    available = [c for i in range(3, p.n + 1) for c in p.node_chunks(i)]
    plan = plan_chunks(p, available, [part1_1, part1_2, part2_1, parity_1])
    assert [(s.outs, s.coeffs is None) for s in plan.steps] == [
        ((part1_2,), False), ((part1_1,), True), ((part2_1,), True),
        ((parity_1,), True)]
    assert plan.steps[1].sources == (part2_1, parity_1)
    assert len(plan.reads) == p.k + 2


@st.composite
def plan_inputs(draw):
    # the chunks of some nodes, less a few more: sets that some set of
    # parts covers, sets that none covers and sets that cannot serve
    n = draw(st.integers(2, 8))
    k = draw(st.integers(1, n - 1))
    f = draw(st.integers(1, n - 1))
    p = SrcParams(n, k, f, 1)
    every = [ChunkId(l, s) for l in range(1, f + 2) for s in range(1, n + 1)]
    nodes = draw(st.sets(st.integers(1, n)))
    lost = draw(st.sets(st.sampled_from(every), max_size=f + 1))
    available = sorted({c for i in nodes for c in p.node_chunks(i)} - lost)
    targets = draw(st.one_of(st.just(data_chunks(p)), st.lists(
        st.sampled_from(every), min_size=1, max_size=2 * (f + 1))))
    return p, available, targets, draw(st.permutations(available))


def _decode_without(triple, gone, shuffle):
    """An order-test case: a decode with the nodes gone lost."""
    p = SrcParams(*triple, 1)
    available = [c for i in range(1, p.n + 1) if i not in gone
                 for c in p.node_chunks(i)]
    return p, sorted(available), data_chunks(p), shuffle(available)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(plan_inputs())
# a decode that no set of parts covers, and one that raises
@example(_decode_without((6, 4, 2), {1, 2, 3}, lambda a: a[::-1]))
@example(_decode_without((5, 3, 2), {1, 2, 3, 4}, lambda a: a[1:] + a[:1]))
def test_a_plan_does_not_depend_on_the_order_of_available(case):
    # the simulator passes a generator and ShardReader a set: the same
    # chunks in any order or form give the same plan or the same error
    p, available, targets, shuffled = case
    text = _plan_text(p, available, targets)
    for same in (available[::-1], shuffled, set(available),
                 (c for c in available)):
        assert _plan_text(p, same, targets) == text
