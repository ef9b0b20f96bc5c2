import hashlib
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from srcodes import sim
from srcodes.errors import ParameterError, PlacementError
from srcodes.sim import (ClusterConfig, Scheme, SimReport, _draws,
                         build_cluster, cdf_csv, repair_time_cdf,
                         run_degraded_read, run_node_failure)

from sim_reference import heap_placement

CHUNK = 64 * 2**20


def _failed_member(cluster):
    """A machine that actually stores something."""
    for m in range(cluster.config.machines):
        if any(m in members for members in cluster.sets):
            return m
    raise AssertionError("empty cluster")


def test_scheme_descriptors():
    assert Scheme.replication().helper_reads == 1
    assert Scheme.rs(10, 6).helper_reads == 6
    assert Scheme.src(10, 6, 2).helper_reads == 2
    assert Scheme.src(10, 6, 2).chunks_per_member == 3
    with pytest.raises(ParameterError):
        Scheme.rs(6, 6)
    with pytest.raises(ParameterError):
        Scheme(kind="raid", n=5, k=3)
    with pytest.raises(ParameterError):   # replication is (3, 1) MDS
        Scheme("replication", 3, 3)
    with pytest.raises(ParameterError) as err:
        Scheme("src", 10, 6, 0)
    assert str(err.value) == "src scheme needs f >= 1"


def test_replication_one_chunk_three_distinct_machines():
    cfg = ClusterConfig(scheme=Scheme.replication(), machines=4,
                        data_bytes_per_machine=CHUNK, chunk_size=CHUNK)
    cluster = build_cluster(cfg)
    assert len(cluster.sets) == 1
    assert len(set(cluster.sets[0])) == 3


def test_placement_matches_hadoop_scale_slot_count():
    cfg = ClusterConfig(scheme=Scheme.src(10, 6, 2), machines=100,
                        data_bytes_per_machine=410_000_000_000)
    sets = build_cluster(cfg).sets.tolist()
    # each member of a (10,6,2) set holds f+1 = 3 of its chunk slots
    for m in range(cfg.machines):
        slots = 3 * sum(members.count(m) for members in sets)
        assert abs(slots - 6400) / 6400 < 0.10


def test_placement_deterministic_per_seed():
    cfg = ClusterConfig(scheme=Scheme.src(10, 6, 2), seed=5)
    assert np.array_equal(build_cluster(cfg).sets, build_cluster(cfg).sets)
    other = ClusterConfig(scheme=Scheme.src(10, 6, 2), seed=6)
    assert not np.array_equal(build_cluster(cfg).sets,
                              build_cluster(other).sets)


@st.composite
def placement_configs(draw):
    kind = draw(st.sampled_from(["replication", "rs", "src"]))
    if kind == "replication":
        scheme = Scheme.replication()
    else:
        n = draw(st.integers(2, 24))
        k = draw(st.integers(1, n - 1))
        scheme = (Scheme.rs(n, k) if kind == "rs"
                  else Scheme.src(n, k, draw(st.integers(1, 3))))
    chunk_size = draw(st.integers(1, 4096))
    return ClusterConfig(
        scheme=scheme, machines=draw(st.integers(scheme.n + 1, 4 * scheme.n + 9)),
        chunk_size=chunk_size,
        data_bytes_per_machine=draw(st.integers(1, 40 * chunk_size)),
        seed=draw(st.integers(0, 2**32)))


# a set straddles two load levels where a level's machines are not a
# whole number of sets: 10 machines for 3-wide sets, 13 for 6-wide ones
@settings(max_examples=150, deadline=None, derandomize=True)
@example(ClusterConfig(scheme=Scheme.replication(), machines=10,
                       chunk_size=1, data_bytes_per_machine=30, seed=3))
@example(ClusterConfig(scheme=Scheme.src(6, 4, 2), machines=13,
                       chunk_size=1, data_bytes_per_machine=60, seed=8))
@given(placement_configs())
def test_placement_matches_the_heap_reference(cfg):
    try:
        want = heap_placement(cfg)
    except PlacementError:
        with pytest.raises(PlacementError):
            build_cluster(cfg)
        return
    assert build_cluster(cfg).sets.tolist() == [list(s) for s in want]


def test_placement_matches_the_heap_reference_at_full_size():
    cfg = ClusterConfig(scheme=Scheme.replication(), machines=1000,
                        data_bytes_per_machine=40_000_000_000)
    sets = build_cluster(cfg).sets
    assert len(sets) == 198_666
    assert np.array_equal(sets, heap_placement(cfg))


@pytest.mark.parametrize("seed", [0, 1, "7:placement", 2**64 + 3])
@pytest.mark.parametrize("count", [1, 7, 1000])
def test_draws_equal_successive_random_calls(seed, count, monkeypatch):
    # the vectorised draw relies on CPython's random() formula and on
    # getrandbits handing out its 32-bit words least significant first,
    # so a draw made a block at a time is the same as one made at once
    for block in (sim._DRAW_BLOCK, 3):
        monkeypatch.setattr(sim, "_DRAW_BLOCK", block)
        rng, want_rng = random.Random(seed), random.Random(seed)
        got = _draws(rng, count)
        want = [want_rng.random() for _ in range(count)]
        assert got.dtype == np.float64
        assert got.tolist() == want
        assert rng.getstate() == want_rng.getstate()


def test_cluster_sets_are_one_read_only_array_of_the_narrowest_dtype():
    # one dtype per size: the narrowest unsigned one that holds the largest
    # machine id.  The sizes past 1 000 machines store one chunk each, so
    # they build fast; at 65 538, 3-wide sets hold every machine once, so
    # a wrapped id would show as a missing one
    for scheme, machines, data, dtype in [
            (Scheme.src(10, 6, 2), 100, 4_000_000_000, np.uint8),
            (Scheme.replication(), 256, CHUNK, np.uint8),
            (Scheme.replication(), 257, CHUNK, np.uint16),
            (Scheme.rs(10, 6), 1000, 4_000_000_000, np.uint16),
            (Scheme.replication(), 65_536, CHUNK, np.uint16),
            (Scheme.replication(), 65_538, CHUNK, np.uint32)]:
        cfg = ClusterConfig(scheme=scheme, machines=machines,
                            data_bytes_per_machine=data)
        sets = build_cluster(cfg).sets
        slots = machines * cfg.chunks_per_machine
        assert sets.dtype == dtype
        assert sets.shape == (slots // (scheme.n * scheme.chunks_per_member),
                              scheme.n)
        with pytest.raises(ValueError):
            sets[0, 0] = 1
    assert np.array_equal(np.sort(sets, axis=None), np.arange(65_538))


@pytest.mark.parametrize("scheme, run", [
    (Scheme.replication(), run_node_failure),
    (Scheme.rs(50, 46), run_degraded_read),
    (Scheme.src(10, 6, 2), run_node_failure),
    (Scheme.rs(10, 6), run_node_failure)])
def test_full_size_build_and_run_peak_memory(scheme, run):
    # numpy reports its buffers to tracemalloc, so the placement array
    # and every level's keys and sort are counted.  The four cluster-sim
    # runs hold a 1.2 MB (uint16) array, or 0.4 MB for SRC's fewer sets.
    # An int32 array fails every bound, a mask of the whole array those
    # of replication and RS(10,6), and a fresh int per job member
    # RS(50,46)'s, whose 596 jobs name 96 machines each
    bound = {"replication": 1_750_000, "src": 1_000_000,
             "rs": 2_500_000 if scheme.n == 50 else 1_750_000}[scheme.kind]
    cfg = ClusterConfig(scheme=scheme, machines=1000,
                        data_bytes_per_machine=40_000_000_000)
    tracemalloc.start()
    try:
        run(build_cluster(cfg), 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound


def test_cluster_too_small_rejected():
    with pytest.raises(PlacementError):
        ClusterConfig(scheme=Scheme.rs(10, 6), machines=10)


def test_single_chunk_replication_repair_time():
    # one job on an idle network: 64 MiB over a 1 Gb/s link, with the
    # read and write-back pipelined into the transfer, so the slowest of
    # link, disk read and disk write sets the pace; a degraded read of
    # that chunk costs exactly one remote read and writes nothing
    for read, write, repair_rate, degraded_rate in [
            (200e6, 200e6, 1.25e8, 1.25e8),   # the link binds
            (50e6, 200e6, 50e6, 50e6),        # a slow disk read binds both
            (200e6, 50e6, 50e6, 1.25e8)]:     # a slow write, only repair
        cfg = ClusterConfig(scheme=Scheme.replication(), machines=4,
                            data_bytes_per_machine=CHUNK, chunk_size=CHUNK,
                            disk_read_bytes_per_s=read,
                            disk_write_bytes_per_s=write)
        cluster = build_cluster(cfg)
        failed = _failed_member(cluster)
        report = run_node_failure(cluster, failed)
        assert report.lost_chunks == 1
        assert report.elapsed == pytest.approx(CHUNK / repair_rate, rel=1e-6)
        deg = run_degraded_read(cluster, failed)
        assert deg.elapsed == pytest.approx(CHUNK / degraded_rate, rel=1e-6)


@pytest.mark.parametrize("scheme", [
    Scheme.replication(), Scheme.rs(10, 6), Scheme.src(10, 6, 2)])
def test_link_is_the_only_binding_resource_at_default_disk_speeds(scheme):
    # disks 1000x faster change nothing: at the default disk speeds the
    # 1 Gb/s link binds at both ends of every flow
    base = ClusterConfig(scheme=scheme)
    fast = ClusterConfig(
        scheme=scheme, disk_read_bytes_per_s=1000 * base.disk_read_bytes_per_s,
        disk_write_bytes_per_s=1000 * base.disk_write_bytes_per_s)
    for run in (run_node_failure, run_degraded_read):
        assert run(build_cluster(fast), 0).to_text() == \
            run(build_cluster(base), 0).to_text()


@pytest.mark.parametrize("field", ["net_bytes_per_s", "disk_read_bytes_per_s",
                                   "disk_write_bytes_per_s",
                                   "data_bytes_per_machine", "chunk_size"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_config_rejects_non_finite_numbers(field, value):
    with pytest.raises(ParameterError):
        ClusterConfig(scheme=Scheme.replication(), **{field: value})


@pytest.mark.parametrize("scheme", [
    Scheme.replication(), Scheme.rs(10, 6), Scheme.src(10, 6, 2)])
def test_conservation_and_helper_counts(scheme):
    cluster = build_cluster(ClusterConfig(scheme=scheme))
    rep = run_node_failure(cluster, 0)
    assert rep.helper_reads_per_chunk == scheme.helper_reads
    assert rep.bytes_read == rep.lost_chunks * scheme.helper_reads * CHUNK
    assert rep.bytes_transferred == rep.bytes_read
    assert rep.bytes_written == rep.lost_chunks * CHUNK
    assert not rep.data_loss
    deg = run_degraded_read(cluster, 0)
    assert deg.bytes_written == 0
    assert deg.bytes_read == rep.bytes_read


def test_throughput_definition():
    cluster = build_cluster(ClusterConfig(scheme=Scheme.src(10, 6, 2)))
    rep = run_node_failure(cluster, 0)
    lost_bytes = rep.lost_chunks * CHUNK
    assert rep.throughput == pytest.approx(lost_bytes / rep.elapsed, rel=1e-12)
    assert rep.elapsed == max(rep.durations)


def test_determinism_bit_identical_reports():
    for scheme in (Scheme.replication(), Scheme.src(10, 6, 2)):
        cfg = ClusterConfig(scheme=scheme, seed=9)
        a = run_node_failure(build_cluster(cfg), 3)
        b = run_node_failure(build_cluster(cfg), 3)
        assert a.to_text() == b.to_text()


def test_degraded_at_least_repair_throughput():
    for scheme in (Scheme.replication(), Scheme.rs(10, 6),
                   Scheme.src(10, 6, 2)):
        cluster = build_cluster(ClusterConfig(scheme=scheme))
        rep = run_node_failure(cluster, 0)
        deg = run_degraded_read(cluster, 0)
        assert deg.throughput >= rep.throughput


def test_scheme_ordering_at_10_6():
    tput = {}
    for scheme in (Scheme.replication(), Scheme.rs(10, 6),
                   Scheme.src(10, 6, 2)):
        cluster = build_cluster(ClusterConfig(scheme=scheme))
        tput[scheme.kind] = run_node_failure(cluster, 0).throughput
    assert tput["replication"] > tput["src"] > tput["rs"]


def test_rs_throughput_nonincreasing_in_k():
    prev = None
    for n, k in ((10, 6), (20, 16), (50, 46)):
        cluster = build_cluster(ClusterConfig(scheme=Scheme.rs(n, k)))
        now = run_node_failure(cluster, 0).throughput
        if prev is not None:
            assert now <= prev
        prev = now


def _report_with(durations):
    return SimReport(
        scheme="x", seed=0, machines=1, chunks_per_machine=1,
        failed_machine=0, degraded=False, lost_chunks=len(durations),
        helper_reads_per_chunk=1, durations=tuple(durations),
        elapsed=max(durations, default=0.0), throughput=0.0, bytes_read=0,
        bytes_transferred=0, bytes_written=0, disk_accesses=0,
        data_loss=False)


def test_cdf_two_jobs():
    assert repair_time_cdf(_report_with([3.0, 1.0])) == [(1.0, 0.5), (3.0, 1.0)]


def test_cdf_step_and_max_percentile():
    cdf = repair_time_cdf(_report_with([2.0, 2.0, 2.0]))
    assert all(t == 2.0 for t, _ in cdf)
    assert cdf[-1] == (2.0, 1.0)
    assert repair_time_cdf(_report_with([])) == []


def test_cdf_monotone_on_real_run():
    cluster = build_cluster(ClusterConfig(scheme=Scheme.src(10, 6, 2)))
    cdf = repair_time_cdf(run_node_failure(cluster, 0))
    times = [t for t, _ in cdf]
    pcts = [p for _, p in cdf]
    assert times == sorted(times)
    assert pcts == sorted(pcts) and pcts[-1] == 1.0
    assert cdf_csv(run_node_failure(cluster, 0)).startswith(
        "repair_time_s,percentile")


@pytest.mark.parametrize("field", ["max_inbound_repairs", "dispatch_window"])
def test_config_rejects_a_concurrency_knob_below_one(field):
    with pytest.raises(ParameterError) as err:
        ClusterConfig(scheme=Scheme.replication(), **{field: 0})
    assert str(err.value) == "concurrency knobs must be >= 1"


def test_failed_machine_bounds():
    cluster = build_cluster(ClusterConfig(scheme=Scheme.replication()))
    with pytest.raises(ParameterError):
        run_node_failure(cluster, 100)


def _small_configs(count):
    """Seeded small clusters over every scheme kind, with disks slower or
    faster than the link and both concurrency knobs from 1 to unbounded,
    each with a failed machine and a mode."""
    rng = random.Random(0)
    out = []
    for _ in range(count):
        kind = rng.choice(["replication", "rs", "src"])
        if kind == "replication":
            scheme = Scheme.replication()
        else:
            n = rng.randint(2, 12)
            k = rng.randint(1, n - 1)
            scheme = (Scheme.rs(n, k) if kind == "rs"
                      else Scheme.src(n, k, rng.randint(1, min(3, n - 1))))
        chunk_size = rng.choice([1, 7, CHUNK])
        cfg = ClusterConfig(
            scheme=scheme, machines=rng.randint(scheme.n + 1, 3 * scheme.n + 6),
            chunk_size=chunk_size,
            data_bytes_per_machine=rng.randint(scheme.chunks_per_member, 30)
            * chunk_size,
            net_bytes_per_s=rng.randint(50, 300) * 1e6,
            disk_read_bytes_per_s=rng.randint(60, 200) * 1e6,
            disk_write_bytes_per_s=rng.randint(60, 200) * 1e6,
            max_inbound_repairs=rng.choice([1, 2, 3, 10**9]),
            dispatch_window=rng.choice([1, 2, 8, 10**9]),
            seed=rng.randrange(2**32))
        out.append((cfg, rng.randrange(cfg.machines), rng.random() < 0.5))
    return out


def test_small_cluster_reports_pinned():
    # every report byte of 500 small runs, many of them disk-bound at one
    # end or with tied shares, so a change to the order in which ends are
    # filled or jobs dispatched changes the digest
    text = []
    for cfg, failed, degraded in _small_configs(500):
        run = run_degraded_read if degraded else run_node_failure
        text.append(run(build_cluster(cfg), failed).to_text())
    digest = hashlib.sha256("\n".join(text).encode()).hexdigest()
    assert digest == (
        "ca161fe8207d6ffe4a42204b76942430918dd7ff734276f59375d901c7f00747")
