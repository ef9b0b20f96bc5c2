"""Acceptance gate: one test per criterion, each printing a PASS line
(run with `pytest tests/test_acceptance.py -v -s` to see them).

Criteria at a glance: exhaustive erasure recovery, repair exactness and
cost counts, the 4-node layout/repair fixture, formula oracles on a
50-point grid, simulator trend bands at the scaled default config,
conservation/determinism audits, reliability ordering, and the CLI
end-to-end cycle.
"""

import hashlib
import time
from itertools import combinations

import numpy as np
import pytest
from click.testing import CliRunner

from srcodes.cli import main as cli_main
from srcodes.core import ChunkId, SrcParams, chunks_from_shards, encode, \
    plan_chunks, reconstruct, ring_add
from srcodes.metrics import comparison_table, src_metrics
from srcodes.mds import make_generator
from srcodes.reliability import MarkovParams, mttf_redundancy_set, mttf_table
from srcodes.repair import node_plan
from srcodes.shards import MANIFEST_NAME, shard_filename
from srcodes.sim import ClusterConfig, Scheme, build_cluster, \
    run_degraded_read, run_node_failure

from gf_reference import gf_matmul

PARAMS_SET = [(4, 2, 2), (5, 3, 2), (6, 4, 2), (6, 3, 3), (8, 4, 3)]
ONE_MIB = 1 << 20


def _report(num, text):
    print(f"\nACCEPTANCE {num} PASS: {text}")


def _random_bytes(seed, size=ONE_MIB):
    return np.random.default_rng(seed).integers(
        0, 256, size, dtype=np.uint8).tobytes()


def test_criterion_1_any_n_minus_k_erasures():
    start = time.monotonic()
    patterns = 0
    for n, k, f in PARAMS_SET:
        p = SrcParams(n, k, f, 8192)
        file_bytes = _random_bytes(n * 100 + k)
        arr = encode(file_bytes, p)
        for erased in combinations(range(1, n + 1), n - k):
            survivors = {i: arr.shards[i] for i in range(1, n + 1)
                         if i not in erased}
            assert reconstruct(survivors, p, arr.file_size) == file_bytes
            patterns += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(1, f"{patterns} erasure patterns over {len(PARAMS_SET)} param "
               f"sets reconstruct 1 MiB byte-exactly in {elapsed:.1f}s")


def test_criterion_2_repair_exactness_and_counts():
    for n, k, f in PARAMS_SET:
        p = SrcParams(n, k, f, 8192)
        arr = encode(_random_bytes(n * 7 + f), p)
        for failed in range(1, n + 1):
            reads = node_plan(p, failed).reads
            disks = {p.chunk_location(c) for c in reads}
            assert len(reads) == f * (f + 1)
            assert len(disks) == min(2 * f, n - 1)
            helpers = {i: arr.shards[i] for i in disks}
            restored = chunks_from_shards(p, helpers,
                                          p.node_chunks(failed))
            assert np.array_equal(restored, arr.shards[failed])
    p = SrcParams(4, 2, 2, 8192)
    demo = node_plan(p, 1).reads
    assert len(demo) == 6
    assert {p.chunk_location(c) for c in demo} == {2, 3, 4}
    _report(2, "every single-node repair byte-identical; f(f+1) reads and "
               "min(2f, n-1) disks everywhere; (4,2,2) shows 6 reads / 3 disks")


def test_criterion_3_four_node_fixture():
    p = SrcParams(4, 2, 2, 64)
    for node in range(1, 5):
        assert p.node_chunks(node) == [
            ChunkId(1, node),
            ChunkId(2, ring_add(node, 1, 4)),
            ChunkId(3, ring_add(node, 2, 4)),
        ]
    plan = plan_chunks(p, p.node_chunks(2) + p.node_chunks(3)
                       + p.node_chunks(4), [ChunkId(1, 1)])
    assert [(s.outs, s.sources) for s in plan.steps] == \
        [((ChunkId(1, 1),), (ChunkId(2, 1), ChunkId(3, 1)))]
    assert [p.chunk_location(c) for c in plan.steps[0].sources] == [4, 3]

    # byte-level check of the same layout on a one-stripe file
    file_bytes = _random_bytes(99, 4 * 64)
    quarters = np.frombuffer(file_bytes, np.uint8).reshape(4, 64)
    g = make_generator(2, 4)
    first = gf_matmul(g.T, quarters[0:2])
    second = gf_matmul(g.T, quarters[2:4])
    arr = encode(file_bytes, p)
    for node in range(1, 5):
        shard = arr.shards[node][0]
        assert np.array_equal(shard[0], first[node - 1])
        assert np.array_equal(shard[1], second[ring_add(node, 1, 4) - 1])
        m = ring_add(node, 2, 4) - 1
        assert np.array_equal(shard[2], first[m] ^ second[m])
    _report(3, "4-node layout and the node-1 repair plan match the expected "
               "fixture symbolically and byte-for-byte")


def test_criterion_4_formula_oracles():
    # independent re-derivation of the comparison formulas
    oracle = {
        "mds": lambda n, k, f: (1.0, float(k), k, k / n),
        "msr": lambda n, k, f: (1.0, (n - 1) / (n - k), n - 1, k / n),
        "mbr_k": lambda n, k, f: (2 * k / (k + 1), 2 * k / (k + 1), k,
                                  0.5 * (k + 1) / n),
        "mbr_n1": lambda n, k, f: (
            2 * (n - 1) / (2 * (n - 1) - k + 1),
            2 * (n - 1) / (2 * (n - 1) - k + 1),
            n - 1, k * (2 * (n - 1) - k + 1) / (2.0 * n * (n - 1))),
        "src": lambda n, k, f: ((f + 1) / f, f + 1.0, min(2 * f, n - 1),
                                f * k / ((f + 1.0) * n)),
    }
    grid = [(n, k, f)
            for n in (4, 5, 6, 8, 10, 12, 16, 20, 32, 50)
            for k in sorted({max(1, n // 2), n - 2, n - 1})
            for f in (1, 2, 3)
            if 1 <= k < n and f + 1 <= n]
    assert len(grid) >= 50

    def close(a, b):
        return abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))

    for n, k, f in grid:
        rows = comparison_table(n, k, f)
        for row, key in zip(rows, ("mds", "msr", "mbr_k", "mbr_n1", "src")):
            alpha, gamma, d, rate = oracle[key](n, k, f)
            assert close(row.storage_per_node, alpha)
            assert close(row.repair_bandwidth, gamma)
            assert row.disk_accesses == d
            assert close(row.rate, rate)
    assert src_metrics(SrcParams(20, 16, 2, 1)).rate == 8 / 15
    assert abs(comparison_table(50, 46, 2)[-1].normalized_cost - 0.5435) \
        <= 0.005
    assert abs(comparison_table(50, 46, 2)[0].normalized_cost - 0.3623) \
        <= 0.005
    _report(4, f"{len(grid)}-point grid matches the re-derived formulas to "
               "1e-12; (20,16,2) rate = 8/15; (50,46) costs 0.5435 / 0.3623")


@pytest.fixture(scope="module")
def sim_reports():
    """Default scaled config runs shared by criteria 5 and 6."""
    start = time.monotonic()
    reports = {}
    schemes = {
        "repl": Scheme.replication(),
        "rs_10_6": Scheme.rs(10, 6),
        "src_10_6": Scheme.src(10, 6, 2),
        "src_20_16": Scheme.src(20, 16, 2),
        "src_50_46": Scheme.src(50, 46, 2),
        "rs_50_46": Scheme.rs(50, 46),
    }
    for name, scheme in schemes.items():
        cluster = build_cluster(ClusterConfig(scheme=scheme))
        reports[name] = run_node_failure(cluster, 0)
        reports[name + ":deg"] = run_degraded_read(cluster, 0)
    reports[":elapsed"] = time.monotonic() - start
    return reports


def test_criterion_5_simulator_trends(sim_reports):
    r = sim_reports
    assert r[":elapsed"] < 120.0
    # (a) throughput ordering at (10, 6)
    assert r["repl"].throughput > r["src_10_6"].throughput > \
        r["rs_10_6"].throughput
    # (b) SRC flat across (n, k) at f = 2
    src = [r["src_10_6"].throughput, r["src_20_16"].throughput,
           r["src_50_46"].throughput]
    spread = (max(src) - min(src)) / max(src)
    assert spread < 0.15
    # (c) RS collapses as k grows
    assert r["rs_50_46"].throughput < 0.5 * r["rs_10_6"].throughput
    # (d) degraded read at least as fast as repair, every scheme
    for name in ("repl", "rs_10_6", "src_10_6", "src_20_16", "src_50_46",
                 "rs_50_46"):
        assert r[name + ":deg"].throughput >= r[name].throughput
    # (e) SRC degraded read lands in the 40-80% band of replication's
    ratio = r["src_10_6:deg"].throughput / r["repl:deg"].throughput
    assert 0.40 <= ratio <= 0.80
    _report(5, f"ordering repl>SRC>RS; SRC spread {spread:.1%}; RS(50,46) at "
               f"{r['rs_50_46'].throughput / r['rs_10_6'].throughput:.1%} of "
               f"RS(10,6); degraded>=repair; SRC/replication degraded ratio "
               f"{ratio:.2f} in [0.40, 0.80]; ran in {r[':elapsed']:.1f}s")


def test_criterion_6_conservation_and_determinism(sim_reports):
    expected_reads = {"repl": 1, "rs_10_6": 6, "src_10_6": 2, "src_20_16": 2,
                      "src_50_46": 2, "rs_50_46": 46}
    cs = 64 * 2**20
    for name, reads in expected_reads.items():
        for rep in (sim_reports[name], sim_reports[name + ":deg"]):
            assert rep.helper_reads_per_chunk == reads
            assert rep.bytes_read == rep.lost_chunks * reads * cs
            assert rep.bytes_transferred == rep.bytes_read
            want = 0 if rep.degraded else rep.lost_chunks * cs
            assert rep.bytes_written == want
    cfg = ClusterConfig(scheme=Scheme.src(10, 6, 2))
    again = run_node_failure(build_cluster(cfg), 0)
    assert again.to_text() == sim_reports["src_10_6"].to_text()
    _report(6, "bytes read == transferred == helpers x chunk bytes; helper "
               "counts {1, k, f}; equal seeds give bit-identical reports")


def test_criterion_7_reliability_ordering():
    rows = {r.scheme: r.system_mttf_hours for r in mttf_table()}
    repl = rows["3-way-replication"]
    assert 1e8 <= repl <= 1e10
    assert rows["SRC(50,46,2)"] >= 1e3 * repl
    rs = [rows[f"RS({n},{k})"] for n, k in ((10, 6), (20, 16), (50, 46))]
    assert rs[0] > rs[1] > rs[2]

    # chain solver vs exact symbolic closed forms for n-k <= 2
    import sympy as sp

    def closed_form(n, k, lam, mu):
        m = n - k
        E = sp.symbols(f"E0:{m + 1}")
        eqs = []
        for i in range(m + 1):
            b = (n - i) * lam
            d = mu if i > 0 else sp.Integer(0)
            total = b + d
            nxt = E[i + 1] if i + 1 <= m else sp.Integer(0)
            prev = E[i - 1] if i >= 1 else sp.Integer(0)
            eqs.append(sp.Eq(E[i], 1 / total + b / total * nxt + d / total * prev))
        return float(sp.solve(eqs, list(E), dict=True)[0][E[0]])

    for n, k, hours in ((3, 2, 0.25), (3, 1, 0.25), (10, 8, 0.5), (12, 11, 2.0)):
        got = mttf_redundancy_set(MarkovParams(n=n, k=k, repair_hours=hours))
        want = closed_form(n, k, sp.Rational(1, 43800),
                           1 / sp.Rational(hours))
        assert abs(got - want) / want < 1e-10
    _report(7, f"replication system MTTF {repl:.2e} h in [1e8, 1e10]; "
               f"SRC(50,46,2) is {rows['SRC(50,46,2)'] / repl:.0f}x higher; "
               "RS falls with k; solver matches closed forms to 1e-10")


def test_criterion_8_cli_end_to_end(tmp_path):
    data = _random_bytes(2024, 16 * ONE_MIB)
    src = tmp_path / "input.bin"
    src.write_bytes(data)
    out = tmp_path / "shards"
    runner = CliRunner()

    res = runner.invoke(cli_main, ["encode", str(src), "--n", "10", "--k", "6",
                                   "--f", "2", "--chunk-size", str(64 * 1024),
                                   "--out", str(out)])
    assert res.exit_code == 0, res.output
    manifest = out / MANIFEST_NAME

    res = runner.invoke(cli_main, ["repair", "--manifest", str(manifest),
                                   "--shards", str(out), "--node", "4",
                                   "--dry-run"])
    assert res.exit_code == 0, res.output
    assert "distinct helper disks: 4" in res.output

    lost = out / shard_filename(4)
    original_shard = lost.read_bytes()
    lost.unlink()
    res = runner.invoke(cli_main, ["repair", "--manifest", str(manifest),
                                   "--shards", str(out), "--node", "4"])
    assert res.exit_code == 0, res.output
    assert lost.read_bytes() == original_shard

    dest = tmp_path / "restored.bin"
    res = runner.invoke(cli_main, ["decode", "--manifest", str(manifest),
                                   "--shards", str(out), "--out", str(dest)])
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(dest.read_bytes()).digest() == \
        hashlib.sha256(data).digest()
    _report(8, "16 MiB (10,6,2) encode -> shard loss -> repair -> decode "
               "returns the original digest; dry run reports 4 disks")
