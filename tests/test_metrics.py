import pytest

from srcodes.core import SrcParams, encode
from srcodes.errors import ParameterError
from srcodes.metrics import (asymptotic_report, comparison_table, csv_table,
                             format_table, src_metrics)
from srcodes.repair import node_plan

# Independent re-derivation of every comparison-table cell, kept separate
# from the library formulas on purpose.
ORACLE = {
    "mds": lambda n, k, f: (1.0, float(k), k, k / n),
    "msr": lambda n, k, f: (1.0, (n - 1) / (n - k), n - 1, k / n),
    "mbr_k": lambda n, k, f: (2.0 * k / (k + 1), 2.0 * k / (k + 1), k,
                              0.5 * (k + 1) / n),
    "mbr_n1": lambda n, k, f: (
        2.0 * (n - 1) / (2 * (n - 1) - k + 1),
        2.0 * (n - 1) / (2 * (n - 1) - k + 1),
        n - 1,
        k * (2 * (n - 1) - k + 1) / (2.0 * n * (n - 1)),
    ),
    "src": lambda n, k, f: ((f + 1) / f, float(f + 1), min(2 * f, n - 1),
                            f * k / ((f + 1.0) * n)),
}


def _grid():
    pts = []
    for n in (4, 5, 6, 8, 10, 12, 16, 20, 32, 50):
        for k in sorted({max(1, n // 2), n - 2, n - 1}):
            for f in (1, 2, 3):
                if 1 <= k < n and f + 1 <= n:
                    pts.append((n, k, f))
    return pts


def _close(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def test_src_metrics_four_node_example():
    row = src_metrics(SrcParams(4, 2, 2, 16))
    assert row.rate == pytest.approx(1 / 3, rel=1e-12)
    assert row.storage_per_node == pytest.approx(1.5, rel=1e-12)
    assert row.repair_bandwidth == 3.0
    assert row.disk_accesses == 3  # min(2f, n-1) caps 4 at 3


def test_src_rate_20_16_2():
    assert src_metrics(SrcParams(20, 16, 2, 16)).rate == 8 / 15


def test_normalized_costs_50_46():
    assert comparison_table(50, 46, 2)[-1].normalized_cost == \
        pytest.approx(0.5435, abs=0.005)
    assert comparison_table(50, 46, 2)[0].normalized_cost == \
        pytest.approx(0.3623, abs=0.005)


def test_comparison_table_against_oracle_grid():
    pts = _grid()
    assert len(pts) >= 50
    for n, k, f in pts:
        rows = comparison_table(n, k, f)
        for row, key in zip(rows, ("mds", "msr", "mbr_k", "mbr_n1", "src")):
            alpha, gamma, d, rate = ORACLE[key](n, k, f)
            assert _close(row.storage_per_node, alpha), (key, n, k, f)
            assert _close(row.repair_bandwidth, gamma), (key, n, k, f)
            assert row.disk_accesses == d, (key, n, k, f)
            assert _close(row.rate, rate), (key, n, k, f)


def test_mbr_rate_bounded_by_half():
    for n, k, f in _grid():
        rows = comparison_table(n, k, f)
        assert rows[2].rate == pytest.approx(0.5 * (k + 1) / n, rel=1e-12)
        assert rows[2].rate <= 0.5 + 1e-12
        assert rows[3].rate <= 0.5 + 1e-12


def test_msr_equals_mds_download_when_single_parity():
    k = 6
    rows = comparison_table(k + 1, k, 2)
    assert rows[1].repair_bandwidth == pytest.approx(k, rel=1e-12)
    assert rows[0].repair_bandwidth == pytest.approx(k, rel=1e-12)


def test_comparison_table_rejects_bad_shapes():
    with pytest.raises(ParameterError):
        comparison_table(4, 4, 2)
    with pytest.raises(ParameterError):
        comparison_table(4, 2, 4)


def test_disk_accesses_match_measured_plans():
    for n in range(3, 13):
        for f in (1, 2, 3):
            if f + 1 > n:
                continue
            k = max(1, n - 2)
            p = SrcParams(n, k, f, 16)
            expect = src_metrics(p).disk_accesses
            for node in range(1, n + 1):
                reads = node_plan(p, node).reads
                assert len({p.chunk_location(c) for c in reads}) == expect


def test_node_repair_bytes_match_bandwidth_formula():
    p = SrcParams(6, 4, 2, 256)
    bytes_per_stripe = len(node_plan(p, 1).reads) * p.chunk_size
    # gamma = (f+1) M/k means (f+1)/k of a stripe's payload
    assert bytes_per_stripe * p.k == (p.f + 1) * p.stripe_data_bytes


def test_rate_times_storage_is_file_size():
    p = SrcParams(6, 4, 2, 64)
    file_bytes = bytes(3 * p.stripe_data_bytes)
    arr = encode(file_bytes, p)
    rate = src_metrics(p).rate
    assert rate * sum(s.nbytes for s in arr.shards.values()) == pytest.approx(len(file_bytes))


def test_asymptotic_ratio_grows_and_rate_converges():
    ks = [2 ** e for e in range(3, 21)]
    rows = asymptotic_report(ks, rate=0.5)
    ratios = [r.bandwidth_ratio for r in rows]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    last = rows[-1]
    assert last.k == 2 ** 20
    assert abs(last.src_rate - 0.5) / 0.5 < 0.05


def test_fixed_k_growing_f_rate_monotone():
    k, n = 16, 20
    rates = [f / (f + 1) * k / n for f in range(1, 12)]
    assert all(b > a for a, b in zip(rates, rates[1:]))
    assert rates[-1] < k / n


def test_asymptotic_rejects_bad_rate():
    with pytest.raises(ParameterError):
        asymptotic_report([8], rate=1.5)
    with pytest.raises(ParameterError):
        asymptotic_report([1], rate=0.5)


def test_renderings_contain_all_rows():
    rows = comparison_table(10, 6, 2)
    text = format_table(rows)
    csv = csv_table(rows)
    for row in rows:
        assert row.scheme in text and row.scheme in csv
    assert len(csv.splitlines()) == 6
