import math

import pytest
import sympy as sp

from srcodes.errors import ParameterError
from srcodes.reliability import (MarkovParams, absorption_time,
                                 mttf_redundancy_set, mttf_system, mttf_table)
from srcodes.sim import (ClusterConfig, Scheme, build_cluster,
                         run_node_failure)


def closed_form_mttf(n, k, lam_exact, mu_exact):
    """Independent oracle: solve the chain symbolically with sympy over
    exact rationals and evaluate the absorption time from state 0."""
    m = n - k
    E = sp.symbols(f"E0:{m + 1}")
    lam, mu = sp.Rational(lam_exact[0], lam_exact[1]), sp.Rational(*mu_exact)
    eqs = []
    for i in range(m + 1):
        b = (n - i) * lam
        d = mu if i > 0 else sp.Integer(0)
        total = b + d
        nxt = E[i + 1] if i + 1 <= m else sp.Integer(0)
        prev = E[i - 1] if i >= 1 else sp.Integer(0)
        eqs.append(sp.Eq(E[i], 1 / total + (b / total) * nxt + (d / total) * prev))
    sol = sp.solve(eqs, list(E), dict=True)[0]
    return float(sol[E[0]])


@pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (10, 9), (3, 1), (4, 2), (10, 8)])
def test_solver_matches_closed_forms_small_m(n, k):
    lam = (1, 43800)   # 5-year disk, exact rational
    mu = (4, 1)        # 15-minute repair
    p = MarkovParams(n=n, k=k, repair_hours=0.25)
    expect = closed_form_mttf(n, k, lam, mu)
    got = mttf_redundancy_set(p)
    assert abs(got - expect) / expect < 1e-10


def test_no_repair_series_of_exponentials():
    lam = 1 / 43800
    k = 5
    got = absorption_time(birth=[(k + 1) * lam, k * lam], death=[0.0, 0.0])
    assert got == pytest.approx(1 / ((k + 1) * lam) + 1 / (k * lam), rel=1e-12)
    # infinite repair time == no repair, through the public interface
    p = MarkovParams(n=k + 1, k=k, repair_hours=math.inf)
    assert mttf_redundancy_set(p) == pytest.approx(got, rel=1e-12)


def test_mttf_monotone_in_repair_rate():
    prev = None
    for hours in (2.0, 1.0, 0.5, 0.25, 0.05):
        p = MarkovParams(n=10, k=6, repair_hours=hours)
        now = mttf_redundancy_set(p)
        if prev is not None:
            assert now > prev
        prev = now


def test_mttf_monotone_in_tolerance_and_failure_rate():
    base = MarkovParams(n=10, k=8, repair_hours=0.5)
    more_tolerant = MarkovParams(n=10, k=6, repair_hours=0.5)
    assert mttf_redundancy_set(more_tolerant) > mttf_redundancy_set(base)
    flaky = MarkovParams(n=10, k=8, repair_hours=0.5,
                         disk_mttf_hours=43800 / 10)
    assert mttf_redundancy_set(flaky) < mttf_redundancy_set(base)


def test_system_aggregation():
    p = MarkovParams(n=10, k=6, repair_hours=0.5,
                     system_bytes=6 * 4e9, node_bytes=4e9)
    assert p.redundancy_set_count == 1.0
    assert mttf_system(p) == mttf_redundancy_set(p)
    doubled = MarkovParams(n=10, k=6, repair_hours=0.5,
                           system_bytes=12 * 4e9, node_bytes=4e9)
    assert mttf_system(doubled) == pytest.approx(mttf_system(p) / 2, rel=1e-12)


def test_default_repair_hours_pinned():
    # replication's 0.25 h is stated; the rest follow the simulator
    hours = {r.scheme: round(r.repair_hours, 4) for r in mttf_table()}
    assert hours == {
        "3-way-replication": 0.25, "RS(10,6)": 1.3333, "RS(20,16)": 3.5556,
        "RS(50,46)": 10.2222, "SRC(10,6,2)": 0.4722, "SRC(20,16,2)": 0.4722,
        "SRC(50,46,2)": 0.4861}


def test_repair_hours_scale_with_simulated_rebuild_time():
    def rebuild_s(scheme):
        cluster = build_cluster(ClusterConfig(scheme=scheme))
        return run_node_failure(cluster, 0).elapsed

    repl_s = rebuild_s(Scheme.replication())
    for r in mttf_table([(12, 8)]):
        assert (r.redundancy.n, r.redundancy.k) == (
            (3, 1) if r.redundancy.kind == "replication" else (12, 8))
        assert r.repair_hours == pytest.approx(
            0.25 * rebuild_s(r.redundancy) / repl_s, rel=1e-12)


def test_src_outlives_rs_for_each_default_pair():
    rows = {r.scheme: r.system_mttf_hours for r in mttf_table()}
    for n, k in ((10, 6), (20, 16), (50, 46)):
        assert rows[f"RS({n},{k})"] < rows[f"SRC({n},{k},2)"]


def test_default_sweep_ordering():
    rows = {r.scheme: r for r in mttf_table()}
    repl = rows["3-way-replication"].system_mttf_hours
    assert 1e8 <= repl <= 1e10
    assert rows["SRC(50,46,2)"].system_mttf_hours >= 1000 * repl
    for n, k in ((10, 6), (20, 16), (50, 46)):
        assert rows[f"SRC({n},{k},2)"].system_mttf_hours > repl
    rs = [rows[f"RS({n},{k})"].system_mttf_hours
          for n, k in ((10, 6), (20, 16), (50, 46))]
    assert rs[0] > rs[1] > rs[2]
    # k-heavy RS repairs so slowly that it crosses below replication
    assert rs[2] < repl


# an infinite repair time is allowed: it means no repair
@pytest.mark.parametrize("field,value", [("repair_hours", math.nan)] + [
    (field, value) for field in ("disk_mttf_hours", "system_bytes",
                                 "node_bytes")
    for value in (math.nan, math.inf)])
def test_params_reject_non_finite_numbers(field, value):
    with pytest.raises(ParameterError):
        MarkovParams(n=3, k=1, **{"repair_hours": 0.5, field: value})


def test_params_validation():
    with pytest.raises(ParameterError):
        MarkovParams(n=3, k=3, repair_hours=0.5)
    with pytest.raises(ParameterError):
        MarkovParams(n=3, k=1, repair_hours=0)
    with pytest.raises(ParameterError):
        absorption_time([], [])
    with pytest.raises(ParameterError):
        absorption_time([0.0], [0.0])
    with pytest.raises(ParameterError) as err:
        absorption_time([1.0, 0.0], [0.0, 1.0])
    assert str(err.value) == "birth rate from state 1 must be positive"
