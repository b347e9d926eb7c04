from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest

from rsmld.ratparams import (InfeasibleParams, InterpParams, QuadraticRoot,
                             multiplicity_scan, optimize_params,
                             single_multiplicity_params, wu_params)


def test_quadratic_root_float_and_floor():
    # (5 + sqrt(2)) / 3 = 2.1380...
    r = QuadraticRoot(5, 2, 3, +1)
    assert abs(float(r) - (5 + 2 ** 0.5) / 3) < 1e-12
    assert r.floor() == 2
    assert r.ceil() == 3
    # (5 - sqrt(2)) / 3 = 1.195...
    s = QuadraticRoot(5, 2, 3, -1)
    assert s.floor() == 1
    assert s.ceil() == 2


def test_quadratic_root_exact_values():
    # sqrt(49/4) = 7/2, so (3 + 7/2) / 1 = 13/2
    r = QuadraticRoot(3, Fraction(49, 4), 1, +1)
    assert r.as_fraction() == Fraction(13, 2)
    assert r == Fraction(13, 2)
    assert r.floor() == 6 and r.ceil() == 7
    # integers floor/ceil to themselves
    t = QuadraticRoot(2, 9, 1, +1)   # 2 + 3 = 5
    assert t == 5
    assert t.floor() == 5 and t.ceil() == 5
    # irrational roots have no fraction form
    assert QuadraticRoot(0, 2, 1, +1).as_fraction() is None


def test_quadratic_root_comparisons():
    sqrt2 = QuadraticRoot(0, 2, 1, +1)
    assert 1 < sqrt2 < 2
    assert sqrt2 > Fraction(7, 5)
    assert sqrt2 < Fraction(3, 2)
    assert not (sqrt2 == 1)
    neg = QuadraticRoot(0, 2, 1, -1)    # -sqrt(2)
    assert neg < 0 < sqrt2
    assert neg.floor() == -2 and neg.ceil() == -1
    # huge radicand exercises exact (non-float) comparison
    big = QuadraticRoot(0, 10 ** 40 + 1, 10 ** 20, +1)
    assert big > 1
    assert QuadraticRoot(0, 10 ** 40 - 1, 10 ** 20, +1) < 1


def test_quadratic_root_rejects_bad_input():
    with pytest.raises(ValueError):
        QuadraticRoot(1, -1, 1, +1)
    with pytest.raises(ValueError):
        QuadraticRoot(1, 1, 0, +1)
    with pytest.raises(ValueError):
        QuadraticRoot(1, 1, -2, +1)


def test_interp_params_validate():
    good = InterpParams(t=7, k1=2, k2=1, s=7, M=15, rho=33, N=420, U=424)
    good.validate()
    assert good.w == 1
    assert good.cost == 15 * 424
    with pytest.raises(InfeasibleParams):
        InterpParams(t=7, k1=2, k2=1, s=7, M=15, rho=33, N=420, U=999).validate()
    with pytest.raises(InfeasibleParams):
        # rho + M*k2 must stay below t*s
        InterpParams(t=7, k1=2, k2=1, s=7, M=15, rho=40, N=420,
                     U=(40 + 1) * 16 - 60).validate()


def test_shape_validation():
    with pytest.raises(ValueError):
        optimize_params(15, 5, 7, 3, 1)    # k1 + k2 != 2t - (n - k + 1)
    with pytest.raises(ValueError):
        optimize_params(15, 5, 7, -1, 4)
    with pytest.raises(ValueError):
        optimize_params(15, 16, 7, 2, 1)


def test_beyond_bound_radius_infeasible():
    with pytest.raises(InfeasibleParams):
        optimize_params(15, 5, 8, 3, 2)
    with pytest.raises(InfeasibleParams):
        wu_params(15, 5, 8, 3, 2)


def test_scan_large_code():
    scan = multiplicity_scan(127, 24, 64, 15, 9, 2)
    assert scan.feasible
    assert scan.N == 381
    assert scan.disc == 1312
    assert (scan.m_low, scan.m_high) == (4, 6)
    assert abs(float(scan.M1) - 3.3241) < 1e-4
    assert abs(float(scan.M2) - 6.3426) < 1e-4


def test_optimize_large_code():
    res = optimize_params(127, 24, 64, 15, 9)
    assert (res.s_low, res.s_high) == (2, 3)
    assert res.s_min == 2
    assert [(p.M, p.rho, p.U) for p in res.rows] == [
        (4, 88, 385), (5, 78, 384), (6, 72, 385)]
    assert [p.cost for p in res.rows] == [1540, 1920, 2310]
    best = res.best
    assert (best.s, best.M, best.rho, best.N, best.U) == (2, 4, 88, 381, 385)
    assert best.source == "optimized"
    best.validate()


def test_optimize_prefers_smaller_m_on_cost_tie():
    res = optimize_params(127, 24, 64, 15, 9)
    # rows 1 and 3 share U-ish values but costs differ; ensure ordering rule
    costs = [p.cost for p in res.rows]
    assert res.best.cost == min(costs)


def test_wu_closed_form_large_code():
    wu = wu_params(127, 24, 64, 15, 9)
    assert (wu.s, wu.M, wu.rho, wu.N, wu.U) == (2, 5, 82, 381, 408)
    assert wu.source == "wu"
    wu.validate()
    opt = optimize_params(127, 24, 64, 15, 9).best
    assert opt.cost <= wu.cost


def test_scan_midsize_code():
    s1 = multiplicity_scan(15, 5, 7, 2, 1, 1)
    assert not s1.feasible
    assert s1.disc == Fraction(-71, 4)
    assert s1.M1 is None and s1.M2 is None

    s6 = multiplicity_scan(15, 5, 7, 2, 1, 6)
    assert not s6.feasible
    assert s6.disc == Fraction(9, 4)
    assert s6.M1 == 13 and s6.M2 == 14
    assert s6.m_low == 14 and s6.m_high == 13   # empty interval

    s7 = multiplicity_scan(15, 5, 7, 2, 1, 7)
    assert s7.feasible
    assert s7.disc == Fraction(121, 4)
    assert s7.M1 == 14
    assert s7.M2 == Fraction(53, 3)
    assert (s7.m_low, s7.m_high) == (15, 17)


def test_optimize_midsize_code():
    res = optimize_params(15, 5, 7, 2, 1)
    assert (res.s_low, res.s_high) == (6, 8)
    assert res.s_min == 7
    assert [(p.M, p.rho, p.U) for p in res.rows] == [
        (15, 33, 424), (16, 32, 425), (17, 31, 423)]
    assert (res.best.M, res.best.rho) == (15, 33)
    assert res.best.cost == 6360
    # the scan record keeps the infeasible attempts
    assert [sc.s for sc in res.scan] == [6, 7]
    assert not res.scan[0].feasible and res.scan[1].feasible


def test_optimize_params_cached_per_shape():
    # a pure function of the shape, asked for once per decoded word
    res = optimize_params(15, 5, 7, 2, 1)
    assert optimize_params(15, 5, 7, 2, 1) is res
    assert optimize_params(15, 5, 6, 0, 1) is not res
    assert isinstance(res.scan, tuple) and isinstance(res.rows, tuple)
    with pytest.raises(FrozenInstanceError):
        res.best = res.rows[1]


def test_single_multiplicity():
    p = single_multiplicity_params(15, 5, 0, 0)
    assert (p.s, p.M, p.rho, p.N, p.U) == (1, 3, 4, 15, 20)
    assert p.source == "single"
    p.validate()
    with pytest.raises(ValueError):
        single_multiplicity_params(15, 5, 1, 0)


def test_optimizer_handles_asymmetric_degrees():
    # k1 = 0, k2 = 1 (denominator-heavy level): still feasible at s = 1
    res = optimize_params(15, 5, 6, 0, 1)
    assert res.s_min == 1
    assert res.best.M == 3
    assert res.best.rho == 2
    assert res.best.U == 18
    res.best.validate()
