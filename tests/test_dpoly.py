import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bvlab.characters import character_group
from bvlab.dpoly import (
    DifficultIntervalError,
    DirichletPolynomial,
    WellSpacedSet,
    build_triple_family,
    derivative_second_moment_report,
    divisor_moment_report,
    fourth_moment_report,
    large_value_count_bruteforce,
    large_value_report,
    mean_value_report,
    mixed_second_moment_report,
    primitive_characters,
    select_well_spaced,
)

CHI1 = character_group(1)[0]


def _poly(N, Np, kind, tables, chi=CHI1):
    P = DirichletPolynomial(N=N, N_prime=Np, kind=kind, chi=chi)
    P.attach_tables(tables)
    return P


def test_unit_eval_closed_form(tables):
    P = _poly(4, 8, "unit", tables)
    v = P.eval(0.0, sigma=0.5)
    expected = sum(n**-0.5 for n in (5, 6, 7, 8))
    assert v == pytest.approx(expected, abs=1e-12)


def test_mobius_eval_closed_form(tables):
    P = _poly(2, 4, "mobius", tables)
    # mu(3) = -1, mu(4) = 0, at sigma = 0 the sum is -1
    assert P.eval(0.0, sigma=0.0) == pytest.approx(-1.0, abs=1e-12)


def test_empty_interval(tables):
    P = _poly(5, 5, "unit", tables)
    assert P.eval(1.0) == 0j


def test_conjugate_symmetry(tables):
    P = _poly(8, 16, "unit", tables)
    for t in (0.7, 3.2, 11.0):
        a = P.eval(t, sigma=0.5)
        b = P.eval(-t, sigma=0.5)
        assert a == pytest.approx(b.conjugate(), abs=1e-12)


def test_interval_stretch_guard(tables):
    with pytest.raises(ValueError):
        DirichletPolynomial(N=4, N_prime=9, kind="unit", chi=CHI1)


def test_well_spaced_validation():
    with pytest.raises(ValueError):
        WellSpacedSet(chi=CHI1, points=[0.0, 0.5])
    s = WellSpacedSet(chi=CHI1, points=[3.0, 0.0, -2.0])
    assert s.points == [-2.0, 0.0, 3.0]


@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1,
                max_size=30))
@settings(max_examples=100, deadline=None)
def test_selected_points_always_one_spaced(raw_points):
    # the greedy selector output always satisfies the spacing invariant,
    # whatever the value profile looks like
    t_grid = np.array(sorted(set(round(p * 4) / 4 for p in raw_points)))
    vals = np.abs(np.sin(t_grid) + 0.1 * t_grid)
    from bvlab.dpoly import _greedy_spaced

    pts = _greedy_spaced(t_grid, vals)
    for a, b in zip(pts, pts[1:]):
        assert b - a >= 1.0


def test_select_well_spaced_runs(tables):
    P = _poly(16, 32, "unit", tables)
    J = select_well_spaced(P, 8.0)
    assert all(-8.0 <= t <= 8.0 for t in J.points)
    for a, b in zip(J.points, J.points[1:]):
        assert b - a >= 1.0


def test_primitive_character_family_size():
    fam = primitive_characters(4)
    # q < 8: conductors 1, 3, 4, 5 (x2), 7 (x6) -> 1+1+1+3+5+... enumerate
    assert all(chi.is_primitive for chi in fam)
    assert sorted({chi.q for chi in fam}) == [1, 3, 4, 5, 7]


def test_mean_value_and_fourth_moment_finite(tables):
    fam = build_triple_family(4, 16.0, 64, None, "unit", tables)
    r1 = mean_value_report(fam)
    assert math.isfinite(r1.ratio) and r1.ratio > 0
    r2 = fourth_moment_report(4, 16.0, 64, tables)
    assert math.isfinite(r2.ratio) and r2.ratio > 0
    r3 = derivative_second_moment_report(4, 16.0, 64, tables)
    assert math.isfinite(r3.ratio)


@pytest.mark.parametrize("Q, T, N", [(4, 16.0, 64), (8, 16.0, 128)])
def test_derivative_moment_matches_pointwise_eval(tables, Q, T, N):
    # oracle: re-evaluate S' point by point with compensated sums at the
    # triples the report's family selects
    coeffs = {n: math.log(n) for n in range(N + 1, 2 * N + 1)}
    fam = build_triple_family(Q, T, N, None, "explicit", tables, sigma=0.5,
                              coefficients=coeffs)
    oracle = math.fsum(abs(P.eval(t, sigma=0.5)) ** 2
                       for P, J in zip(fam.polynomials, fam.spaced_sets)
                       for t in J.points)
    lhs = derivative_second_moment_report(Q, T, N, tables).lhs
    assert fam.N_prime == 2 * N and sum(len(J.points) for J in fam.spaced_sets) > 0
    assert lhs == pytest.approx(oracle, rel=1e-12, abs=0)


def test_explicit_family_twists_the_given_coefficients(tables):
    coeffs = {n: complex(n % 3, 1) for n in range(9, 17)}
    fam = build_triple_family(4, 8.0, 8, None, "explicit", tables,
                              coefficients=coeffs)
    assert fam.G == pytest.approx(sum(abs(c) ** 2 for c in coeffs.values()))
    for P in fam.polynomials:
        vals = P.chi.value_table()
        want = [coeffs[n] * vals[n % P.chi.q] for n in range(9, 17)]
        assert np.allclose(P.twisted_coefficients(), want, rtol=1e-15, atol=0)


def test_fourth_moment_rejects_non_unit(tables):
    fam = build_triple_family(4, 16.0, 64, None, "mobius", tables, sigma=0.5)
    with pytest.raises(ValueError):
        fourth_moment_report(4, 16.0, 64, tables, family=fam)


def test_large_value_counts_match_bruteforce(tables):
    fam = build_triple_family(4, 16.0, 64, None, "unit", tables)
    sup = max(float(np.max(v)) for v in fam.abs_values if len(v))
    rng = random.Random(7)
    for _ in range(25):
        V = rng.uniform(0.05, 1.2) * sup
        report = large_value_report(fam, V)
        assert int(report.lhs) == large_value_count_bruteforce(fam, V)
    # V above the sup: zero large values
    assert large_value_report(fam, 2 * sup).lhs == 0.0


def test_divisor_moment(tables):
    r = divisor_moment_report(1, 2, tables)
    # n in {1, 2}: tau(1)^2 + tau(2)^2 = 1 + 4
    assert r.lhs == pytest.approx(5.0)
    r1 = divisor_moment_report(64, 1, tables)
    assert r1.rhs_formula_value == pytest.approx(1.0)


def test_mixed_moment_routing(tables):
    small = mixed_second_moment_report(4, 16.0, 2, tables)
    assert small.parameters["path"] == "second-moment"
    large = mixed_second_moment_report(4, 16.0, 2048, tables)
    assert large.parameters["path"] == "fourth-moment-cauchy-schwarz"
    with pytest.raises(DifficultIntervalError):
        mixed_second_moment_report(4, 16.0, 700, tables)


def test_doubling_growth_is_tame(tables):
    prev = None
    for k in range(6, 11):
        fam = build_triple_family(4, 16.0, 2**k, None, "unit", tables)
        ratio = mean_value_report(fam).ratio
        if prev is not None and prev > 0:
            assert ratio / prev <= 2.0
        prev = ratio
