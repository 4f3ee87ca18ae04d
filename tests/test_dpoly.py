import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bvlab import dpoly
from bvlab.characters import character_group
from bvlab.dpoly import (
    DEFAULT_X_SCALE,
    GRID_STEP,
    SPACING_GAP,
    DirichletPolynomial,
    WellSpacedSet,
    build_triple_family,
    derivative_second_moment_report,
    fourth_moment_report,
    large_value_count_bruteforce,
    large_value_report,
    mean_value_report,
    _greedy_spaced_columns,
    _grid_abs_values,
    _grid_steps,
    _half_phase_block,
    _modulus_table,
    _twisted_columns,
)
from bvlab.reports import BoundReport
from paper_checks import divisor_moment_report

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


def test_mobius_kind_needs_tables_covering_n_prime(tables):
    # mu is read from tables: none at all, or tables that end below N', is
    # refused; N' at the table limit is read
    with pytest.raises(ValueError, match="need tables"):
        _poly(2, 4, "mobius", None)
    with pytest.raises(ValueError, match="exceeds the table limit"):
        _poly(tables.limit // 2 + 1, tables.limit + 1, "mobius", tables)
    P = _poly(tables.limit // 2 + 1, tables.limit, "mobius", tables)
    mobius = tables.mobius_upto(tables.limit)
    assert np.array_equal(P.base_coefficients(), mobius[P.support])


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


@pytest.mark.parametrize("N, N_prime, name", [
    (2.5, 5, "N"), (True, 2, "N"), (4, 8.0, "N'"), (1, True, "N'"),
])
def test_polynomial_sizes_must_be_ints(N, N_prime, name):
    # N = 2.5 gave the support [3, 4, 5], where a family refuses a float N
    with pytest.raises(TypeError, match=f"{name} must be an int"):
        DirichletPolynomial(N=N, N_prime=N_prime, kind="unit", chi=CHI1)


def test_well_spaced_validation():
    with pytest.raises(AssertionError, match="points 0.0 and 0.5 are closer than 1"):
        WellSpacedSet(chi=CHI1, points=[0.5, 3.0, 0.0])
    s = WellSpacedSet(chi=CHI1, points=[3.0, 0.0, -2.0])
    assert s.points == [-2.0, 0.0, 3.0]
    assert all(type(t) is float for t in s.points)
    # a gap past the float range overflows to inf, which is >= 1
    big = WellSpacedSet(chi=CHI1, points=[1e308, -1e308])
    assert big.points == [-1e308, 1e308]
    # NaN compares false and inf - inf is NaN, so a pairwise gap test
    # alone lets these through
    nan, inf = math.nan, math.inf
    for points in ([0.0, nan, 0.5], [nan], [0.0, inf], [-inf, 0.0],
                   [0.0, inf, inf], [-inf, -inf, 0.0], [-inf, inf]):
        with pytest.raises(AssertionError, match="finite"):
            WellSpacedSet(chi=CHI1, points=points)


@given(st.lists(st.one_of(st.floats(min_value=0, max_value=50),
                          st.sampled_from([0.0, 1.0, 2.5])),
                min_size=1, max_size=120))
@settings(max_examples=100, deadline=None)
def test_selected_points_always_one_spaced(raw_vals):
    # the greedy selector output always satisfies the spacing invariant on
    # the contiguous grid, whatever the value profile looks like (ties
    # included), and every grid point lies within 1 of a selected one
    vals = np.array(raw_vals)
    idx = np.flatnonzero(_greedy_spaced_columns(vals[:, None])[:, 0])
    pts = (idx * GRID_STEP).tolist()
    for a, b in zip(pts, pts[1:]):
        assert b - a >= 1.0
    assert all(np.min(np.abs(idx - k)) < SPACING_GAP for k in range(len(vals)))


def _grid_points(T):
    # the family grid t = k * GRID_STEP, |k| <= steps, as floats
    steps = _grid_steps(T)
    return np.arange(-steps, steps + 1) * GRID_STEP


def _greedy_spaced_reference(t_grid, vals):
    # the float selection the index-gap mask replaced: visit the points by
    # (-|S|, t) and keep each one at distance >= 1 from all kept points
    order = sorted(range(len(t_grid)), key=lambda k: (-vals[k], t_grid[k]))
    chosen = []
    for k in order:
        t = float(t_grid[k])
        if all(abs(t - c) >= 1.0 for c in chosen):
            chosen.append(t)
    return sorted(chosen)


FAMILY_CASES = [
    (4, 16.0, 64, 0.0, "unit"), (4, 16.0, 64, 0.5, "unit"),
    (8, 64.0, 1024, 0.0, "unit"), (8, 64.0, 1024, 0.5, "unit"),
    (4, 10.3, 64, 0.5, "unit"),  # T off the quarter grid
    (8, 16.0, 128, 0.5, "mobius"), (8, 16.0, 100, 0.0, "explicit"),
]


# the unit cases keep the ids they had before the kind was a parameter
@pytest.mark.parametrize("Q, T, N, sigma, kind", FAMILY_CASES, ids=[
    "-".join(map(str, case[:4] if case[4] == "unit" else case))
    for case in FAMILY_CASES])
def test_selection_matches_float_reference_on_families(tables, Q, T, N, sigma,
                                                       kind):
    # the family's columns, one gather per modulus, have the bits of the
    # polynomials' own route (one value table per character); complex a_n
    # for the explicit kind
    coeffs = ({n: complex(n % 3, n % 5 - 2) / n for n in range(N + 1, 2 * N + 1)}
              if kind == "explicit" else None)
    fam = build_triple_family(Q, T, N, None, kind, tables, sigma=sigma,
                              coefficients=coeffs)
    t_grid = _grid_points(T)
    C = np.column_stack([P.twisted_coefficients() for P in fam.polynomials])
    ns = fam.polynomials[0].support
    chis, X = _twisted_columns(Q, 1, ns, fam.base)
    assert X.tobytes() == C.tobytes()
    assert chis == [P.chi for P in fam.polynomials]
    grid_vals = _grid_abs_values(_grid_steps(T), N, 2 * N, sigma, C)
    kept = _greedy_spaced_columns(grid_vals)
    for j, (J, vals) in enumerate(zip(fam.spaced_sets, fam.abs_values)):
        want = _greedy_spaced_reference(t_grid, grid_vals[:, j])
        want_idx = np.searchsorted(t_grid, want)
        assert np.flatnonzero(kept[:, j]).tolist() == want_idx.tolist()
        assert J.points == want
        assert np.array_equal(vals, grid_vals[want_idx, j])


def test_selection_matches_float_reference_on_tied_values():
    rng = np.random.default_rng(20261018)
    tied = 0
    for case in range(300):
        t_grid = _grid_points(int(rng.integers(4, 160)) / 4)
        if case % 3 == 0:
            vals = rng.integers(0, 4, len(t_grid)).astype(np.float64)
        else:
            vals = rng.random(len(t_grid))
        tied += len(np.unique(vals)) < len(vals)
        want = np.searchsorted(t_grid, _greedy_spaced_reference(t_grid, vals))
        got = np.flatnonzero(_greedy_spaced_columns(vals[:, None])[:, 0])
        assert got.tolist() == want.tolist()
    assert tied >= 100


@pytest.mark.parametrize("T", [1.0, 2.25, 16.0, 64.0])
def test_batched_selection_matches_reference_column_by_column(T):
    # one call decides every column: random, small-integer (many ties),
    # all-equal, all-zero and planted-tie columns side by side, on grids
    # down to the shortest one (T = 1, 9 rows)
    rng = np.random.default_rng(20261019)
    t_grid = _grid_points(T)
    rows = len(t_grid)
    cols = [rng.random(rows), rng.integers(0, 4, rows).astype(np.float64),
            np.full(rows, 2.5), np.zeros(rows)]
    for _ in range(12):
        col = rng.random(rows)
        # copy one value onto a few other points, near and far
        at = rng.choice(rows, size=min(rows, 4), replace=False)
        col[at] = col[at[0]]
        cols.append(col)
    vals = np.column_stack(cols)
    kept = _greedy_spaced_columns(vals)
    assert kept.shape == vals.shape and kept.dtype == bool
    for j in range(vals.shape[1]):
        want = np.searchsorted(t_grid,
                               _greedy_spaced_reference(t_grid, vals[:, j]))
        assert np.flatnonzero(kept[:, j]).tolist() == want.tolist()
    # no column depends on its neighbours
    perm = rng.permutation(vals.shape[1])
    assert np.array_equal(_greedy_spaced_columns(vals[:, perm]), kept[:, perm])


@pytest.mark.parametrize("T", [0.0, 0.5, 0.99, math.nan, math.inf])
def test_t_below_one_rejected(tables, T):
    with pytest.raises(ValueError, match="T must be at least 1"):
        build_triple_family(4, T, 64, None, "unit", tables)


@pytest.mark.parametrize("Q, N, N_prime, sigma, match", [
    (0, 64, None, 0.0, "Q must be at least 1"),
    (-2, 64, None, 0.0, "Q must be at least 1"),
    (4, 0, None, 0.0, "N must be at least 1"),
    (4, -5, None, 0.0, "N must be at least 1"),
    (4, 64, 64, 0.0, "N' must exceed N"),
    (4, 64, 40, 0.0, "N' must exceed N"),
    (4, 64, None, math.nan, "sigma must be finite"),
    (4, 64, None, math.inf, "sigma must be finite"),
    (4, 64, None, -math.inf, "sigma must be finite"),
])
def test_vacuous_or_nan_families_rejected(tables, Q, N, N_prime, sigma, match):
    # each of these would give a family with no triples (ratio 0) or a NaN
    # moment
    with pytest.raises(ValueError, match=match):
        build_triple_family(Q, 16.0, N, N_prime, "unit", tables, sigma=sigma)


def test_family_without_characters_rejected(tables):
    # mod 2 has no primitive character, so Q = 1 with min_conductor 2 would
    # give an empty family: lhs 0 against the fourth moment's rhs 4.3e15
    with pytest.raises(ValueError, match="no primitive character"):
        build_triple_family(1, 16.0, 64, None, "unit", tables, min_conductor=2)
    with pytest.raises(ValueError, match="no primitive character"):
        fourth_moment_report(1, 16.0, 64, tables)
    assert len(build_triple_family(2, 16.0, 64, None, "unit", tables,
                                   min_conductor=2).polynomials) == 1


@pytest.mark.parametrize("args, kwargs, name", [
    ((4, 16.0, 64.5, None), {}, "N"),
    ((4, 16.0, True, None), {}, "N"),
    ((True, 16.0, 64, None), {}, "Q"),
    ((4.0, 16.0, 64, None), {}, "Q"),
    ((4, 16.0, 64, 128.0), {}, "N'"),
    ((4, 16.0, 64, True), {}, "N'"),
    ((4, 16.0, 64, None), {"min_conductor": 2.0}, "min_conductor"),
    ((4, 16.0, 64, None), {"min_conductor": True}, "min_conductor"),
])
def test_family_sizes_must_be_ints(tables, args, kwargs, name):
    # N = 64.5 built a family on n in [65, 129] reporting N' = 129.0, and
    # Q = True a family of one character
    with pytest.raises(TypeError, match=f"{name} must be an int"):
        build_triple_family(*args, "unit", tables, **kwargs)


@pytest.mark.parametrize("x_scale", [1, 0, -3, 1.5, math.nan, math.inf])
def test_reports_reject_x_scale_outside_cli_range(tables, x_scale):
    # x_scale = 1 gave rhs 0 and ratio inf, 0 a math domain error, and inf
    # ratio 0; the CLI asks for x_scale >= 2
    fam = build_triple_family(4, 16.0, 64, None, "unit", tables)
    calls = [
        lambda: mean_value_report(fam, x_scale=x_scale),
        lambda: fourth_moment_report(4, 16.0, 64, tables, x_scale=x_scale),
        lambda: derivative_second_moment_report(4, 16.0, 64, tables,
                                                x_scale=x_scale),
        lambda: large_value_report(fam, 1.0, x_scale=x_scale),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="x_scale must be at least 2"):
            call()
    assert mean_value_report(fam, x_scale=2).rhs_formula_value == pytest.approx(
        math.log(2) * (16 * 16.0 + 64) * fam.G)


def test_repeated_moments_pass_builds_nothing(tables, monkeypatch):
    # the shape of one benchmark moments pass: families at Q = 4 and 8, each
    # followed by its fourth moment (min_conductor 2), then the derivative
    # at N/2. Run again, it reads the per-modulus tables and the two held
    # phase blocks: no character group, no table and no block is built
    T, N = 16.0, 128

    def run():
        fams = []
        for Q in (4, 8):
            fams.append(build_triple_family(Q, T, N, None, "unit", tables))
            fourth_moment_report(Q, T, N, tables)
        derivative_second_moment_report(4, T, N // 2, tables)
        return fams

    run()
    held_tables = _modulus_table.cache_info()
    held_blocks = _half_phase_block.cache_info()
    built = []

    class CountingGroup(dpoly.CharacterGroup):
        def __init__(self, q):
            built.append(q)
            super().__init__(q)

    monkeypatch.setattr(dpoly, "CharacterGroup", CountingGroup)
    fams = run()
    assert built == []
    assert _modulus_table.cache_info().misses == held_tables.misses
    blocks = _half_phase_block.cache_info()
    assert (blocks.hits, blocks.misses) == (held_blocks.hits + 5,
                                           held_blocks.misses)
    # the families build no polynomial until an oracle reads them
    assert all("polynomials" not in vars(fam) for fam in fams)
    assert [P.chi for P in fams[0].polynomials] == [
        chi for q in range(1, 8) for chi in character_group(q) if chi.is_primitive]


def _grid_abs_values_reference(steps, N, sigma, C):
    # reference route: the complex exponential on the full grid
    t_grid = np.arange(-steps, steps + 1) * GRID_STEP
    nf = np.arange(N + 1, 2 * N + 1, dtype=np.float64)
    return np.abs((np.exp(-1j * np.outer(t_grid, np.log(nf)))
                   * nf ** (-sigma)) @ C)


@pytest.mark.parametrize("T", [1.0, 10.3, 16.0, 64.0])
@pytest.mark.parametrize("N", [1, 2, 64, 1024])
def test_grid_abs_values_bit_identical_to_complex_exp(T, N):
    # non-real characters mod 5, 7 and 16 give complex coefficient columns,
    # so the conjugate fill of the t < 0 rows is not tested only on real C
    chis = [chi for q in (5, 7, 16) for chi in character_group(q)
            if not chi.is_real]
    ns = np.arange(N + 1, 2 * N + 1, dtype=np.int64)
    C = np.column_stack(
        [np.ones(len(ns), dtype=np.complex128)]
        + [np.asarray(chi.value_table())[ns % chi.q] for chi in chis])
    assert np.any(C.imag != 0)
    steps = _grid_steps(T)
    for sigma in (0.0, 0.5, 1.0, 1.5):
        got = _grid_abs_values(steps, N, 2 * N, sigma, C)
        want = _grid_abs_values_reference(steps, N, sigma, C)
        assert np.array_equal(got, want)
        rows = [0, steps - 1, steps, 2 * steps]
        assert [float(v).hex() for v in got[rows, -1]] == \
            [float(v).hex() for v in want[rows, -1]]


def test_held_phase_block_never_goes_stale():
    # sigma changes, then N, then T, then the first (T, N) again: each
    # result has the bits of the complex route, whichever block was held
    # before
    chis = [chi for chi in character_group(7) if not chi.is_real]

    def case(T, N, sigma):
        ns = np.arange(N + 1, 2 * N + 1, dtype=np.int64)
        C = np.column_stack([np.ones(len(ns), dtype=np.complex128)]
                            + [np.asarray(chi.value_table())[ns % 7]
                               for chi in chis])
        return _grid_steps(T), N, sigma, C

    def kernel(steps, N, sigma, C):
        return _grid_abs_values(steps, N, 2 * N, sigma, C)

    for args in [case(16.0, 64, 0.0), case(16.0, 64, 0.5),
                 case(16.0, 128, 0.5), case(10.3, 128, 0.5),
                 case(16.0, 64, 0.0)]:
        assert np.array_equal(kernel(*args), _grid_abs_values_reference(*args))
    before = _half_phase_block.cache_info()
    got = kernel(*case(16.0, 64, 1.5))
    after = _half_phase_block.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    assert np.array_equal(got, _grid_abs_values_reference(*case(16.0, 64, 1.5)))
    block = _half_phase_block(_grid_steps(16.0), 64, 128)
    assert block.shape == (_grid_steps(16.0) + 1, 64)
    with pytest.raises(ValueError, match="read-only"):
        block[0, 0] = 0


def test_select_well_spaced_runs(tables):
    J = build_triple_family(1, 8.0, 16, None, "unit", tables).spaced_sets[0]
    assert J.chi == CHI1 and J.points
    assert all(-8.0 <= t <= 8.0 for t in J.points)
    for a, b in zip(J.points, J.points[1:]):
        assert b - a >= 1.0


def test_primitive_character_family_size():
    ns = np.arange(17, 33, dtype=np.int64)
    fam = _twisted_columns(4, 1, ns, np.ones(len(ns), dtype=np.complex128))[0]
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
    # a NaN or infinite level would count against a NaN or zero rhs
    for V in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="V must be positive and finite"):
            large_value_report(fam, V)


def test_divisor_moment():
    r = divisor_moment_report(1, 2)
    # n in {1, 2}: tau(1)^2 + tau(2)^2 = 1 + 4
    assert r.lhs == pytest.approx(5.0)
    r1 = divisor_moment_report(64, 1)
    assert r1.rhs_formula_value == pytest.approx(1.0)
    # an empty range n <= 2N has no mean
    for N in (0, -3):
        with pytest.raises(ValueError, match="N must be at least 1"):
            divisor_moment_report(N, 2)


class DifficultIntervalError(ValueError):
    """N_j falls in the exponent range (9/40, 1/4) where neither the
    second-moment nor the fourth-moment route applies."""


def mixed_second_moment_report(Q, T, N_j, tables, x_scale=DEFAULT_X_SCALE,
                               kind="unit"):
    """Second moment of one dyadic factor at sigma = 1/2 against
    x^(9/20) T L^10, routed around the difficult interval: the
    second-moment path needs N_j <= x^(9/40), the fourth-moment path
    (via Cauchy-Schwarz) needs N_j > x^(1/4)."""
    small = N_j**40 <= x_scale**9
    large = N_j**4 > x_scale
    if not (small or large):
        raise DifficultIntervalError(
            f"N_j={N_j} has exponent inside (9/40, 1/4] of x={x_scale}; "
            "neither route applies"
        )
    path = "second-moment" if small else "fourth-moment-cauchy-schwarz"
    family = build_triple_family(Q, T, N_j, None, kind, tables, sigma=0.5)
    L = math.log(x_scale)
    rhs = x_scale ** 0.45 * T * L**10
    return BoundReport(lhs=family.moment(2), rhs_formula_value=rhs,
                       parameters={"Q": Q, "T": T, "N_j": N_j, "path": path},
                       label="mixed-second-moment")


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
