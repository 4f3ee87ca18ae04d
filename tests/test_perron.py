import itertools
import math

import numpy as np
import pytest

from bvlab.characters import character_group
from bvlab.dpoly import DirichletPolynomial
from bvlab.perron import (
    ContourSpec,
    default_contour,
    exact_partial_sum_bruteforce,
    height_trend,
    horizontal_bound_check,
    truncated_perron,
)
from bvlab.reports import write_csv
from paper_checks import exact_partial_sum

CHI1 = character_group(1)[0]
MAX_REFINE_ROUNDS = 40
NODE_CHUNK = 1 << 19


def _float_coefficients(family):
    """(ns, coeffs): the nonzero coefficients of the product in floats,
    summed tuple by tuple, independently of the exact ring arithmetic."""
    out = {}
    pairs = [list(zip(P.support.tolist(), P.twisted_coefficients().tolist()))
             for P in family]
    for combo in itertools.product(*pairs):
        n = math.prod(m for m, _ in combo)
        out[n] = out.get(n, 0j) + math.prod((c for _, c in combo), start=1 + 0j)
    ns = np.array([n for n, c in out.items() if c != 0], dtype=np.int64)
    return ns, np.array([out[int(n)] for n in ns], dtype=np.complex128)


def _panel_edges(height, max_freq):
    """Symmetric panel edges on [-height, height]: dyadic blocks outward
    from the origin, each cut into pieces the oscillation can't outrun."""
    width = min(max(4.0 / max(max_freq, 1e-9), 0.25), 64.0)
    edges = [0.0]
    block_end = 1.0
    while edges[-1] < height:
        end = min(block_end, height)
        start = edges[-1]
        pieces = max(1, int(math.ceil((end - start) / width)))
        step = (end - start) / pieces
        edges.extend(start + step * (i + 1) for i in range(pieces))
        block_end *= 2.0
    pos = np.array(edges)
    return np.concatenate([-pos[::-1], pos[1:]])


def _integrate_panels(lo, hi, sigma0, log_ratio, order):
    """Gauss-Legendre value of int y^s n^(-s) / s dt on each panel [lo, hi],
    for one term with log_ratio = log(y / n)."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    n_panels = len(lo)
    out = np.zeros(n_panels, dtype=np.complex128)
    half = (hi - lo) / 2.0
    mid = (hi + lo) / 2.0
    panels_per_chunk = max(1, NODE_CHUNK // order)
    for start in range(0, n_panels, panels_per_chunk):
        sl = slice(start, min(start + panels_per_chunk, n_panels))
        t = mid[sl, None] + half[sl, None] * nodes[None, :]
        vals = np.exp(sigma0 * log_ratio) * np.exp(1j * t * log_ratio)
        vals /= sigma0 + 1j * t
        out[sl] = half[sl] * (vals @ weights)
    return out


def _term_quadrature(log_ratio, spec, density):
    """The truncated Perron integral of one term y^s n^(-s) / s by adaptive
    composite Gauss-Legendre panels (12 against 24 nodes, bisecting each
    panel whose two values differ by more than density times its width)."""
    edges = _panel_edges(spec.height, abs(log_ratio))
    lo, hi = edges[:-1], edges[1:]
    sigma0 = float(spec.sigma0)
    total = 0j
    for _ in range(MAX_REFINE_ROUNDS):
        coarse = _integrate_panels(lo, hi, sigma0, log_ratio, 12)
        fine = _integrate_panels(lo, hi, sigma0, log_ratio, 24)
        ok = np.abs(fine - coarse) <= density * (hi - lo)
        total += complex(np.sum(fine[ok]))
        if np.all(ok):
            return total / (2.0 * math.pi)
        lo_bad, hi_bad = lo[~ok], hi[~ok]
        mid = (lo_bad + hi_bad) / 2.0
        lo = np.concatenate([lo_bad, mid])
        hi = np.concatenate([mid, hi_bad])
    raise AssertionError(f"quadrature of log(y/n) = {log_ratio} did not converge")


def quadrature_perron(ns, coeffs, y, spec, weight, terms, rel_tol=1e-8):
    """Oracle: the truncated Perron integral of sum c_n n^(-s), independent
    of the closed form, as sum c_n J_n with J_n the quadrature of the term
    y^s n^(-s) / s. ``terms`` caches J_n by n for this y and spec.

    ``weight`` bounds sum |c_n| for every family that shares ``terms``.
    J_n's error budget per unit height is
    (rel_tol / (2 height weight) + 1e-15 (y/n)^sigma0) / 2. Weighted by
    |c_n| and summed over a family, that is at most the mean of the two
    parts of a whole-family quadrature's budget, rel_tol max(1, |I|) /
    (2 height) and 1e-15 sum |c_n| (y/n)^sigma0, so no more than the larger
    one, which such a quadrature allows."""
    for n in ns.tolist():
        if n not in terms:
            lr = math.log(y / n)
            density = (rel_tol / (2.0 * spec.height * weight)
                       + 1e-15 * math.exp(float(spec.sigma0) * lr)) / 2.0
            terms[n] = _term_quadrature(lr, spec, density)
    return complex(sum(c * terms[n] for n, c in zip(ns.tolist(), coeffs.tolist())))


def _families(q, tables, real=True):
    """(label, family) in the shapes [P], [P, U], [P, P] for each character
    mod q, P on (4, 8] twisted by it and U the untwisted unit block on (2, 4]."""
    U = _poly(2, 4, "unit", tables)
    out = []
    for chi in character_group(q):
        if chi.is_real and not real:
            continue
        P = DirichletPolynomial(N=4, N_prime=8, kind="unit", chi=chi)
        P.attach_tables(tables)
        for shape, fam in (("P", [P]), ("PU", [P, U]), ("PP", [P, P])):
            out.append((f"{chi!r} {shape}", fam))
    return out


def _poly(N, Np, kind, tables):
    P = DirichletPolynomial(N=N, N_prime=Np, kind=kind, chi=CHI1)
    P.attach_tables(tables)
    return P


def test_contour_validation():
    with pytest.raises(ValueError):
        ContourSpec(sigma0=1.0, height=10.0)
    with pytest.raises(ValueError):
        ContourSpec(sigma0=1.5, height=-1.0)
    # an infinite size gave approx nan+nanj
    inf, nan = math.inf, math.nan
    for sigma0, height in ((1.5, inf), (inf, 1e4), (nan, 1e4), (1.5, nan)):
        with pytest.raises(ValueError, match="finite"):
            ContourSpec(sigma0=sigma0, height=height)


def test_exact_sides_agree(tables):
    # every family and y that the closed-form tests pass to truncated_perron,
    # which reads only the convolution route
    fams = [
        [_poly(4, 8, "unit", tables)],
        [_poly(2, 4, "unit", tables), _poly(2, 4, "mobius", tables)],
        [_poly(2, 4, "unit", tables), _poly(4, 8, "unit", tables),
         _poly(2, 4, "mobius", tables)],
    ] + [fam for q in (1, 5, 13) for _, fam in _families(q, tables)]
    for fam in fams:
        for y in (4.5, 10.5, 30.5, 60.5, 100.5):
            assert exact_partial_sum(fam, y) == \
                exact_partial_sum_bruteforce(fam, y)


def test_exact_counts(tables):
    fam = [_poly(4, 8, "unit", tables)]
    assert exact_partial_sum(fam, 10.5) == 4  # n in {5, 6, 7, 8}
    assert exact_partial_sum(fam, 4.5) == 0
    fam2 = [_poly(2, 4, "unit", tables), _poly(2, 4, "mobius", tables)]
    # only (m, n) = (3, 3) has product <= 10.5 and mu(n) nonzero
    assert exact_partial_sum(fam2, 10.5) == -1


def test_desk_example_moderate_height(tables):
    fam = [_poly(4, 8, "unit", tables)]
    r = truncated_perron(fam, 10.5, default_contour(10.5, 1e4))
    assert r.exact == 4
    assert r.abs_error < 1e-3


def test_integer_y_rejected(tables):
    fam = [_poly(4, 8, "unit", tables)]
    with pytest.raises(ValueError):
        truncated_perron(fam, 10.0, default_contour(10.5, 100.0))
    with pytest.raises(ValueError):
        truncated_perron(fam, -2.5, default_contour(10.5, 100.0))
    # y = inf raised OverflowError from round
    with pytest.raises(ValueError, match="finite"):
        truncated_perron(fam, math.inf, default_contour(10.5, 100.0))


def test_empty_sum_is_near_zero(tables):
    fam = [_poly(4, 8, "unit", tables)]
    r = truncated_perron(fam, 4.5, default_contour(4.5, 1e4))
    assert r.exact == 0
    assert abs(r.approx) < 1e-3


def test_horizontal_bound_holds(tables):
    fam = [_poly(4, 8, "unit", tables), _poly(8, 16, "mobius", tables)]
    grid = [0.5 + 0.05 * k for k in range(11)]
    report = horizontal_bound_check(fam, grid, 64.0)
    assert report.lhs <= 1.0 + 1e-12
    # empty family: |empty product| = 1 <= 1
    empty = horizontal_bound_check([], grid, 64.0)
    assert empty.lhs == pytest.approx(1.0)
    # an empty factor (N = 0) makes the product exactly 0, on both sides of
    # sigma = 1, where its bound 0^(1 - sigma) is 0 or undefined
    for sigma in (0.5, 1.0, 1.5):
        report = horizontal_bound_check(fam + [_poly(0, 0, "unit", tables)],
                                        [sigma], 64.0)
        assert report.lhs == 0.0
    # sigma = 0 is the edge of the bound's hypothesis
    assert horizontal_bound_check(fam[:1], [0.0], 0.01).lhs <= 1.0 + 1e-12


def test_horizontal_rejects_large_coefficients(tables):
    P = DirichletPolynomial(N=4, N_prime=8, kind="explicit", chi=CHI1,
                            coefficients={5: 3.0})
    P.attach_tables(tables)
    with pytest.raises(ValueError):
        horizontal_bound_check([P], [0.5], 16.0)
    # below sigma = 0 the bound N^(1 - sigma) fails: at sigma = -1 and
    # height 0.01 the desk polynomial exceeds it
    desk = [_poly(4, 8, "unit", tables)]
    for grid in ([-1.0], [0.5, -1e-9, 1.0]):
        with pytest.raises(ValueError, match="sigma >= 0"):
            horizontal_bound_check(desk, grid, 0.01)
    # a NaN sigma gave ratio inf, and a non-finite height ratio 0, a pass
    for grid in ([math.nan], [0.5, math.inf]):
        with pytest.raises(ValueError, match="finite sigma"):
            horizontal_bound_check(desk, grid, 1e4)
    for height in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="height must be finite"):
            horizontal_bound_check(desk, [0.5], height)


def test_height_trend_and_csv(tmp_path, tables):
    fam = [_poly(4, 8, "unit", tables)]
    results = height_trend(fam, 10.5, (1e3, 2e3, 4e3))
    assert len(results) == 3
    path = tmp_path / "perron.csv"
    write_csv([r.as_row() for r in results], str(path))
    lines = path.read_text().splitlines()
    assert lines[0].startswith("y,height,approx_re")
    assert len(lines) == 4
    # the default line of integration is default_contour's, height by height
    for r, h in zip(results, (1e3, 2e3, 4e3)):
        assert r == truncated_perron(fam, 10.5, default_contour(10.5, h))
    # a line of integration off the default one, against the quadrature
    spec = ContourSpec(1.5, 1e3)
    r = truncated_perron(fam, 10.5, spec)
    ns, coeffs = _float_coefficients(fam)
    weight = float(np.sum(np.abs(coeffs)))
    oracle = quadrature_perron(ns, coeffs, 10.5, spec, weight, {})
    assert abs(r.approx - oracle) <= 1e-12 * max(1.0, abs(r.exact))
    assert r.exact == results[0].exact
    # an infinite height reported abs_error nan
    with pytest.raises(ValueError, match="finite"):
        height_trend(fam, 10.5, (1e4, math.inf))


@pytest.mark.parametrize("q", [1, 5, 13])
def test_closed_form_matches_quadrature(q, tables):
    fams = [(label, fam, *_float_coefficients(fam))
            for label, fam in _families(q, tables)]
    weight = max(float(np.sum(np.abs(coeffs))) for *_, coeffs in fams)
    for y in (4.5, 10.5, 30.5, 60.5):
        for height in (1e2, 1e3, 1e4):
            spec = default_contour(y, height)
            terms = {}
            for label, fam, ns, coeffs in fams:
                r = truncated_perron(fam, y, spec)
                oracle = quadrature_perron(ns, coeffs, y, spec, weight, terms)
                assert abs(r.approx - oracle) <= 1e-12 * max(1.0, abs(r.exact)), \
                    (label, y, height, r.approx, oracle)


def test_non_real_characters_exact_side(tables):
    fams = _families(5, tables, real=False) + _families(13, tables, real=False)
    assert len(fams) == 3 * (2 + 10)
    for label, fam in fams:
        r = truncated_perron(fam, 10.5, default_contour(10.5, 1e4))
        assert r.exact == exact_partial_sum_bruteforce(fam, 10.5), label
        assert r.abs_error < 1e-3, (label, r.abs_error)


def test_exact_side_explicit_complex_coefficients(tables):
    chi = character_group(5)[1]
    P = DirichletPolynomial(N=4, N_prime=8, kind="explicit", chi=chi,
                            coefficients={5: 0.1 + 0.3j, 6: -0.7, 7: 1j / 3})
    P.attach_tables(tables)
    U = _poly(2, 4, "unit", tables)
    for fam in ([P], [P, U], [P, P]):
        for y in (10.5, 30.5, 60.5):
            ns, coeffs = _float_coefficients(fam)
            want = complex(np.sum(coeffs[ns <= y]))
            got = exact_partial_sum(fam, y)
            assert got == exact_partial_sum_bruteforce(fam, y)
            assert abs(got - want) <= 1e-12
        r = truncated_perron(fam, 30.5, default_contour(30.5, 1e4))
        assert r.abs_error < 1e-2
