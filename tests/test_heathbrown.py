import math
import os
import subprocess
import sys
from itertools import product

import numpy as np
import pytest
from scipy.integrate import quad

import bvlab

from bvlab.arith import build_tables
from bvlab.heathbrown import (
    SIGNED_BINOMIALS,
    _dirichlet_convolve,
    _integer_sizes,
    dyadic_grid_count,
    dyadic_grid_report,
    reconstruct,
    verify_identity,
)
from bvlab.reports import BoundReport


def test_term_structure():
    assert SIGNED_BINOMIALS == tuple(
        (-1) ** (j - 1) * math.comb(4, j) for j in range(1, 5))


def test_reconstruction_matches_von_mangoldt(tables):
    x = 2000
    rec = reconstruct(float(x), x, tables)
    lam = tables.von_mangoldt_upto(x)
    for n in range(1, x + 1):
        assert abs(rec[n] - lam[n]) <= 1e-9 * (1.0 + math.log(n))


def _convolve_per_d(a, b):
    """Reference: one slice per d, each out[n] summed in increasing d."""
    n_max = len(a) - 1
    out = np.zeros(n_max + 1)
    for d in range(1, n_max + 1):
        if a[d] != 0.0:
            out[d::d] += a[d] * b[1 : n_max // d + 1]
    return out


@pytest.mark.parametrize("n_max", [0, 1, 2, 3, 10, 97, 99, 100, 101, 1000, 4096])
def test_dirichlet_convolve_matches_per_d_loop_bit_for_bit(n_max):
    # mixed signs and ~30 % zeros of either sign; 99, 100, 101 straddle
    # the square where the hyperbola split point isqrt(n_max) moves
    rng = np.random.default_rng(n_max)
    a, b = rng.standard_normal((2, n_max + 1))
    for v in (a, b):
        zero = rng.random(n_max + 1) < 0.3
        v[zero] = np.copysign(0.0, v[zero])
    assert _dirichlet_convolve(a, b).tobytes() == _convolve_per_d(a, b).tobytes()


def _reconstruct_reference(x, n_max, tables):
    """Reference: log * 1^(j-1) rebuilt from the logs for every j."""
    z = int(math.floor(x ** 0.25 + 1e-9))
    mu_trunc = np.zeros(n_max + 1)
    top = min(z, n_max)
    mu_trunc[1 : top + 1] = tables.mobius_upto(top)[1 : top + 1]
    logs = np.zeros(n_max + 1)
    logs[1:] = np.log(np.arange(1, n_max + 1, dtype=np.float64))
    unit = np.ones(n_max + 1)
    unit[0] = 0.0
    out = np.zeros(n_max + 1)
    m_conv = np.zeros(n_max + 1)
    m_conv[1] = 1.0
    for j in range(1, 5):
        m_conv = _convolve_per_d(m_conv, mu_trunc)
        t_conv = logs.copy()
        for _ in range(j - 1):
            t_conv = _convolve_per_d(t_conv, unit)
        out += (-1) ** (j - 1) * math.comb(4, j) * _convolve_per_d(m_conv, t_conv)
    return out


@pytest.mark.parametrize("n_max", [1, 100, 2000])
def test_reconstruction_matches_reference_bit_for_bit(tables, n_max):
    rec = reconstruct(2000.0, n_max, tables)
    ref = _reconstruct_reference(2000.0, n_max, tables)
    assert rec.tobytes() == ref.tobytes()


def reconstruct_bruteforce(n, x, tables):
    """Oracle: enumerate every tuple (m_1..m_j, n_1..n_j) with product n
    directly. Exponential in divisors; for small n only."""
    z, _, _ = _integer_sizes(x)
    mobius = tables.mobius_upto(n)  # every m divides n
    total = 0.0
    for j, coeff in enumerate(SIGNED_BINOMIALS, start=1):
        for tup in _ordered_factorizations(n, 2 * j):
            ms, ns = tup[:j], tup[j:]
            if any(m > z for m in ms):
                continue
            w = math.log(ns[0]) if ns[0] > 1 else 0.0
            if w == 0.0:
                continue
            mu = 1
            for m in ms:
                mu *= int(mobius[m])
                if mu == 0:
                    break
            if mu == 0:
                continue
            total += coeff * mu * w
    return total


def _ordered_factorizations(n, slots):
    if slots == 1:
        yield (n,)
        return
    for d in range(1, n + 1):
        if n % d == 0:
            for rest in _ordered_factorizations(n // d, slots - 1):
                yield (d,) + rest


def test_reconstruction_agrees_with_bruteforce(tables):
    x = 600.0
    rec = reconstruct(x, 600, tables)
    for n in (1, 2, 30, 64, 97, 360, 599):
        assert rec[n] == pytest.approx(
            reconstruct_bruteforce(n, x, tables), abs=1e-9
        )


@pytest.mark.parametrize("x, n_max", [(2000, 2), (10**4, 600), (10**5, 3000),
                                      (10**6, 9999)])
def test_reconstruction_reads_no_table_past_n_max(x, n_max):
    # mu is read on [1, min(z, n_max)] and nothing past n_max, so tables
    # sieved to n_max, below x, give the bits of tables sieved to x
    small = reconstruct(float(x), n_max, build_tables(n_max))
    assert small.tobytes() == reconstruct(float(x), n_max, build_tables(x)).tobytes()
    with pytest.raises(ValueError, match="inf"):
        reconstruct(math.inf, n_max, build_tables(n_max))


def test_verify_identity_report(tables):
    report = verify_identity(2000.0, 2000, tables)
    worst = report.parameters["worst_n"]
    assert report.lhs <= 1e-9 * (1.0 + (math.log(worst) if worst else 0.0))


def test_truncation_matters(tables):
    # with z = x^(1/4) = 5, the reconstruction of a number with a prime
    # factor structure needing mu above z still closes (identity is exact
    # for n <= x), but the raw convolution depends on the truncation
    rec_small = reconstruct(625.0, 625, tables)
    lam = tables.von_mangoldt_upto(625)
    assert np.max(np.abs(rec_small - lam)) < 1e-9


def dyadic_grid(x):
    """Enumerate the admissible dyadic tuples as exponent 8-tuples
    (N_i = 2^e_i; e_i = 0 marks the degenerate interval, replaced by
    [1, 2)); sizes multiply to <= x and the four mobius-slot sizes satisfy
    2 * N_i <= x^(1/4). The enumeration oracle for ``dyadic_grid_count``."""
    if x < 2**8:
        raise ValueError("x must be at least 2^8")
    _, L, cap_high = _integer_sizes(x)
    tuples = []
    for highs in product(range(cap_high + 1), repeat=4):
        rem_high = L - sum(highs)
        if rem_high < 0:
            continue
        for lows in _tuples_sum_at_most(rem_high, 4):
            tuples.append(lows + highs)
    return tuples


def _tuples_sum_at_most(total, slots):
    if slots == 0:
        yield ()
        return
    for e in range(total + 1):
        for rest in _tuples_sum_at_most(total - e, slots - 1):
            yield (e,) + rest


def test_dyadic_grid_count_matches_enumeration():
    for x in (256.0, 1024.0, 4096.0):
        tuples = dyadic_grid(x)
        assert len(tuples) == dyadic_grid_count(x)
        assert len(tuples) == len(set(tuples))
        # every tuple respects the size constraints
        for t in tuples:
            assert len(t) == 8
            assert sum(t) <= math.log2(x)
            for e in t[4:]:
                assert 2 ** (4 * e + 4) <= x


@pytest.mark.parametrize("k", [5, 6, 7])
def test_reconstruction_cutoff_is_the_exact_fourth_root(tables, k):
    # z = floor(x^(1/4)) is k - 1 just below k^4 and k from k^4 on;
    # mu(k) != 0, so the truncation at z shows in the bits
    below = reconstruct(k**4 - 1e-7, 600, tables)
    assert below.tobytes() == reconstruct(k**4 - 1, 600, tables).tobytes()
    assert below.tobytes() != reconstruct(k**4, 600, tables).tobytes()
    assert reconstruct(k**4 + 1e-7, 600, tables).tobytes() == \
        reconstruct(k**4, 600, tables).tobytes()
    assert reconstruct_bruteforce(210, k**4 - 1e-7, tables) == \
        reconstruct_bruteforce(210, k**4 - 1, tables)


@pytest.mark.parametrize("L", [9, 12, 16, 20])
def test_dyadic_grid_count_at_powers_of_two(L):
    below = 2.0**L * (1 - 1e-12)
    assert dyadic_grid_count(below) == dyadic_grid_count(2**L - 1)
    assert dyadic_grid_count(below) != dyadic_grid_count(2**L)
    assert dyadic_grid_count(2.0**L * (1 + 1e-12)) == dyadic_grid_count(2**L)
    if L <= 12:
        for x in (below, 2**L - 1, 2**L):
            assert len(dyadic_grid(x)) == dyadic_grid_count(x)


def test_dyadic_grid_polylog_report():
    report = dyadic_grid_report([2.0**k for k in range(8, 24, 2)])
    assert report.ratio < 1.0  # far below (log x)^8 at desk scale
    assert report.rhs_formula_value > 0


def log_removal_check(N1, f, upper_limit="exact"):
    """Compare sum of f(n) log n on (N1, 2N1] with the layer integral
    int (1/v) sum over n in (max(v, N1), 2N1] of f(n) dv.

    upper_limit="exact" integrates v up to 2N1, which reconstructs the
    log weight identically; upper_limit="printed" stops at N1, where the
    indicator never depends on v and the integral collapses to log N1
    per point. Both are reported; the difference is the point of the check.
    """
    if N1 < 1:
        raise ValueError("N1 must be at least 1")
    if upper_limit not in ("exact", "printed"):
        raise ValueError("upper_limit must be 'exact' or 'printed'")
    support = {n: w for n, w in f.items() if N1 < n <= 2 * N1 and w != 0.0}
    lhs = math.fsum(w * math.log(n) for n, w in support.items())

    top = 2 * N1 if upper_limit == "exact" else N1
    # closed form: each point n contributes log(min(n, top)) relative
    # to the v-layers below it
    rhs = math.fsum(
        w * (math.log(N1) + max(0.0, math.log(min(n, top) / N1)))
        for n, w in support.items()
    ) if top >= N1 else 0.0

    return BoundReport(
        lhs=lhs,
        rhs_formula_value=rhs,
        parameters={"N1": N1, "upper_limit": upper_limit,
                    "difference": lhs - rhs},
        label="log-removal",
    )


def test_log_removal_exact_mode():
    f = {5: 1.0, 6: -0.5, 7: 2.0, 8: 1.0}
    report = log_removal_check(4, f, upper_limit="exact")
    assert report.lhs == pytest.approx(report.rhs_formula_value, abs=1e-12)


def test_log_removal_printed_mode_undershoots():
    f = {5: 1.0, 6: 1.0, 7: 1.0, 8: 1.0}
    exact = log_removal_check(4, f, upper_limit="exact")
    printed = log_removal_check(4, f, upper_limit="printed")
    assert printed.rhs_formula_value < exact.rhs_formula_value
    # printed mode collapses to log(N1) per unit-weight point
    assert printed.rhs_formula_value == pytest.approx(4 * math.log(4), abs=1e-12)


def _log_removal_quadrature(N1, f, top):
    """Oracle: integrate the layer integrand piecewise with scipy's quad."""
    support = {n: w for n, w in f.items() if N1 < n <= 2 * N1 and w != 0.0}

    def integrand(v):
        lo = max(v, N1)
        return sum(w for n, w in support.items() if n > lo) / v

    breakpoints = sorted({1.0, float(N1), float(top)}
                         | {float(n) for n in support if n <= top})
    total = 0.0
    for a, b in zip(breakpoints, breakpoints[1:]):
        val, _ = quad(integrand, a, b, epsabs=1e-12, epsrel=1e-12)
        total += val
    return total


def test_log_removal_quadrature_agrees():
    f = {5: 1.0, 7: 2.0}
    closed = log_removal_check(4, f, upper_limit="exact")
    assert closed.rhs_formula_value == pytest.approx(
        _log_removal_quadrature(4, f, top=8), abs=1e-9
    )


def test_cli_imports_no_scipy():
    # importing scipy costs more time and memory than the rest of bvlab;
    # only perron's first call should pay for it
    code = ("import sys, bvlab.cli; "
            "loaded = [m for m in sys.modules if m.startswith('scipy')]; "
            "assert not loaded, loaded[:3]")
    src = os.path.dirname(os.path.dirname(bvlab.__file__))
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})
