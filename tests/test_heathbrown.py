import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad

import bvlab

from bvlab.heathbrown import (
    dyadic_grid,
    dyadic_grid_count,
    dyadic_grid_report,
    identity_terms,
    log_removal_check,
    reconstruct,
    reconstruct_bruteforce,
    verify_identity,
    write_dyadic_csv,
)


def test_term_structure():
    terms = identity_terms(10**4)
    assert [t.sign_coefficient for t in terms] == [4, -6, 4, -1]
    assert [t.j for t in terms] == [1, 2, 3, 4]
    with pytest.raises(ValueError):
        identity_terms(10)


def test_reconstruction_matches_von_mangoldt(tables):
    x = 2000
    rec = reconstruct(float(x), x, tables)
    for n in range(1, x + 1):
        lam = tables.von_mangoldt(n)
        assert abs(rec[n] - lam) <= 1e-9 * (1.0 + math.log(n))


def _reconstruct_reference(x, n_max, tables):
    """Reference: log * 1^(j-1) rebuilt from the logs for every j."""
    z = int(math.floor(x ** 0.25 + 1e-9))

    def convolve(a, b):
        out = np.zeros(n_max + 1)
        for d in range(1, n_max + 1):
            if a[d] != 0.0:
                out[d::d] += a[d] * b[1 : n_max // d + 1]
        return out

    mu_trunc = np.zeros(n_max + 1)
    top = min(z, n_max)
    mu_trunc[1 : top + 1] = tables.mobius[1 : top + 1]
    logs = np.zeros(n_max + 1)
    logs[1:] = np.log(np.arange(1, n_max + 1, dtype=np.float64))
    unit = np.ones(n_max + 1)
    unit[0] = 0.0
    out = np.zeros(n_max + 1)
    m_conv = np.zeros(n_max + 1)
    m_conv[1] = 1.0
    for j in range(1, 5):
        m_conv = convolve(m_conv, mu_trunc)
        t_conv = logs.copy()
        for _ in range(j - 1):
            t_conv = convolve(t_conv, unit)
        out += (-1) ** (j - 1) * math.comb(4, j) * convolve(m_conv, t_conv)
    return out


@pytest.mark.parametrize("n_max", [1, 100, 2000])
def test_reconstruction_matches_reference_bit_for_bit(tables, n_max):
    rec = reconstruct(2000.0, n_max, tables)
    ref = _reconstruct_reference(2000.0, n_max, tables)
    assert rec.tobytes() == ref.tobytes()


def test_reconstruction_agrees_with_bruteforce(tables):
    x = 600.0
    rec = reconstruct(x, 600, tables)
    for n in (1, 2, 30, 64, 97, 360, 599):
        assert rec[n] == pytest.approx(
            reconstruct_bruteforce(n, x, tables), abs=1e-9
        )


def test_verify_identity_report(tables):
    report = verify_identity(2000.0, 2000, tables)
    worst = report.parameters["worst_n"]
    assert report.lhs <= 1e-9 * (1.0 + (math.log(worst) if worst else 0.0))


def test_truncation_matters(tables):
    # with z = x^(1/4) = 5, the reconstruction of a number with a prime
    # factor structure needing mu above z still closes (identity is exact
    # for n <= x), but the raw convolution depends on the truncation
    rec_small = reconstruct(625.0, 625, tables)
    lam = np.array([tables.von_mangoldt(n) for n in range(626)])
    assert np.max(np.abs(rec_small - lam)) < 1e-9


def test_dyadic_grid_count_matches_enumeration():
    for x in (256.0, 1024.0, 4096.0):
        tuples, n = dyadic_grid(x)
        assert n == dyadic_grid_count(x)
        assert n == len(set(t.exponents for t in tuples))
        # every tuple respects the size constraints
        for t in tuples:
            assert sum(t.exponents) <= math.log2(x)
            for e in t.exponents[4:]:
                assert 2 * 2**e <= x ** 0.25 + 1e-9


def test_dyadic_grid_polylog_report():
    report = dyadic_grid_report([2.0**k for k in range(8, 24, 2)])
    assert report.ratio < 1.0  # far below (log x)^8 at desk scale
    assert report.rhs_formula_value > 0


def test_dyadic_csv(tmp_path):
    tuples, _ = dyadic_grid(256.0)
    path = tmp_path / "grid.csv"
    write_dyadic_csv(tuples, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "e1,e2,e3,e4,e5,e6,e7,e8"
    assert len(lines) == len(tuples) + 1


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
