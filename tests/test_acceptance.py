"""Top-level acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s or on
failure); tolerances are fixed here and nowhere else.
"""

import math
import random
import time
from fractions import Fraction as F
from math import gcd

import numpy as np
import pytest

from bvlab.arith import _least_prime_factors, build_tables, enumerate_moduli_set
from bvlab.characters import CharacterGroup, character_group, primitive_count
from bvlab.dpoly import (
    DirichletPolynomial,
    build_triple_family,
    derivative_second_moment_report,
    fourth_moment_report,
    large_value_count_bruteforce,
    large_value_report,
    mean_value_report,
)
from bvlab.exponents import (
    THETA_MAX,
    grid_tuples,
    logpower_ledger,
    partition_bruteforce,
    partition_exponents,
    polytope_scan,
    published_fractions,
    random_exponent_tuple,
    case2_log_alt,
    case2_log_main,
)
from bvlab.heathbrown import reconstruct
from bvlab.perron import (
    default_contour,
    height_trend,
    horizontal_bound_check,
    truncated_perron,
)
from bvlab.progressions import (
    e_star_bruteforce,
    exception_scan,
    psi,
)
from paper_checks import divisor_moment_report, progression_identity_residual


def _report(n, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {n}: {detail}")
    assert ok, detail


def test_criterion_1_partition_totality():
    """Constructive split is total, invariant-clean, and oracle-confirmed
    on the exhaustive 1/8 grid plus 10^5 seeded random tuples (< 2 min)."""
    start = time.time()
    grid_count = 0
    for u in grid_tuples(F(1, 8)):
        out = partition_exponents(u)
        out.verify(u)
        assert partition_bruteforce(u) is not None
        grid_count += 1
    rng = random.Random(0)
    for _ in range(10**5):
        u = random_exponent_tuple(rng)
        out = partition_exponents(u)
        out.verify(u)
        assert partition_bruteforce(u) is not None
    elapsed = time.time() - start
    _report(1, elapsed < 120,
            f"{grid_count} grid + 100000 random tuples verified "
            f"in {elapsed:.1f}s (< 120s)")


def test_criterion_2_identity_exactness():
    """Reconstruction residual <= 1e-9 (1 + log n) for all n <= 10^4."""
    start = time.time()
    x = 10**4
    tables = build_tables(x)
    rec = reconstruct(float(x), x, tables)
    lam = np.zeros(x + 1)
    pp = tables.prime_powers
    spf = _least_prime_factors(x)[0]
    for n, p in zip(pp.tolist(), spf[pp].tolist()):
        lam[n] = math.log(p)
    budget = 1e-9 * (1.0 + np.log(np.maximum(np.arange(x + 1), 1)))
    resid = np.abs(rec - lam)
    worst = float(np.max(resid / budget))
    elapsed = time.time() - start
    _report(2, bool(np.all(resid <= budget)) and elapsed < 60,
            f"max residual/budget = {worst:.3e} over n <= {x} "
            f"in {elapsed:.1f}s (< 60s)")


def test_criterion_3_character_algebra():
    """Orthogonality exact (1e-12) for q <= 200; primitive-count formula
    matches enumeration for q <= 2000."""
    worst = 0.0
    for q in range(1, 201):
        group = CharacterGroup(q)
        chars = group.characters()
        units = [a for a in range(q) if gcd(a, q) == 1] if q > 1 else [0]
        M = np.array([[chi.value_table()[a] for a in units]
                      for chi in chars])
        eye = len(chars) * np.eye(len(chars))
        worst = max(worst,
                    float(np.max(np.abs(M.conj().T @ M - eye))),
                    float(np.max(np.abs(M @ M.conj().T - eye))))
    assert worst <= 1e-12, f"orthogonality defect {worst:.2e}"
    for q in range(1, 2001):
        enumerated = sum(1 for chi in CharacterGroup(q).characters()
                         if chi.is_primitive)
        assert enumerated == primitive_count(q), q
    _report(3, True,
            f"orthogonality defect {worst:.2e} <= 1e-12 for q <= 200; "
            f"primitive counts match for q <= 2000")


def test_criterion_4_progression_identity():
    """Character-decomposition residual <= 1e-8 (1 + psi(y)) over 500
    seeded (y, q, a) triples."""
    tables = build_tables(10**5)
    rng = random.Random(0)
    checked = 0
    worst = 0.0
    while checked < 500:
        q = rng.randrange(2, 101)
        a = rng.randrange(1, q)
        if gcd(a, q) != 1:
            continue
        y = rng.uniform(10.0, 10**5)
        resid = progression_identity_residual(y, q, a, tables)
        budget = 1e-8 * (1.0 + psi(y, tables))
        assert resid <= budget, (y, q, a, resid, budget)
        worst = max(worst, resid / budget)
        checked += 1
    _report(4, True,
            f"500 triples, worst residual/budget = {worst:.3e}")


def test_criterion_5_exponent_certificate():
    """Exact-rational certificate at grid 1/40 (and 1/16), published
    fractions reproduced, out-of-range probe violated."""
    start = time.time()
    fine = polytope_scan(F(1, 16))
    t_16 = time.time() - start
    assert fine.passed and t_16 < 60, f"1/16 scan took {t_16:.1f}s"
    start = time.time()
    main = polytope_scan(F(1, 40))
    t_40 = time.time() - start
    assert main.passed and main.worst_slack <= 0
    assert t_40 < 600, f"1/40 scan took {t_40:.1f}s"
    fr = published_fractions()
    assert fr["case2-A1-x"] == F(319, 640)
    assert fr["case3-A2-x"] == F(157, 320)
    assert fr["case3-B2-x"] == F(119, 240)
    probe = polytope_scan(F(1, 8), theta=THETA_MAX + F(1, 80))
    assert not probe.passed and probe.violations >= 1
    _report(5, True,
            f"1/40 scan: {main.tuple_count} tuples, slack "
            f"{main.worst_slack}, {t_40:.1f}s; 1/16 in {t_16:.1f}s; "
            f"probe violations {probe.violations}")


def test_criterion_6_logpower_ledger():
    """K2 <= 22 (tight at b = 2, 5), K3 <= 22 - 1/4, and the
    8 + 26 - delta chain — all exact."""
    led = logpower_ledger()
    assert led["ok"]
    assert case2_log_main(2) == 22 and case2_log_main(5) == 22
    for b in (2, 3, 4, 5):
        assert case2_log_main(b) <= 22
        assert case2_log_alt(b) <= 22 - F(1, 4)
    assert 8 + (26 - F(1, 20)) == 34 - F(1, 20)
    _report(6, True,
            f"K2 tight at {led['tight_at']}, chain {led['chain_total']}")


def test_criterion_7_exception_scan():
    """x = 10^6, A = 1 scan over prime powers in [Q, 2Q): completes, and
    the exceptional count matches an independent integer-y brute force.
    Regression value: 0 exceptional moduli on first computation."""
    x = 10**6
    tables = build_tables(x)
    Q = int(math.floor(x ** (9 / 40)))
    S = enumerate_moduli_set(Q, "prime-powers")
    records, summary = exception_scan(float(x), Q, 1.0, S, tables)
    assert len(records) == len(S.members) > 0
    brute_count = 0
    for rec in records:
        brute = e_star_bruteforce(x, rec.q, tables)
        brute_count += brute > rec.threshold
    assert brute_count == summary["count_exceptional"]
    assert summary["count_exceptional"] == 0  # frozen regression value
    _report(7, True,
            f"Q={Q}, |S|={len(S.members)}, exceptional="
            f"{summary['count_exceptional']} (matches brute force), "
            f"max ratio {summary['max_ratio']:.4f}")


def test_criterion_8_mean_value_shapes():
    """Finite ratios with tame N-doubling over the declared sweep for all
    four bound shapes (second moment, fourth moment, large values at a
    level scaling with the typical value, divisor moment); large-value
    counts match brute force for 100 seeded levels."""
    tables = build_tables(2**13)
    worst_growth = 0.0
    for Q in (4, 8, 16):
        for T in (16.0, 64.0):
            prev = {}
            for k in range(6, 13):
                N = 2**k
                fam = build_triple_family(Q, T, N, None, "unit", tables)
                V = 2.0 * math.sqrt(fam.G)
                reports = {
                    "mv": mean_value_report(fam),
                    "m4": fourth_moment_report(Q, T, N, tables),
                    "lv": large_value_report(fam, V),
                    "dv": divisor_moment_report(N, 2),
                }
                d2 = derivative_second_moment_report(Q, T, N, tables)
                assert math.isfinite(d2.ratio), (Q, T, N, "d2")
                for key, rep in reports.items():
                    assert math.isfinite(rep.ratio), (Q, T, N, key)
                    if key in prev and prev[key] > 0:
                        growth = rep.ratio / prev[key]
                        worst_growth = max(worst_growth, growth)
                        assert growth <= 2.0, (Q, T, N, key, growth)
                    prev[key] = rep.ratio
    fam = build_triple_family(4, 16.0, 64, None, "unit", tables)
    sup = max(float(np.max(v)) for v in fam.abs_values if len(v))
    rng = random.Random(0)
    for _ in range(100):
        V = rng.uniform(0.01, 1.5) * sup
        assert int(large_value_report(fam, V).lhs) == \
            large_value_count_bruteforce(fam, V)
    _report(8, True,
            f"all ratios finite, worst doubling growth {worst_growth:.3f} "
            f"<= 2; 100 large-value counts match brute force")


def test_criterion_9_perron():
    """Desk example recovers the exact count 4 within 1e-6; triangle
    bound asserted on the sigma grid; 3-point height trend monotone."""
    tables = build_tables(100)
    chi = character_group(1)[0]
    P = DirichletPolynomial(N=4, N_prime=8, kind="unit", chi=chi)
    P.attach_tables(tables)
    results = height_trend([P], 10.5, (1e6, 2e6, 4e6))
    errs = [r.abs_error for r in results]
    assert results[0].exact == 4
    assert errs[2] <= 1e-6, f"final error {errs[2]:.3e}"
    assert errs[0] > errs[1] > errs[2], f"trend not monotone: {errs}"
    grid = [0.5 + 0.05 * k for k in range(11)]
    horizontal_bound_check([P], grid, 4e6)
    _report(9, True,
            f"errors at heights (1e6, 2e6, 4e6): "
            f"{errs[0]:.3e} > {errs[1]:.3e} > {errs[2]:.3e} <= 1e-6; "
            f"horizontal bound asserted at {len(grid)} sigma points")
