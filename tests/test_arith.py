import math
import warnings
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bvlab.arith import (
    SEGMENT,
    LimitError,
    ModuliSet,
    build_tables,
    enumerate_moduli_set,
)
from bvlab.characters import character_group, euler_phi, factorize
from bvlab.heathbrown import verify_identity
from bvlab.progressions import (
    e_dagger,
    e_dagger_bruteforce,
    e_star,
    e_star_bruteforce,
    psi,
)
from paper_checks import (
    character_extremum,
    least_prime_factors,
    psi_ap,
    psi_chi,
    psi_coprime,
    tau_b,
)


def _naive_mobius(n):
    if n == 1:
        return 1
    m, out = n, 1
    d = 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            out = -out
        d += 1
    if m > 1:
        out = -out
    return out


def _naive_phi(n):
    return sum(1 for a in range(1, n + 1) if gcd(a, n) == 1)


def _support(tables):
    """The von Mangoldt support as a dict n -> p over every n = p^e."""
    pp = tables.prime_powers
    spf = least_prime_factors(tables.limit)
    return dict(zip(pp.tolist(), spf[pp].tolist()))


def _sieve_reference(limit):
    """Reference sieve: the per-prime loop over every prime <= limit, with
    the von Mangoldt support built as a dict and sorted."""
    spf = least_prime_factors(limit)
    n = np.arange(limit + 1, dtype=np.uint32)
    primes = n[2:][spf[2:] == n[2:]]

    mobius = np.ones(limit + 1, dtype=np.int8)
    mobius[0] = 0
    for p in primes.tolist():
        mobius[p::p] *= -1
        if p * p <= limit:
            mobius[p * p :: p * p] = 0

    lambda_support = {}
    for p in primes.tolist():
        pe = p
        while pe <= limit:
            lambda_support[pe] = p
            pe *= p
    prime_powers = np.array(sorted(lambda_support), dtype=np.int64)
    bases = np.array([lambda_support[int(m)] for m in prime_powers], dtype=np.int64)
    return {
        "smallest_prime_factor": spf,
        "mobius": mobius,
        "prime_powers": prime_powers,
        "prime_power_logs": np.log(bases.astype(np.float64)),
        "lambda_support": lambda_support,
    }


@pytest.mark.parametrize(
    "limit",
    [2, 3, 4, 8, 9, 25, 48, 49, 50, 97, 121, 1000, 9973, 10**4, 2**16,
     10**5, 2**18 - 1, 2**18, 2**18 + 1, 3 * 2**18 + 7, 10**6,
     # the odd-only prime sieve holds 2 * SEGMENT numbers per segment:
     # limits that fill one segment, meet its edge and pass it, and one
     # two entries into a third segment
     2 * SEGMENT - 1, 2 * SEGMENT, 2 * SEGMENT + 1, 4 * SEGMENT + 3,
     # 1619^2, the last number of its segment, is marked only if 1619
     # counts as reaching it; it lies 140 entries before a segment edge
     1619**2],
)
def test_sieve_matches_reference_bit_for_bit(limit):
    ref = _sieve_reference(limit)
    tables = build_tables(limit)
    for name in ("prime_powers", "prime_power_logs"):
        got = getattr(tables, name)
        assert got.dtype == ref[name].dtype, name
        assert np.array_equal(got, ref[name]), name
    mobius = tables.mobius_upto(limit)
    assert mobius.dtype == ref["mobius"].dtype
    assert np.array_equal(mobius, ref["mobius"])
    assert _support(tables) == ref["lambda_support"]
    n = np.arange(2, limit + 1)
    ref_primes = n[ref["smallest_prime_factor"][2:] == n]
    primes = tables.primes
    assert primes.dtype == ref_primes.dtype
    assert np.array_equal(primes, ref_primes)


def test_sieve_raises_no_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        build_tables(10**5)


def test_limit_validation():
    with pytest.raises(LimitError):
        build_tables(1)
    with pytest.raises(LimitError):
        build_tables(10**9)


def test_sieve_against_naive(tables):
    mobius = tables.mobius_upto(499)
    for n in range(1, 500):
        assert int(mobius[n]) == _naive_mobius(n)
        assert euler_phi(n) == _naive_phi(n)


def test_von_mangoldt_support(tables):
    lam = tables.von_mangoldt_upto(12)
    assert lam[8] == pytest.approx(math.log(2))
    assert lam[9] == pytest.approx(math.log(3))
    assert lam[12] == 0.0
    assert lam[1] == 0.0
    # exact: the table stores the base prime, not a float
    support = _support(tables)
    assert support[243] == 3
    assert 12 not in support and 1 not in support and 0 not in support


_LAMBDA_READERS = {
    "psi": lambda y, t: psi(y, t),
    "psi_ap": lambda y, t: psi_ap(y, 7, 3, t),
    "psi_coprime": lambda y, t: psi_coprime(y, 7, t),
    "psi_chi": lambda y, t: psi_chi(y, character_group(7)[1], t),
    "character_extremum": lambda y, t: character_extremum(y, character_group(7)[1], t),
    "e_star": lambda y, t: e_star(y, 7, t),
    "e_dagger": lambda y, t: e_dagger(y, 7, t),
    "e_star_bruteforce": lambda y, t: e_star_bruteforce(y, 7, t),
    "e_dagger_bruteforce-q7": lambda y, t: e_dagger_bruteforce(y, 7, t),
    "e_dagger_bruteforce-q1": lambda y, t: e_dagger_bruteforce(y, 1, t),
    "von_mangoldt_upto": lambda y, t: t.von_mangoldt_upto(y),
    "mobius_upto": lambda y, t: t.mobius_upto(y),
    "verify_identity": lambda y, t: verify_identity(y, y, t),
}


@pytest.mark.parametrize("reader", list(_LAMBDA_READERS))
def test_lambda_readers_refuse_y_past_the_table(reader):
    # 1024 = 2^10, so the last jump sits on the limit itself
    tables = build_tables(1024)
    read = _LAMBDA_READERS[reader]
    for y in (tables.limit + 0.5, tables.limit + 1, math.nan):
        with pytest.raises(ValueError, match="limit"):
            read(y, tables)
    assert read(tables.limit, tables) is not None


@pytest.mark.parametrize("y", [-3, -1, -0.5, -math.inf])
def test_dense_readers_are_empty_below_zero(y):
    # 0 <= m <= floor(y) holds for no m when y < 0
    tables = build_tables(100)
    lam, mu = tables.von_mangoldt_upto(y), tables.mobius_upto(y)
    assert (lam.shape, lam.dtype) == ((0,), np.float64)
    assert (mu.shape, mu.dtype) == ((0,), np.int8)


@pytest.mark.parametrize("limit", [2, 3, 4, 97, 10**4])
def test_von_mangoldt_upto_is_dense_von_mangoldt(limit):
    tables = build_tables(limit)
    lam = tables.von_mangoldt_upto(limit)
    # independent oracle: Lambda(m) = log p iff m = p^e, by trial division
    oracle = [0.0, 0.0]
    for m in range(2, limit + 1):
        f = factorize(m)
        oracle.append(math.log(f[0][0]) if len(f) == 1 else 0.0)
    assert lam.tolist() == oracle
    bases = least_prime_factors(limit)[tables.prime_powers]
    assert lam[tables.prime_powers].tolist() == [math.log(p) for p in bases.tolist()]


def test_prime_powers_sorted_and_complete(tables):
    pp = tables.prime_powers
    assert np.all(np.diff(pp) > 0)
    support = _support(tables)
    assert len(pp) == len(support)
    # Chebyshev psi(100) from the tables matches a hand sum
    k = int(np.searchsorted(pp, 100, side="right"))
    psi_100 = math.fsum(tables.prime_power_logs[:k])
    direct = math.fsum(
        math.log(p) for n, p in support.items() if n <= 100
    )
    assert psi_100 == pytest.approx(direct, abs=1e-12)


def test_factorize_roundtrip(tables):
    primes = set(tables.primes.tolist())
    for n in (1, 2, 97, 360, 9973, 9999):
        prod = 1
        for p, e in factorize(n):
            assert p in primes
            prod *= p**e
        assert prod == n


@given(st.integers(min_value=1, max_value=9999),
       st.integers(min_value=1, max_value=9999))
@settings(max_examples=200, deadline=None)
def test_phi_multiplicative(n, m):
    if gcd(n, m) == 1:
        assert euler_phi(n * m) == euler_phi(n) * euler_phi(m)


@given(st.integers(min_value=1, max_value=9999))
@settings(max_examples=200, deadline=None)
def test_mobius_square_vanishes(n):
    tables = _shared()
    if n * n <= tables.limit and n > 1:
        assert int(tables.mobius_upto(n * n)[n * n]) == 0


_CACHED = None


def _shared():
    global _CACHED
    if _CACHED is None:
        _CACHED = build_tables(10**4)
    return _CACHED


def test_tau_b_values():
    assert tau_b(1, 3) == 1
    assert tau_b(12, 2) == 6  # divisor count of 12
    # tau_b is multiplicative and tau_b(p, b) = b
    assert tau_b(7, 4) == 4
    assert tau_b(7 * 11, 4) == 16


@given(st.integers(min_value=1, max_value=2000),
       st.integers(min_value=1, max_value=4))
@settings(max_examples=100, deadline=None)
def test_tau_2_matches_divisor_count(n, b):
    if b == 2:
        divisors = sum(1 for d in range(1, n + 1) if n % d == 0)
        assert tau_b(n, 2) == divisors


def test_moduli_set_window_and_coprimality():
    s = enumerate_moduli_set(22, "prime-powers")
    assert s.members == [23, 25, 27, 29, 31, 32, 37, 41, 43]
    with pytest.raises(ValueError, match="outside"):
        ModuliSet(Q=10, members=[9])
    with pytest.raises(ValueError, match="share the factor"):
        ModuliSet(Q=10, members=[10, 15])
    with pytest.raises(ValueError, match="unknown moduli kind"):
        enumerate_moduli_set(10, "everything")


def test_primes_kind():
    s = enumerate_moduli_set(10, "primes")
    assert s.members == [11, 13, 17, 19]


def test_moduli_sets_match_sieve(tables):
    support = _support(tables)
    primes = set(tables.primes.tolist())
    for Q in range(3, 301):
        window = range(Q, 2 * Q)
        assert enumerate_moduli_set(Q, "primes").members == \
            [q for q in window if q in primes], Q
        assert enumerate_moduli_set(Q, "prime-powers").members == \
            [q for q in window if q in support], Q
