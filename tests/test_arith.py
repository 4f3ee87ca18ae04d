import math
import warnings
import zlib
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bvlab.arith import (
    CACHE_ENTRY_FIELDS,
    CACHE_HEADER,
    CACHE_MAGIC,
    FactoredInteger,
    LimitError,
    ModuliSet,
    build_tables,
    enumerate_moduli_set,
    load_tables,
    save_tables,
    tau_b,
)
from bvlab.characters import character_group, euler_phi
from bvlab.heathbrown import verify_identity
from bvlab.progressions import (
    character_extremum,
    e_dagger,
    e_dagger_bruteforce,
    e_star,
    e_star_bruteforce,
    psi,
    psi_ap,
    psi_chi,
    psi_coprime,
)

ENTRY = np.dtype(CACHE_ENTRY_FIELDS)


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
    return dict(zip(tables.prime_powers.tolist(), tables.prime_power_bases.tolist()))


def _sieve_reference(limit):
    """Reference sieve: the per-prime loop over every prime <= limit, with
    the von Mangoldt support built as a dict and sorted."""
    spf = np.zeros(limit + 1, dtype=np.uint32)
    root = math.isqrt(limit)
    for i in range(2, root + 1):
        if spf[i] == 0:
            block = spf[i * i :: i]
            block[block == 0] = i
    n = np.arange(limit + 1, dtype=np.uint32)
    unmarked = (spf == 0) & (n >= 2)
    spf[unmarked] = n[unmarked]
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
        "prime_power_bases": bases,
        "prime_power_logs": np.log(bases.astype(np.float64)),
        "lambda_support": lambda_support,
    }


@pytest.mark.parametrize(
    "limit",
    [2, 3, 4, 8, 9, 25, 48, 49, 50, 97, 121, 1000, 9973, 10**4, 2**16,
     10**5, 10**6],
)
def test_sieve_matches_reference_bit_for_bit(limit):
    ref = _sieve_reference(limit)
    tables = build_tables(limit)
    for name in ("smallest_prime_factor", "mobius", "prime_powers",
                 "prime_power_bases", "prime_power_logs"):
        got = getattr(tables, name)
        assert got.dtype == ref[name].dtype, name
        assert np.array_equal(got, ref[name]), name
    assert _support(tables) == ref["lambda_support"]


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
    for n in range(1, 500):
        assert int(tables.mobius[n]) == _naive_mobius(n)
        assert euler_phi(n) == _naive_phi(n)


def test_von_mangoldt_support(tables):
    assert tables.von_mangoldt(8) == pytest.approx(math.log(2))
    assert tables.von_mangoldt(9) == pytest.approx(math.log(3))
    assert tables.von_mangoldt(12) == 0.0
    assert tables.von_mangoldt(1) == 0.0
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
    "von_mangoldt": lambda y, t: t.von_mangoldt(y),
    "von_mangoldt_upto": lambda y, t: t.von_mangoldt_upto(y),
    "verify_identity": lambda y, t: verify_identity(y, y, t),
}


@pytest.mark.parametrize("reader", list(_LAMBDA_READERS))
def test_lambda_readers_refuse_y_past_the_table(reader):
    # 1024 = 2^10, so the last jump sits on the limit itself
    tables = build_tables(1024)
    read = _LAMBDA_READERS[reader]
    for y in (tables.limit + 0.5, tables.limit + 1):
        with pytest.raises(ValueError, match="limit"):
            read(y, tables)
    assert read(tables.limit, tables) is not None


@pytest.mark.parametrize("limit", [2, 3, 4, 97, 10**4])
def test_von_mangoldt_upto_is_dense_von_mangoldt(limit):
    tables = build_tables(limit)
    lam = tables.von_mangoldt_upto(limit)
    assert lam.tolist() == [tables.von_mangoldt(m) for m in range(limit + 1)]
    assert lam[tables.prime_powers].tolist() == \
        [math.log(p) for p in tables.prime_power_bases.tolist()]


def test_is_prime_range():
    tables = build_tables(1000)
    assert tables.is_prime(997) and not tables.is_prime(1000)
    assert not any(tables.is_prime(n) for n in (-3, 0, 1))
    with pytest.raises(ValueError, match=r"n=1009 outside table range \[1, 1000\]"):
        tables.is_prime(1009)


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
    for n in (1, 2, 97, 360, 9973, 9999):
        f = tables.factorize(n)
        prod = 1
        for p, e in f.factors:
            assert tables.is_prime(p)
            prod *= p**e
        assert prod == n


def test_factored_integer_consistency_guard():
    with pytest.raises(ValueError):
        FactoredInteger(n=12, factors=[(2, 1), (3, 1)])


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
        assert int(tables.mobius[n * n]) == 0


_CACHED = None


def _shared():
    global _CACHED
    if _CACHED is None:
        _CACHED = build_tables(10**4)
    return _CACHED


def test_tau_b_values(tables):
    assert tau_b(1, 3) == 1
    assert tau_b(12, 2, tables) == 6  # divisor count of 12
    # tau_b is multiplicative and tau_b(p, b) = b
    assert tau_b(7, 4, tables) == 4
    assert tau_b(7 * 11, 4, tables) == 16


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
        ModuliSet(Q=10, members=[9], kind="custom")
    with pytest.raises(ValueError, match="share the factor"):
        ModuliSet(Q=10, members=[10, 15], kind="custom")
    with pytest.raises(ValueError, match="unknown moduli kind"):
        enumerate_moduli_set(10, "everything")


def test_primes_kind():
    s = enumerate_moduli_set(10, "primes")
    assert s.members == [11, 13, 17, 19]


def test_moduli_sets_match_sieve(tables):
    support = _support(tables)
    for Q in range(3, 301):
        window = range(Q, 2 * Q)
        assert enumerate_moduli_set(Q, "primes").members == \
            [q for q in window if tables.is_prime(q)], Q
        assert enumerate_moduli_set(Q, "prime-powers").members == \
            [q for q in window if q in support], Q


def test_cache_roundtrip(tmp_path, tables):
    path = str(tmp_path / "tables.bin")
    save_tables(tables, path)
    loaded = load_tables(path)
    assert loaded.limit == tables.limit
    assert np.array_equal(loaded.mobius, tables.mobius)
    assert np.array_equal(loaded.smallest_prime_factor,
                          tables.smallest_prime_factor)
    assert _support(loaded) == _support(tables)


def test_cache_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"not a cache")
    with pytest.raises(ValueError):
        load_tables(str(path))
    path.write_bytes(CACHE_MAGIC + b"\0\0\0")
    with pytest.raises(ValueError, match="header"):
        load_tables(str(path))


def _cache_records(tmp_path, tables):
    path = tmp_path / "tables.bin"
    save_tables(tables, str(path))
    raw = path.read_bytes()[len(CACHE_MAGIC) + CACHE_HEADER.size :]
    return path, np.frombuffer(raw, dtype=ENTRY).copy()


def _write_records(path, limit, records):
    raw = records.tobytes()
    path.write_bytes(CACHE_MAGIC + CACHE_HEADER.pack(limit, zlib.crc32(raw)) + raw)


def test_cache_rejects_flipped_byte(tmp_path, tables):
    path, _ = _cache_records(tmp_path, tables)
    data = bytearray(path.read_bytes())
    record_1234 = len(CACHE_MAGIC) + CACHE_HEADER.size + 1234 * ENTRY.itemsize
    # mu(1234) = 1 becomes 0: still a valid value, so only the CRC catches it
    data[record_1234 + ENTRY.fields["mobius"][1]] ^= 0x01
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="checksum"):
        load_tables(str(path))


def test_cache_rejects_old_format_and_bad_length(tmp_path, tables):
    path, _ = _cache_records(tmp_path, tables)
    data = path.read_bytes()
    for old_magic in (b"BVML1", b"BVML2"):  # the previous formats' magics
        path.write_bytes(old_magic + data[len(CACHE_MAGIC) :])
        with pytest.raises(ValueError, match="magic"):
            load_tables(str(path))
    path.write_bytes(data[: -ENTRY.itemsize])
    with pytest.raises(ValueError, match="truncated"):
        load_tables(str(path))


@pytest.mark.parametrize("field, n, value, match", [
    ("mobius", 30, 2, "mobius"),
    ("mobius", 30, -2, "mobius"),
    ("spf", 2, 0, "smallest prime factor"),
    ("spf", 9, 10, "smallest prime factor"),
    ("spf", 35, 2, "smallest prime factor"),
])
def test_cache_rejects_invalid_records(tmp_path, tables, field, n, value, match):
    path, records = _cache_records(tmp_path, tables)
    _write_records(path, tables.limit, records)
    assert _support(load_tables(str(path))) == _support(tables)
    records[field][n] = value
    _write_records(path, tables.limit, records)
    with pytest.raises(ValueError, match=match):
        load_tables(str(path))
