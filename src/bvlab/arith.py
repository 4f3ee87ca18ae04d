"""Exact sieves and multiplicative functions: the arithmetic substrate.

Tables are built once, frozen, and shared; every downstream sum (Chebyshev
psi, character-twisted sums, Heath-Brown reconstruction) reads from them.
The von Mangoldt support is stored as the base prime, never as a float,
so the table stays exact; logs are taken at summation time.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from math import gcd

import numpy as np

from .characters import factorize

DEFAULT_LIMIT_CEILING = 10**8

CACHE_MAGIC = b"BVML1"
# per-entry record, one per n in [0, limit]:
#   smallest_prime_factor uint32, mobius int8, phi uint32
CACHE_ENTRY_DTYPE = np.dtype(
    [("spf", "<u4"), ("mobius", "i1"), ("phi", "<u4")]
)


class LimitError(ValueError):
    """Requested sieve limit outside the configured range."""


@dataclass(frozen=True)
class MultiplicativeTables:
    """Sieved arithmetic functions up to ``limit`` (inclusive).

    ``lambda_support[n]`` is the prime p when n = p^e, absent otherwise;
    the von Mangoldt value is then log(lambda_support[n]).
    ``mobius`` and ``phi`` are exact integer arrays indexed by n.
    Immutable after construction; safe to share across workers.
    """

    limit: int
    lambda_support: dict[int, int]
    mobius: np.ndarray
    phi: np.ndarray
    smallest_prime_factor: np.ndarray
    # sorted prime powers and their log-Lambda weights, for fast psi sums
    prime_powers: np.ndarray = field(repr=False)
    prime_power_logs: np.ndarray = field(repr=False)

    def von_mangoldt(self, n: int) -> float:
        p = self.lambda_support.get(n)
        return 0.0 if p is None else math.log(p)

    def is_prime(self, n: int) -> bool:
        return n >= 2 and int(self.smallest_prime_factor[n]) == n

    def primes(self) -> np.ndarray:
        n = np.arange(2, self.limit + 1)
        return n[self.smallest_prime_factor[2:] == n]

    def factorize(self, n: int) -> "FactoredInteger":
        if not 1 <= n <= self.limit:
            raise ValueError(f"n={n} outside table range [1, {self.limit}]")
        m = n
        factors = []
        while m > 1:
            p = int(self.smallest_prime_factor[m])
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
        return FactoredInteger(n=n, factors=factors)


@dataclass(frozen=True)
class FactoredInteger:
    n: int
    factors: list[tuple[int, int]]

    def __post_init__(self):
        prod = 1
        for p, e in self.factors:
            prod *= p**e
        if prod != self.n:
            raise ValueError(f"factorization of {self.n} is inconsistent")


def build_tables(limit: int, ceiling: int = DEFAULT_LIMIT_CEILING) -> MultiplicativeTables:
    """Sieve smallest prime factors, mobius, phi, and Lambda-support up to limit."""
    if limit < 2 or limit > ceiling:
        raise LimitError(f"limit must be in [2, {ceiling}], got {limit}")

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
    phi = np.arange(limit + 1, dtype=np.int64)
    for p in primes.tolist():
        mobius[p::p] *= -1
        phi[p::p] //= p
        phi[p::p] *= p - 1
        if p * p <= limit:
            mobius[p * p :: p * p] = 0

    lambda_support: dict[int, int] = {}
    for p in primes.tolist():
        pe = p
        while pe <= limit:
            lambda_support[pe] = p
            pe *= p

    prime_powers = np.array(sorted(lambda_support), dtype=np.int64)
    bases = np.array([lambda_support[int(m)] for m in prime_powers], dtype=np.int64)
    prime_power_logs = np.log(bases.astype(np.float64))

    return MultiplicativeTables(
        limit=limit,
        lambda_support=lambda_support,
        mobius=mobius,
        phi=phi,
        smallest_prime_factor=spf,
        prime_powers=prime_powers,
        prime_power_logs=prime_power_logs,
    )


def tau_b(n: int, b: int, tables: MultiplicativeTables | None = None) -> int:
    """Number of ordered b-tuples of positive integers with product n."""
    if n < 1:
        raise ValueError("n must be positive")
    if not 1 <= b <= 8:
        raise ValueError("b must be in [1, 8]")
    if n == 1:
        return 1
    if tables is not None and n <= tables.limit:
        factors = tables.factorize(n).factors
    else:
        factors = factorize(n)
    out = 1
    for _, e in factors:
        out *= math.comb(e + b - 1, b - 1)
    return out


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p, _ in factorize(n):
        return p == n
    return True


def _is_prime_power(n: int) -> int | None:
    """Return the base prime if n = p^e with e >= 1, else None."""
    f = factorize(n)
    if len(f) == 1:
        return f[0][0]
    return None


@dataclass(frozen=True)
class ModuliSet:
    """Pairwise relatively prime moduli in [Q, 2Q)."""

    Q: int
    members: list[int]
    kind: str  # "prime-powers" | "primes" | "custom"

    def __post_init__(self):
        for q in self.members:
            if not self.Q <= q < 2 * self.Q:
                raise ValueError(f"modulus {q} outside [{self.Q}, {2 * self.Q})")
        ms = self.members
        for i in range(len(ms)):
            for j in range(i + 1, len(ms)):
                g = gcd(ms[i], ms[j])
                if g > 1:
                    raise ValueError(
                        f"moduli {ms[i]} and {ms[j]} share the factor {g}"
                    )


def enumerate_moduli_set(Q: int, kind: str = "prime-powers",
                         custom: list[int] | None = None) -> ModuliSet:
    """All prime powers (or primes) in [Q, 2Q); or validate a custom list."""
    if Q < 3:
        raise ValueError("Q must be at least 3")
    if kind == "custom":
        if custom is None:
            raise ValueError("kind='custom' requires a member list")
        return ModuliSet(Q=Q, members=sorted(custom), kind=kind)
    members = []
    for q in range(Q, 2 * Q):
        if kind == "primes":
            if _is_prime(q):
                members.append(q)
        elif kind == "prime-powers":
            if _is_prime_power(q) is not None:
                members.append(q)
        else:
            raise ValueError(f"unknown moduli kind {kind!r}")
    return ModuliSet(Q=Q, members=members, kind=kind)


def save_tables(tables: MultiplicativeTables, path: str) -> None:
    """Binary cache: magic, limit (8-byte LE), then per-entry records."""
    records = np.empty(tables.limit + 1, dtype=CACHE_ENTRY_DTYPE)
    records["spf"] = tables.smallest_prime_factor
    records["mobius"] = tables.mobius
    records["phi"] = tables.phi.astype(np.uint32)
    with open(path, "wb") as fh:
        fh.write(CACHE_MAGIC)
        fh.write(struct.pack("<Q", tables.limit))
        fh.write(records.tobytes())


def load_tables(path: str) -> MultiplicativeTables:
    with open(path, "rb") as fh:
        magic = fh.read(len(CACHE_MAGIC))
        if magic != CACHE_MAGIC:
            raise ValueError(f"bad cache magic {magic!r}")
        (limit,) = struct.unpack("<Q", fh.read(8))
        raw = fh.read()
    records = np.frombuffer(raw, dtype=CACHE_ENTRY_DTYPE)
    if len(records) != limit + 1:
        raise ValueError("cache truncated or corrupt")
    spf = records["spf"].copy()
    mobius = records["mobius"].copy()
    phi = records["phi"].astype(np.int64)

    lambda_support: dict[int, int] = {}
    n = np.arange(limit + 1, dtype=np.int64)
    primes = n[2:][spf[2:] == n[2:].astype(np.uint32)]
    for p in primes.tolist():
        pe = p
        while pe <= limit:
            lambda_support[pe] = p
            pe *= p
    prime_powers = np.array(sorted(lambda_support), dtype=np.int64)
    bases = np.array([lambda_support[int(m)] for m in prime_powers], dtype=np.int64)
    return MultiplicativeTables(
        limit=int(limit),
        lambda_support=lambda_support,
        mobius=mobius,
        phi=phi,
        smallest_prime_factor=spf,
        prime_powers=prime_powers,
        prime_power_logs=np.log(bases.astype(np.float64)),
    )
