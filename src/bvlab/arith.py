"""Exact sieves and multiplicative functions: the arithmetic substrate.

Tables are built once, frozen, and shared; every downstream sum (Chebyshev
psi, character-twisted sums, Heath-Brown reconstruction) reads from them.
The von Mangoldt support is stored as the base prime, never as a float,
so the table stays exact; logs are taken at summation time.
"""

from __future__ import annotations

import math
import struct
import zlib
from collections.abc import ItemsView, Mapping
from dataclasses import dataclass, field
from math import gcd

import numpy as np

from .characters import factorize

DEFAULT_LIMIT_CEILING = 10**8

CACHE_MAGIC = b"BVML2"
# header after the magic: limit uint64 LE, CRC32 of the records uint32 LE;
# then one record per n in [0, limit]:
#   smallest_prime_factor uint32, mobius int8, phi uint32
CACHE_HEADER = struct.Struct("<QI")
CACHE_ENTRY_DTYPE = np.dtype(
    [("spf", "<u4"), ("mobius", "i1"), ("phi", "<u4")]
)


class LimitError(ValueError):
    """Requested sieve limit outside the configured range."""


class LambdaSupport(Mapping):
    """Read-only mapping n -> p for every prime power n = p^e, over the
    sorted ``prime_powers`` array and the matching array of base primes."""

    __slots__ = ("_powers", "_bases")

    def __init__(self, powers: np.ndarray, bases: np.ndarray):
        self._powers = powers
        self._bases = bases

    def __getitem__(self, n: int) -> int:
        i = int(np.searchsorted(self._powers, n))
        if i < len(self._powers) and self._powers[i] == n:
            return int(self._bases[i])
        raise KeyError(n)

    def __len__(self) -> int:
        return len(self._powers)

    def __iter__(self):
        return iter(self._powers.tolist())

    def items(self) -> "_LambdaItems":
        return _LambdaItems(self)


class _LambdaItems(ItemsView):
    def __iter__(self):
        m = self._mapping
        return zip(m._powers.tolist(), m._bases.tolist())


@dataclass(frozen=True)
class MultiplicativeTables:
    """Sieved arithmetic functions up to ``limit`` (inclusive).

    ``lambda_support[n]`` is the prime p when n = p^e, absent otherwise;
    the von Mangoldt value is then log(lambda_support[n]). It is a
    read-only view over ``prime_powers`` and their base primes.
    ``mobius`` and ``phi`` are exact integer arrays indexed by n.
    Immutable after construction; safe to share across workers.
    """

    limit: int
    lambda_support: Mapping[int, int]
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

    # Only primes <= sqrt(limit) are sieved one by one; each is divided
    # fully out of rem, which leaves rem[n] = 1 or the one prime above
    # sqrt(limit) that divides n, and whole-array ops account for it.
    mobius = np.ones(limit + 1, dtype=np.int8)
    mobius[0] = 0
    phi = np.arange(limit + 1, dtype=np.int64)
    rem = n
    for p in primes[: int(np.searchsorted(primes, root, side="right"))].tolist():
        mobius[p::p] *= -1
        phi[p::p] //= p
        phi[p::p] *= p - 1
        mobius[p * p :: p * p] = 0
        pe = p
        while pe <= limit:
            rem[pe::pe] //= p
            pe *= p
    rem[0] = 1
    np.negative(mobius, out=mobius, where=rem > 1)
    phi //= rem
    rem -= 1
    np.maximum(rem, 1, out=rem)
    phi *= rem

    return _assemble(limit, spf, mobius, phi, primes)


def _assemble(limit: int, spf: np.ndarray, mobius: np.ndarray, phi: np.ndarray,
              primes: np.ndarray) -> MultiplicativeTables:
    """Tables from the sieved arrays: adds the sorted prime powers p^e <= limit,
    their base primes (behind ``lambda_support``) and the base logs."""
    powers = [primes.astype(np.int64)]
    bases = [powers[0]]
    p = powers[0][: int(np.searchsorted(powers[0], math.isqrt(limit), side="right"))]
    pe = p * p
    while p.size:
        keep = pe <= limit
        p, pe = p[keep], pe[keep]
        powers.append(pe)
        bases.append(p)
        pe = pe * p
    powers = np.concatenate(powers)
    bases = np.concatenate(bases)
    order = np.argsort(powers, kind="stable")
    prime_powers = powers[order]
    bases = bases[order]
    return MultiplicativeTables(
        limit=int(limit),
        lambda_support=LambdaSupport(prime_powers, bases),
        mobius=mobius,
        phi=phi,
        smallest_prime_factor=spf,
        prime_powers=prime_powers,
        prime_power_logs=np.log(bases.astype(np.float64)),
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
    """Binary cache: magic, limit (8-byte LE), CRC32 of the records (4-byte
    LE), then the per-entry records."""
    records = np.empty(tables.limit + 1, dtype=CACHE_ENTRY_DTYPE)
    records["spf"] = tables.smallest_prime_factor
    records["mobius"] = tables.mobius
    records["phi"] = tables.phi.astype(np.uint32)
    raw = records.tobytes()
    with open(path, "wb") as fh:
        fh.write(CACHE_MAGIC)
        fh.write(CACHE_HEADER.pack(tables.limit, zlib.crc32(raw)))
        fh.write(raw)


def load_tables(path: str) -> MultiplicativeTables:
    """Read a ``save_tables`` cache; raises ValueError on a wrong magic or
    length, a CRC mismatch, or records that are not a valid sieve."""
    with open(path, "rb") as fh:
        magic = fh.read(len(CACHE_MAGIC))
        if magic != CACHE_MAGIC:
            raise ValueError(f"bad cache magic {magic!r}")
        header = fh.read(CACHE_HEADER.size)
        if len(header) != CACHE_HEADER.size:
            raise ValueError("cache header truncated")
        limit, crc = CACHE_HEADER.unpack(header)
        raw = fh.read()
    if len(raw) != (limit + 1) * CACHE_ENTRY_DTYPE.itemsize:
        raise ValueError("cache truncated or corrupt")
    if zlib.crc32(raw) != crc:
        raise ValueError("cache checksum mismatch")
    records = np.frombuffer(raw, dtype=CACHE_ENTRY_DTYPE)
    spf = records["spf"].copy()
    mobius = records["mobius"].copy()
    phi = records["phi"].astype(np.int64)
    if np.any((mobius < -1) | (mobius > 1)):
        raise ValueError("cache mobius value outside {-1, 0, 1}")
    n = np.arange(limit + 1, dtype=np.uint32)
    if np.any((spf[2:] < 2) | (spf[2:] > n[2:])) or np.any(n[2:] % spf[2:]):
        raise ValueError("cache smallest prime factor table is invalid")
    return _assemble(limit, spf, mobius, phi, n[2:][spf[2:] == n[2:]])
