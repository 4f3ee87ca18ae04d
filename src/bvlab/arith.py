"""Exact sieves and multiplicative functions: the arithmetic substrate.

Tables are built once, frozen, and shared; every downstream sum (Chebyshev
psi, character-twisted sums, Heath-Brown reconstruction) reads from them.
The von Mangoldt support is stored as the sorted prime powers with their
exact base primes, and the weights log p are taken once, into
``prime_power_logs``. ``MultiplicativeTables.jumps`` is the one reader of
those weights, and it refuses any range beyond the table. No Euler-phi
table is sieved: phi(q) enters only the main term x/phi(q), once per
modulus, and ``characters.euler_phi`` supplies it.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass, field
from math import gcd
from typing import TYPE_CHECKING

from .characters import factorize

if TYPE_CHECKING:
    import numpy as np

DEFAULT_LIMIT_CEILING = 10**8

CACHE_MAGIC = b"BVML3"
# header after the magic: limit uint64 LE, CRC32 of the records uint32 LE;
# then one record per n in [0, limit]:
#   smallest_prime_factor uint32, mobius int8
CACHE_HEADER = struct.Struct("<QI")
# numpy structured-dtype fields, made a dtype only where a cache is read or
# written, so importing this module does not load numpy
CACHE_ENTRY_FIELDS = [("spf", "<u4"), ("mobius", "i1")]


class LimitError(ValueError):
    """Requested sieve limit outside the configured range."""


@dataclass(frozen=True)
class MultiplicativeTables:
    """Sieved arithmetic functions up to ``limit`` (inclusive).

    ``prime_powers`` holds every n = p^e <= limit in ascending order,
    ``prime_power_bases`` the exact prime p of each and
    ``prime_power_logs`` its weight Lambda(n) = log p; read them through
    ``jumps``. ``mobius`` and ``smallest_prime_factor`` are exact integer
    arrays indexed by n. Immutable after construction.
    """

    limit: int
    mobius: np.ndarray
    smallest_prime_factor: np.ndarray
    prime_powers: np.ndarray = field(repr=False)
    prime_power_bases: np.ndarray = field(repr=False)
    prime_power_logs: np.ndarray = field(repr=False)

    def jumps(self, y: float) -> tuple[np.ndarray, np.ndarray]:
        """The jump points of psi up to y (the prime powers n <= y,
        ascending) and their weights Lambda(n); ValueError if y > limit."""
        import numpy as np
        if y > self.limit:
            raise ValueError(f"y={y} exceeds the table limit {self.limit}")
        k = int(np.searchsorted(self.prime_powers, y, side="right"))
        return self.prime_powers[:k], self.prime_power_logs[:k]

    def von_mangoldt(self, n: int) -> float:
        pp, logs = self.jumps(n)
        return float(logs[-1]) if len(pp) and pp[-1] == n else 0.0

    def von_mangoldt_upto(self, y: float) -> np.ndarray:
        """Dense Lambda(m) for 0 <= m <= floor(y); ValueError if y > limit."""
        import numpy as np
        pp, logs = self.jumps(y)
        lam = np.zeros(int(y) + 1)
        lam[pp] = logs
        return lam

    def is_prime(self, n: int) -> bool:
        if n > self.limit:
            raise ValueError(f"n={n} outside table range [1, {self.limit}]")
        return n >= 2 and int(self.smallest_prime_factor[n]) == n

    def primes(self) -> np.ndarray:
        import numpy as np
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
    """Sieve smallest prime factors, mobius and Lambda-support up to limit."""
    import numpy as np
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
    # sqrt(limit) that divides n, whose sign mobius takes at the end.
    mobius = np.ones(limit + 1, dtype=np.int8)
    mobius[0] = 0
    rem = n
    for p in primes[: int(np.searchsorted(primes, root, side="right"))].tolist():
        mobius[p::p] *= -1
        mobius[p * p :: p * p] = 0
        pe = p
        while pe <= limit:
            rem[pe::pe] //= p
            pe *= p
    rem[0] = 1
    np.negative(mobius, out=mobius, where=rem > 1)

    return _assemble(limit, spf, mobius, primes)


def _assemble(limit: int, spf: np.ndarray, mobius: np.ndarray,
              primes: np.ndarray) -> MultiplicativeTables:
    """Tables from the sieved arrays: adds the sorted prime powers p^e <= limit,
    their base primes and the base logs."""
    import numpy as np
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
        mobius=mobius,
        smallest_prime_factor=spf,
        prime_powers=prime_powers,
        prime_power_bases=bases,
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
    if kind not in ("primes", "prime-powers"):
        raise ValueError(f"unknown moduli kind {kind!r}")
    members = []
    for q in range(Q, 2 * Q):
        f = factorize(q)
        # one prime factor: q = p^e, and a prime when e = 1
        if len(f) == 1 and (kind == "prime-powers" or f[0][1] == 1):
            members.append(q)
    return ModuliSet(Q=Q, members=members, kind=kind)


def save_tables(tables: MultiplicativeTables, path: str) -> None:
    """Binary cache: magic, limit (8-byte LE), CRC32 of the records (4-byte
    LE), then the per-entry records."""
    import numpy as np
    records = np.empty(tables.limit + 1, dtype=np.dtype(CACHE_ENTRY_FIELDS))
    records["spf"] = tables.smallest_prime_factor
    records["mobius"] = tables.mobius
    raw = records.tobytes()
    with open(path, "wb") as fh:
        fh.write(CACHE_MAGIC)
        fh.write(CACHE_HEADER.pack(tables.limit, zlib.crc32(raw)))
        fh.write(raw)


def load_tables(path: str) -> MultiplicativeTables:
    """Read a ``save_tables`` cache; raises ValueError on a wrong magic or
    length, a CRC mismatch, or records that are not a valid sieve."""
    import numpy as np
    with open(path, "rb") as fh:
        magic = fh.read(len(CACHE_MAGIC))
        if magic != CACHE_MAGIC:
            raise ValueError(f"bad cache magic {magic!r}")
        header = fh.read(CACHE_HEADER.size)
        if len(header) != CACHE_HEADER.size:
            raise ValueError("cache header truncated")
        limit, crc = CACHE_HEADER.unpack(header)
        raw = fh.read()
    entry = np.dtype(CACHE_ENTRY_FIELDS)
    if len(raw) != (limit + 1) * entry.itemsize:
        raise ValueError("cache truncated or corrupt")
    if zlib.crc32(raw) != crc:
        raise ValueError("cache checksum mismatch")
    records = np.frombuffer(raw, dtype=entry)
    spf = records["spf"].copy()
    mobius = records["mobius"].copy()
    if np.any((mobius < -1) | (mobius > 1)):
        raise ValueError("cache mobius value outside {-1, 0, 1}")
    n = np.arange(limit + 1, dtype=np.uint32)
    if np.any((spf[2:] < 2) | (spf[2:] > n[2:])) or np.any(n[2:] % spf[2:]):
        raise ValueError("cache smallest prime factor table is invalid")
    return _assemble(limit, spf, mobius, n[2:][spf[2:] == n[2:]])
