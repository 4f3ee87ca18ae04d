"""Exact sieves and multiplicative functions: the arithmetic substrate.

Tables are built once, frozen, and shared; every downstream sum (Chebyshev
psi, character-twisted sums, Heath-Brown reconstruction) reads from them.
Nothing is cached on disk: each caller sieves the range it reads, so every
table comes from the sieve below.
The smallest prime factors are sieved segment by segment (``SEGMENT``
entries at a time, so the strided stores of the primes <= sqrt(limit) stay
in cache), and the primes <= sqrt(limit) come from the same sieve run on
sqrt(limit). The smallest prime factors and the mask that picks out the
primes are the only scratch arrays as long as the table; the tables keep
neither. They keep the primes, and the von Mangoldt support as the sorted
prime powers, with the weights log p of their base primes taken once, into
``prime_power_logs``.
``MultiplicativeTables.jumps`` is the one reader of those weights, and it
refuses any range beyond the table. No Mobius table is kept:
``MultiplicativeTables.mobius_upto(y)`` sieves [0, y] on each call, from
lambda(n) = -lambda(n / spf(n)) zeroed on the multiples of each p^2.
No Euler-phi table is sieved: phi(q) enters only the main term x/phi(q),
once per modulus, and ``characters.euler_phi`` supplies it.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from math import gcd
from typing import TYPE_CHECKING

from .characters import factorize

if TYPE_CHECKING:
    import numpy as np

DEFAULT_LIMIT_CEILING = 10**8
# entries per block of the least-prime-factor stores and the Liouville walk
SEGMENT = 1 << 18


class LimitError(ValueError):
    """Requested sieve limit outside the configured range."""


@dataclass(frozen=True)
class MultiplicativeTables:
    """Sieved arithmetic functions up to ``limit`` (inclusive).

    ``prime_powers`` holds every n = p^e <= limit in ascending order and
    ``prime_power_logs`` its weight Lambda(n) = log p; read them through
    ``jumps``. ``primes`` holds the primes <= limit, ascending. Mobius is
    not held: ``mobius_upto`` sieves it on the range asked for. Immutable
    after construction.
    """

    limit: int
    primes: np.ndarray
    prime_powers: np.ndarray = field(repr=False)
    prime_power_logs: np.ndarray = field(repr=False)

    def jumps(self, y: float) -> tuple[np.ndarray, np.ndarray]:
        """The jump points of psi up to y (the prime powers n <= y,
        ascending) and their weights Lambda(n); ValueError if y > limit
        or y is NaN."""
        import numpy as np
        if not y <= self.limit:
            raise ValueError(f"y={y} exceeds the table limit {self.limit}")
        k = int(np.searchsorted(self.prime_powers, y, side="right"))
        return self.prime_powers[:k], self.prime_power_logs[:k]

    def von_mangoldt_upto(self, y: float) -> np.ndarray:
        """Dense Lambda(m) for 0 <= m <= floor(y), empty for y < 0;
        ValueError if y > limit or y is NaN."""
        import numpy as np
        pp, logs = self.jumps(y)
        lam = np.zeros(math.floor(y) + 1 if y >= 0 else 0)
        lam[pp] = logs
        return lam

    def mobius_upto(self, y: float) -> np.ndarray:
        """Dense int8 mu(m) for 0 <= m <= floor(y), empty for y < 0;
        ValueError if y > limit or y is NaN. Sieved on each call over
        [0, floor(y)] only."""
        import numpy as np
        if not y <= self.limit:
            raise ValueError(f"y={y} exceeds the table limit {self.limit}")
        if y < 0:
            return np.zeros(0, dtype=np.int8)
        n = math.floor(y)
        spf, primes = _least_prime_factors(n)
        # Liouville lambda(m) = -lambda(m / spf(m)); a block [lo, hi) with
        # hi <= 2 lo reads only m / spf(m) <= m / 2 < lo, already filled.
        mobius = np.zeros(n + 1, dtype=np.int8)
        mobius[1:2] = 1
        lo = 2
        while lo <= n:
            hi = min(2 * lo, lo + SEGMENT, n + 1)
            cofactor = np.arange(lo, hi, dtype=np.uint32) // spf[lo:hi]
            np.negative(mobius[cofactor], out=mobius[lo:hi])
            lo = hi
        # mu is lambda off the multiples of a square p^2
        for p in primes[: int(np.searchsorted(primes, math.isqrt(n), side="right"))].tolist():
            mobius[p * p :: p * p] = 0
        return mobius


def build_tables(limit: int) -> MultiplicativeTables:
    """Sieve the primes and the Lambda support up to limit: the sorted
    prime powers p^e <= limit and the logs of their base primes."""
    import numpy as np
    if limit < 2 or limit > DEFAULT_LIMIT_CEILING:
        raise LimitError(f"limit must be in [2, {DEFAULT_LIMIT_CEILING}], got {limit}")
    primes = _least_prime_factors(limit)[1]
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
    return MultiplicativeTables(
        limit=int(limit),
        primes=primes,
        prime_powers=powers[order],
        prime_power_logs=np.log(bases[order].astype(np.float64)),
    )


def _least_prime_factors(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """The uint32 smallest prime factors of 0..limit (0 at 0 and 1) and the
    primes <= limit, ascending.

    Each SEGMENT of the table takes the strided stores spf[p^2 ::p] = p of
    the primes p <= sqrt(limit) that reach it, largest p first, so the
    least prime factor is written last; those primes come from this same
    routine on sqrt(limit). The entries >= 2 still 0 are the primes."""
    import numpy as np
    spf = np.zeros(limit + 1, dtype=np.uint32)
    root = math.isqrt(limit)
    small = _least_prime_factors(root)[1].tolist() if root >= 2 else []
    for lo in range(0, limit + 1, SEGMENT):
        hi = min(lo + SEGMENT, limit + 1)
        segment = spf[lo:hi]
        for p in reversed(small[: bisect.bisect_right(small, math.isqrt(hi - 1))]):
            start = max(p * p, -(-lo // p) * p)
            segment[start - lo :: p] = p
    primes = np.flatnonzero(spf[2:] == 0) + 2
    spf[primes] = primes
    return spf, primes


@dataclass(frozen=True)
class ModuliSet:
    """Pairwise relatively prime moduli in [Q, 2Q)."""

    Q: int
    members: list[int]

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
        return ModuliSet(Q=Q, members=sorted(custom))
    if kind not in ("primes", "prime-powers"):
        raise ValueError(f"unknown moduli kind {kind!r}")
    members = []
    for q in range(Q, 2 * Q):
        f = factorize(q)
        # one prime factor: q = p^e, and a prime when e = 1
        if len(f) == 1 and (kind == "prime-powers" or f[0][1] == 1):
            members.append(q)
    return ModuliSet(Q=Q, members=members)
