"""Exact sieves and multiplicative functions: the arithmetic substrate.

Tables are built once, frozen, and shared; every downstream sum (Chebyshev
psi, character-twisted sums, Heath-Brown reconstruction) reads from them.
Nothing is cached on disk: each caller sieves the range it reads, so every
table comes from the sieve below.
The primes are sieved over the odd numbers only, one bool per odd number
(entry i stands for 2i + 1), segment by segment (``SEGMENT`` entries at a
time, so the strided stores of the odd primes <= sqrt(limit) stay in
cache), and the primes <= sqrt(limit) come from the same sieve run on
sqrt(limit). That mask, an eighth of the table's span in bytes, is the
only scratch array as long as the table, and the tables do not keep it.
They keep the primes, and the von Mangoldt support as the sorted prime
powers, with the weights log p of their base primes taken once, into
``prime_power_logs``: the few powers p^e with e >= 2 are merged into the
primes in place of a sort of the whole support.
``MultiplicativeTables.jumps`` is the one reader of those weights, and it
refuses any range beyond the table. No Mobius table is kept:
``MultiplicativeTables.mobius_upto(y)`` sieves [0, y] on each call with
the tables' own primes p <= sqrt(y), so the odd-only sieve is the only
sieve here: each p negates mu on its multiples and zeroes it on those of
p^2, and the one prime factor above sqrt(y) that a squarefree m <= y can
have is counted by a last negation where m is not yet divided down to 1.
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
# entries per block of the odd-only prime sieve's stores
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
        # an integer key: a float one would make a float copy of the table;
        # -inf has no floor
        k = int(np.searchsorted(self.prime_powers, math.floor(y), side="right")) if y >= 0 else 0
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
        [0, floor(y)] only, from the primes p <= sqrt(y) of ``primes``:
        each negates mu on the multiples of p, divides their cofactor
        (m at the start) by p once and zeroes mu on the multiples of p^2.
        A squarefree m <= y has at most one prime factor above sqrt(y),
        and it is exactly what is left of the cofactor when that is > 1,
        so one last negation there counts it; where m is not squarefree,
        mu is already 0 and stays 0."""
        import numpy as np
        if not y <= self.limit:
            raise ValueError(f"y={y} exceeds the table limit {self.limit}")
        if y < 0:
            return np.zeros(0, dtype=np.int8)
        n = math.floor(y)
        mobius = np.ones(n + 1, dtype=np.int8)
        mobius[0] = 0
        cofactor = np.arange(n + 1, dtype=np.uint32)
        primes = self.primes
        for p in primes[: int(np.searchsorted(primes, math.isqrt(n), side="right"))].tolist():
            mobius[p::p] *= -1
            cofactor[p::p] //= p
            mobius[p * p :: p * p] = 0
        np.negative(mobius, out=mobius, where=cofactor > 1)
        return mobius


def build_tables(limit: int) -> MultiplicativeTables:
    """Sieve the primes and the Lambda support up to limit: the sorted
    prime powers p^e <= limit and the logs of their base primes."""
    import numpy as np
    if limit < 2 or limit > DEFAULT_LIMIT_CEILING:
        raise LimitError(f"limit must be in [2, {DEFAULT_LIMIT_CEILING}], got {limit}")
    primes = _primes_upto(limit)
    # the powers p^e <= limit with e >= 2, of the primes p <= sqrt(limit)
    p = primes[: int(np.searchsorted(primes, math.isqrt(limit), side="right"))]
    powers, bases = [p[:0]], [p[:0]]
    pe = p * p
    while p.size:
        keep = pe <= limit
        p, pe = p[keep], pe[keep]
        powers.append(pe)
        bases.append(p)
        pe = pe * p
    powers = np.concatenate(powers)
    order = np.argsort(powers)
    powers, bases = powers[order], np.concatenate(bases)[order]
    # each power goes in before the least prime above it; powers are
    # never prime, so the merge is strictly increasing
    at = np.searchsorted(primes, powers)
    logs = np.insert(primes.astype(np.float64), at, bases.astype(np.float64))
    return MultiplicativeTables(
        limit=int(limit),
        primes=primes,
        prime_powers=np.insert(primes, at, powers),
        prime_power_logs=np.log(logs, out=logs),
    )


def _primes_upto(limit: int) -> np.ndarray:
    """The primes <= limit, ascending, as an intp array.

    One bool per odd number, entry i for 2i + 1. Each SEGMENT of entries
    takes the strided stores of the odd primes p <= sqrt(limit) that reach
    it: from p^2, at entry (p^2 - 1) / 2, every p-th entry is the next odd
    multiple of p. Those primes come from this same routine on
    sqrt(limit). The entries still set are the odd primes."""
    import numpy as np
    odd = np.ones((limit + 1) // 2 if limit >= 2 else 0, dtype=bool)
    root = math.isqrt(limit)
    small = _primes_upto(root)[1:].tolist() if root >= 3 else []
    for lo in range(0, len(odd), SEGMENT):
        hi = min(lo + SEGMENT, len(odd))
        segment = odd[lo:hi]
        for p in small[: bisect.bisect_right(small, math.isqrt(2 * hi - 1))]:
            # the first entry >= lo that is an odd multiple of p, or p^2
            start = max(p * p // 2, lo + (p // 2 - lo) % p)
            segment[start - lo :: p] = False
    # entry 0 (the number 1) is still set and holds the place of 2
    primes = np.flatnonzero(odd)
    primes *= 2
    primes += 1
    primes[:1] = 2
    return primes


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
