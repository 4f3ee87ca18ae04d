"""Dirichlet characters mod q with exact integer-turn values.

(Z/q)^* is the product of one component (Z/p^e)^* per prime power p^e
exactly dividing q. Each component is a product of cyclic factors with
fixed generators: the smallest primitive root for odd p; none mod 2, 3
mod 4, and the pair (2^e - 1, 5) mod 2^e for e >= 3, lifted by CRT to
g_i mod q (g mod p^e, 1 mod q/p^e) of orders o_i. A character is stored
as its exponents c_i, chi(g_i) = e(c_i / o_i) with e(t) = exp(2 pi i t),
and chi(n) is the integer k with chi(n) = e(k / ord chi), the one
denominator. ``CharacterGroup.units()`` walks prod g_i^k_i in
lexicographic (k_i) order, and a character's turns follow the same walk
in steps of c_i ord chi / o_i mod ord chi; ``unit_root`` is the only
conversion of a turn to a complex number.

A component's conductor needs no discrete logarithm: it is 1 for the
trivial character, else the least p^j (j >= 1, j >= 2 for p = 2) with
p^(e-j) dividing the last exponent, because the units congruent to 1
mod p^j form the subgroup of order p^(e-j) of the last cyclic factor.
"""

from __future__ import annotations

import itertools
import math
from math import gcd

DEFAULT_MODULUS_CEILING = 10**6
_QUARTER_TURNS = (complex(1.0, 0.0), complex(0.0, 1.0),
                  complex(-1.0, 0.0), complex(0.0, -1.0))


def unit_root(k: int, n: int) -> complex:
    """e(k/n) = exp(2 pi i k/n), taken from the reduced fraction and exact
    at quarter turns: the one conversion of a turn to a complex number."""
    k %= n
    g = gcd(k, n)
    k, n = k // g, n // g
    if 4 % n == 0:
        return _QUARTER_TURNS[k * (4 // n)]
    angle = math.tau * k / n
    return complex(math.cos(angle), math.sin(angle))


class _Component:
    """(Z/p^e)^* as cyclic factors with the generators in the module
    docstring; the constructor is the only place that knows p = 2."""

    def __init__(self, p: int, e: int):
        self.p = p
        self.modulus = m = p**e
        if p != 2:
            self.generators: tuple[int, ...] = (_smallest_primitive_root(p, e),)
            self.orders: tuple[int, ...] = (m // p * (p - 1),)
        elif e == 1:
            self.generators, self.orders = (), ()
        elif e == 2:
            self.generators, self.orders = (3,), (2,)
        else:
            self.generators, self.orders = (m - 1, 5), (2, m // 4)
        # least modulus p^j of a non-trivial character: mod 2 there is none
        self._least_conductor = 4 if p == 2 else p

    def conductor_of(self, exps: tuple[int, ...]) -> int:
        # for p^j >= the least conductor, the units congruent to 1 mod p^j
        # form the subgroup of order p^(e-j) of the last cyclic factor, so
        # chi is trivial on them iff p^(e-j) divides the last exponent
        if not any(exps):
            return 1
        f = self._least_conductor
        while exps[-1] % (self.modulus // f):
            f *= self.p
        return f


def _lift(g: int, m: int, q: int) -> int:
    """The residue mod q that is g mod m and 1 mod q/m (CRT, m || q)."""
    r = q // m
    return 1 + r * ((g - 1) * pow(r, -1, m) % m)


def _smallest_primitive_root(p: int, e: int) -> int:
    """Smallest primitive root modulo p^e (p odd)."""
    m = p**e
    order = p ** (e - 1) * (p - 1)
    prime_factors = [r for r, _ in factorize(order)]
    for g in range(2, m):
        if g % p == 0:
            continue
        if all(pow(g, order // r, m) != 1 for r in prime_factors):
            return g
    raise ValueError(f"no primitive root mod {p}^{e}")


def _check_int(name: str, value) -> None:
    """TypeError unless value is an int (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {value!r}")


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorisation of an int n >= 1 by trial division: (p, e)
    pairs in increasing p, empty for n = 1. TypeError for a bool or any
    other type."""
    _check_int("n", n)
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def euler_phi(n: int) -> int:
    out = n
    for p, _ in factorize(n):
        out = out // p * (p - 1)
    return out


class CharacterGroup:
    """All phi(q) characters mod q, in lexicographic exponent order."""

    def __init__(self, q: int):
        if not 1 <= q <= DEFAULT_MODULUS_CEILING:
            raise ValueError(f"modulus must be in [1, {DEFAULT_MODULUS_CEILING}], got {q}")
        self.q = q
        self.components = [_Component(p, e) for p, e in factorize(q)]
        self.generators: tuple[int, ...] = tuple(
            _lift(g, comp.modulus, q) for comp in self.components for g in comp.generators
        )
        self.orders: tuple[int, ...] = tuple(
            o for comp in self.components for o in comp.orders
        )
        ends = itertools.accumulate((len(c.orders) for c in self.components), initial=0)
        self._slices = [slice(a, b) for a, b in itertools.pairwise(ends)]
        self._units: list[int] | None = None

    def units(self) -> list[int]:
        """Every unit prod g_i^k_i mod q, in the (k_i) order of
        ``characters()`` (built once, cached)."""
        if self._units is None:
            q = self.q
            units = [1 % q]
            for g, o in zip(self.generators, self.orders):
                powers = [1]
                for _ in range(o - 1):
                    powers.append(powers[-1] * g % q)
                units = [u * x % q for u in units for x in powers]
            self._units = units
        return self._units

    def characters(self) -> list["DirichletCharacter"]:
        return [
            DirichletCharacter(self, exps)
            for exps in itertools.product(*(range(o) for o in self.orders))
        ]


class DirichletCharacter:
    """A character mod q as exponent vectors over the CRT components."""

    def __init__(self, group: CharacterGroup, exponents: tuple[int, ...]):
        self.group = group
        self.q = group.q
        self.component_exponents = exponents
        self._order: int | None = None
        self._turns: list[int | None] | None = None
        self._value_cache: list[complex] | None = None

    def __repr__(self):
        return f"DirichletCharacter(q={self.q}, exponents={self.component_exponents})"

    def __eq__(self, other):
        return (
            isinstance(other, DirichletCharacter)
            and self.q == other.q
            and self.component_exponents == other.component_exponents
        )

    def __hash__(self):
        return hash((self.q, self.component_exponents))

    @property
    def order(self) -> int:
        if self._order is None:
            out = 1
            for c, o in zip(self.component_exponents, self.group.orders):
                out = math.lcm(out, o // gcd(c, o))
            self._order = out
        return self._order

    @property
    def is_real(self) -> bool:
        return self.order <= 2

    def _turn_table(self) -> list[int | None]:
        """Turns on residues 0..q-1, None off the units (built once, cached)."""
        if self._turns is None:
            order = self.order
            turns = [0]
            for c, o in zip(self.component_exponents, self.group.orders):
                steps = [k * (c * order // o) % order for k in range(o)]
                turns = [(t + s) % order for t in turns for s in steps]
            table: list[int | None] = [None] * self.q
            for u, t in zip(self.group.units(), turns):
                table[u] = t
            self._turns = table
        return self._turns

    def evaluate(self, n: int) -> int | None:
        """k with chi(n) = e(k / order), 0 <= k < order; None when (n, q) > 1."""
        return self._turn_table()[n % self.q]

    def value_table(self) -> list[complex]:
        """Complex values on residues 0..q-1 (built once, cached)."""
        if self._value_cache is None:
            order = self.order
            roots = [unit_root(j, order) for j in range(order)]
            self._value_cache = [0j if k is None else roots[k]
                                 for k in self._turn_table()]
        return self._value_cache

    @property
    def conductor(self) -> int:
        f = 1
        exps = self.component_exponents
        for comp, s in zip(self.group.components, self.group._slices):
            f *= comp.conductor_of(exps[s])
        return f

    @property
    def is_primitive(self) -> bool:
        return self.conductor == self.q


def character_group(q: int) -> list[DirichletCharacter]:
    """Exactly phi(q) characters, the principal character first."""
    return CharacterGroup(q).characters()


def primitive_count(q: int) -> int:
    """Number of primitive characters mod q: sum over d|q of mu(d)*phi(q/d),
    taken as its multiplicative closed form, the product over p^e || q of
    p - 2 for e = 1 and p^(e-2) (p - 1)^2 for e >= 2."""
    if q < 1:
        raise ValueError("q must be positive")
    out = 1
    for p, e in factorize(q):
        out *= p - 2 if e == 1 else p ** (e - 2) * (p - 1) ** 2
    return out
