"""Dirichlet characters mod q with exact root-of-unity values.

A character is stored as exponents relative to fixed generators of the
cyclic factors of (Z/q)^*: the smallest primitive root for odd prime
powers, and the pair (-1, 5) for 2^e with e >= 3. Values are exact
fractions of a turn; conversion to complex happens only at the outermost
summation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

DEFAULT_MODULUS_CEILING = 10**6
_QUARTER_TURNS = (complex(1.0, 0.0), complex(0.0, 1.0),
                  complex(-1.0, 0.0), complex(0.0, -1.0))


@dataclass(frozen=True)
class RootOfUnity:
    """exp(2*pi*i * numerator/denominator), or 0 when zero_flag is set."""

    numerator: int
    denominator: int
    zero_flag: bool = False

    @staticmethod
    def of(num: int, den: int) -> "RootOfUnity":
        if den <= 0:
            raise ValueError("denominator must be positive")
        num %= den
        g = gcd(num, den)
        return RootOfUnity(num // g, den // g)

    @staticmethod
    def one() -> "RootOfUnity":
        return RootOfUnity(0, 1)

    @staticmethod
    def zero() -> "RootOfUnity":
        return RootOfUnity(0, 1, zero_flag=True)

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        if self.zero_flag or other.zero_flag:
            return RootOfUnity.zero()
        den = self.denominator * other.denominator
        num = self.numerator * other.denominator + other.numerator * self.denominator
        return RootOfUnity.of(num, den)

    def conjugate(self) -> "RootOfUnity":
        if self.zero_flag:
            return self
        return RootOfUnity.of(-self.numerator, self.denominator)

    def to_complex(self) -> complex:
        if self.zero_flag:
            return 0j
        if 4 % self.denominator == 0:  # exact at quarter turns
            return _QUARTER_TURNS[self.numerator * (4 // self.denominator) % 4]
        angle = math.tau * self.numerator / self.denominator
        return complex(math.cos(angle), math.sin(angle))

    @property
    def is_one(self) -> bool:
        return not self.zero_flag and self.numerator == 0


class _OddComponent:
    """Cyclic component (Z/p^e)^* for odd p, generated by the smallest
    primitive root."""

    def __init__(self, p: int, e: int):
        self.p = p
        self.e = e
        self.modulus = p**e
        self.order_total = p ** (e - 1) * (p - 1)
        self.orders = (self.order_total,)
        self.generator = _smallest_primitive_root(p, e)
        self._dlog: dict[int, int] | None = None

    def dlog_table(self) -> dict[int, int]:
        if self._dlog is None:
            table = {}
            g, m = self.generator, self.modulus
            r = 1
            for k in range(self.order_total):
                table[r] = k
                r = r * g % m
            self._dlog = table
        return self._dlog

    def dlogs(self, r: int) -> tuple[int, ...]:
        return (self.dlog_table()[r],)

    def kernel_divisors(self) -> list[int]:
        return [self.p**j for j in range(self.e + 1)]

    def conductor_of(self, exps: tuple[int, ...]) -> int:
        # test each divisor p^j in increasing order: the character is
        # trivial on the reduction kernel iff it kills the kernel's
        # generator g^{phi(p^j)}
        (c,) = exps
        d = self.order_total
        for j in range(self.e + 1):
            phi_j = 1 if j == 0 else self.p ** (j - 1) * (self.p - 1)
            if (c * phi_j) % d == 0:
                return self.p**j
        raise AssertionError("unreachable: j = e always succeeds")

    def induced_exponents(self, exps: tuple[int, ...], f_comp: "_OddComponent") -> tuple[int, ...]:
        # exponent of the inducing character: evaluate at the smaller
        # modulus' generator (coprime to p, so it lifts as itself)
        (c,) = exps
        k = self.dlog_table()[f_comp.generator % self.modulus]
        t = (c * k) % self.order_total
        d_new = f_comp.order_total
        assert (t * d_new) % self.order_total == 0
        return ((t * d_new) // self.order_total,)


class _TwoComponent:
    """Component at p = 2: trivial (e=1), cyclic of order 2 (e=2), or
    generated by the pair (-1, 5) for e >= 3."""

    def __init__(self, e: int):
        self.p = 2
        self.e = e
        self.modulus = 2**e
        if e == 1:
            self.orders: tuple[int, ...] = ()
        elif e == 2:
            self.orders = (2,)
            self.generator = 3
        else:
            self.orders = (2, 2 ** (e - 2))
        self._dlog: dict[int, tuple[int, ...]] | None = None

    def dlog_table(self) -> dict[int, tuple[int, ...]]:
        if self._dlog is None:
            m = self.modulus
            table: dict[int, tuple[int, ...]] = {}
            if self.e == 1:
                table[1] = ()
            elif self.e == 2:
                table[1] = (0,)
                table[3] = (1,)
            else:
                half = 2 ** (self.e - 2)
                r = 1
                for b in range(half):
                    table[r] = (0, b)
                    table[(-r) % m] = (1, b)
                    r = r * 5 % m
            self._dlog = table
        return self._dlog

    def dlogs(self, r: int) -> tuple[int, ...]:
        return self.dlog_table()[r]

    def conductor_of(self, exps: tuple[int, ...]) -> int:
        if self.e == 1:
            return 1
        if self.e == 2:
            return 1 if exps[0] == 0 else 4
        a, b = exps
        half = 2 ** (self.e - 2)
        # divisors 1, 2, 4, 8, ... in increasing order; kernel of the
        # reduction to 2^j is generated by -1, 5 restrictions
        for j in range(self.e + 1):
            if j <= 1:
                trivial = a == 0 and b == 0
            elif j == 2:
                trivial = b % half == 0
            else:
                trivial = (b * 2 ** (j - 2)) % half == 0
            if trivial:
                return 1 if j <= 1 else 2**j
        raise AssertionError("unreachable")

    def induced_exponents(self, exps: tuple[int, ...], f_comp: "_TwoComponent") -> tuple[int, ...]:
        if f_comp.e == 1:
            return ()
        dl = self.dlog_table()
        out = []
        if f_comp.e == 2:
            gens = [3]
        else:
            gens = [self.modulus - 1, 5]  # lifts of -1 and 5
        for g_val, d_new in zip(gens, f_comp.orders):
            ks = dl[g_val % self.modulus]
            t_num, t_den = 0, 1
            for c, k, o in zip(exps, ks, self.orders):
                t_num = t_num * o + c * k * t_den
                t_den *= o
            t_num %= t_den
            assert (t_num * d_new) % t_den == 0
            out.append((t_num * d_new) // t_den)
        return tuple(out)


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


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorisation of n >= 1 by trial division: (p, e) pairs in
    increasing p, empty for n = 1."""
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


def mobius(n: int) -> int:
    out = 1
    for _, e in factorize(n):
        if e > 1:
            return 0
        out = -out
    return out


class CharacterGroup:
    """All phi(q) characters mod q, in lexicographic exponent order."""

    def __init__(self, q: int, ceiling: int = DEFAULT_MODULUS_CEILING):
        if not 1 <= q <= ceiling:
            raise ValueError(f"modulus must be in [1, {ceiling}], got {q}")
        self.q = q
        self.components: list[_OddComponent | _TwoComponent] = []
        for p, e in factorize(q):
            if p == 2:
                self.components.append(_TwoComponent(e))
            else:
                self.components.append(_OddComponent(p, e))
        self.orders: tuple[int, ...] = tuple(
            o for comp in self.components for o in comp.orders
        )
        self._slices: list[slice] = []
        pos = 0
        for comp in self.components:
            n = len(comp.orders)
            self._slices.append(slice(pos, pos + n))
            pos += n

    @property
    def phi(self) -> int:
        out = 1
        for o in self.orders:
            out *= o
        return out

    def characters(self) -> list["DirichletCharacter"]:
        return [
            DirichletCharacter(self, exps)
            for exps in itertools.product(*(range(o) for o in self.orders))
        ]

    def component_exponents(self, exps: tuple[int, ...]) -> list[tuple[int, ...]]:
        return [tuple(exps[s]) for s in self._slices]


class DirichletCharacter:
    """A character mod q as exponent vectors over the CRT components."""

    def __init__(self, group: CharacterGroup, exponents: tuple[int, ...]):
        self.group = group
        self.q = group.q
        self.component_exponents = exponents
        self._conductor: int | None = None
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
    def is_principal(self) -> bool:
        return all(c == 0 for c in self.component_exponents)

    @property
    def order(self) -> int:
        out = 1
        for c, o in zip(self.component_exponents, self.group.orders):
            out = math.lcm(out, o // gcd(c, o))
        return out

    @property
    def is_real(self) -> bool:
        return self.order <= 2

    def evaluate(self, n: int) -> RootOfUnity:
        r = n % self.q
        if gcd(r, self.q) != 1:
            return RootOfUnity.zero()
        num, den = 0, 1
        exps = self.component_exponents
        for comp, s in zip(self.group.components, self.group._slices):
            ks = comp.dlogs(r % comp.modulus)
            for c, k, o in zip(exps[s], ks, comp.orders):
                num = num * o + c * k * den
                den *= o
        return RootOfUnity.of(num, den)

    def __call__(self, n: int) -> RootOfUnity:
        return self.evaluate(n)

    def value_table(self) -> list[complex]:
        """Complex values on residues 0..q-1 (built once, cached)."""
        if self._value_cache is None:
            self._value_cache = [self.evaluate(r).to_complex() if gcd(r, self.q) == 1
                                 else 0j for r in range(self.q)]
        return self._value_cache

    @property
    def conductor(self) -> int:
        if self._conductor is None:
            f = 1
            for comp, ce in zip(
                self.group.components,
                self.group.component_exponents(self.component_exponents),
            ):
                f *= comp.conductor_of(ce)
            self._conductor = f
        return self._conductor

    @property
    def is_primitive(self) -> bool:
        return self.conductor == self.q


def character_group(q: int, ceiling: int = DEFAULT_MODULUS_CEILING) -> list[DirichletCharacter]:
    """Exactly phi(q) characters, the principal character first."""
    return CharacterGroup(q, ceiling=ceiling).characters()


def conductor_and_primitivity(
    chi: DirichletCharacter,
) -> tuple[int, bool, DirichletCharacter]:
    """Conductor, primitivity flag, and the inducing primitive character."""
    f = chi.conductor
    f_group = CharacterGroup(f)
    new_exps: list[int] = []
    f_comps = {comp.p: comp for comp in f_group.components}
    for comp, ce in zip(
        chi.group.components, chi.group.component_exponents(chi.component_exponents)
    ):
        f_comp = f_comps.get(comp.p)
        if f_comp is None:
            continue  # component conductor 1: drops out entirely
        new_exps.extend(comp.induced_exponents(ce, f_comp))
    inducing = DirichletCharacter(f_group, tuple(new_exps))
    assert inducing.conductor == f
    return f, f == chi.q, inducing


@lru_cache(maxsize=None)
def primitive_count(q: int) -> int:
    """Number of primitive characters mod q: sum over d|q of mu(d)*phi(q/d)."""
    if q < 1:
        raise ValueError("q must be positive")
    total = 0
    for d in range(1, q + 1):
        if q % d:
            continue
        total += mobius(d) * euler_phi(q // d)
    return total

