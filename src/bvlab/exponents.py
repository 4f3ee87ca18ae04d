"""Exact exponent bookkeeping for the case analysis.

No floating point anywhere. Exponent tuples record the logarithmic sizes
of the dyadic factors (N_j = x^(u_j)), the moduli range (Q = x^theta) and
the height (T = x^tau). The constructive partition routine splits the
eight factor exponents into two or three groups whose combined
Dirichlet-polynomial bounds certify the target T^(39/40) x^(1/2) exponent
shape on a grid.

The partition and the grid scan run on integers: a tuple becomes its
numerators over one common denominator D, and a slack becomes an integer
over a common scale S. Fractions appear only at the edges, in the inputs,
the certificate strings, ``case_bounds`` and the reported worst case.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction as F
from itertools import combinations

THETA_MAX = F(9, 40)
DELTA = F(1, 20)
ALLOWED_GRID_STEPS = (F(1, 8), F(1, 16), F(1, 40), F(1, 80))

# the certified exponent target: combined <= (39/40) tau + 1/2
TARGET_X = F(1, 2)
TARGET_T = F(39, 40)

_ALL = frozenset(range(8))


def validate_exponents(u) -> tuple[int, tuple[int, ...]]:
    """The one input check on an exponent tuple. Returns (D, a): D is the
    lcm of the denominators and a holds the integer numerators over D."""
    u = [x if isinstance(x, (int, F)) else F(x) for x in u]
    dens = [x.denominator for x in u]
    D = math.lcm(*dens)
    a = tuple([x.numerator * (D // d) for x, d in zip(u, dens)])
    if min(a, default=0) < 0:
        raise ValueError("exponents must be nonnegative")
    if list(a) != sorted(a, reverse=True):
        raise ValueError("exponents must be nonincreasing")
    if sum(a) > D:
        raise ValueError("exponent sum must be at most 1")
    return D, a


@dataclass(frozen=True, slots=True)
class PartitionOutcome:
    """A certified split of the eight indices (0-based).

    Variant A: singleton i plus two groups of size <= 5, singleton
    exponent outside the open difficult interval (9/40, 1/4), group sums
    <= 9/20. Variant B: two groups of size <= 6 with sums <= 11/20.
    """

    variant: str  # "A" | "B"
    A1: frozenset[int]
    A2: frozenset[int]
    i: int | None = None
    certificate: tuple[tuple[str, str], ...] = ()

    def verify(self, u: tuple[F, ...]) -> None:
        """AssertionError unless the split meets its variant's constraints."""
        self._verify_scaled(*validate_exponents(u))

    def _verify_scaled(self, D: int, a: tuple[int, ...]) -> None:
        """``verify`` on the numerators a over D, in integer comparisons."""
        s1 = sum([a[j] for j in self.A1])
        s2 = sum([a[j] for j in self.A2])
        if self.variant == "B":
            if self.i is not None:
                raise AssertionError("variant B carries no singleton")
            if self.A1 | self.A2 != _ALL or self.A1 & self.A2:
                raise AssertionError("groups must partition {0..7}")
            if max(len(self.A1), len(self.A2)) > 6:
                raise AssertionError("variant B group size exceeds 6")
            if 20 * s1 > 11 * D or 20 * s2 > 11 * D:
                raise AssertionError("variant B group sum exceeds 11/20")
        elif self.variant == "A":
            if self.i is None:
                raise AssertionError("variant A needs a singleton index")
            parts = self.A1 | self.A2 | {self.i}
            if parts != _ALL or self.A1 & self.A2 \
                    or self.i in self.A1 or self.i in self.A2:
                raise AssertionError("singleton and groups must partition {0..7}")
            if max(len(self.A1), len(self.A2)) > 5:
                raise AssertionError("variant A group size exceeds 5")
            if 9 * D < 40 * a[self.i] < 10 * D:
                raise AssertionError("singleton exponent inside (9/40, 1/4)")
            if 20 * s1 > 9 * D or 20 * s2 > 9 * D:
                raise AssertionError("variant A group sum exceeds 9/20")
        else:
            raise AssertionError(f"unknown variant {self.variant!r}")


@dataclass(frozen=True, eq=False)
class _Branch:
    """One leaf of the case dispatch: the split it yields and the tests on
    the path to it, in certificate order. Every outcome of a leaf shares
    its groups."""

    variant: str
    A1: frozenset[int]
    A2: frozenset[int]
    i: int | None
    tests: tuple[str, ...]


_HEAD5_OVER = "u1+..+u5 > 11/20"
_LEAST_K = "least k with u1+..+uk >= 9/20"
_HEAD5 = _Branch("B", frozenset(range(5)), frozenset({5, 6, 7}), None,
                 ("u1+..+u5 <= 11/20",))
_ALT_B = _Branch("B", frozenset({1, 3, 5, 7}), frozenset({0, 2, 4, 6}), None,
                 (_HEAD5_OVER, _LEAST_K, "u2+u4+u6+u8 > 9/20"))
_ALT_A = _Branch("A", frozenset({2, 4, 6}), frozenset({1, 3, 5, 7}), 0,
                 (_HEAD5_OVER, _LEAST_K, "u2+u4+u6+u8 <= 9/20"))
# by the least prefix length k reaching 9/20, for u_1 in (9/40, 1/4):
# then 2 <= k <= 5, and k >= 3 when the prefix passes 11/20, because two
# exponents below 1/4 cannot reach 11/20
_PREFIX_B = {k: _Branch("B", frozenset(range(k)), frozenset(range(k, 8)), None,
                        (_HEAD5_OVER, _LEAST_K, "u1+..+uk <= 11/20"))
             for k in range(2, 6)}
_PREFIX_A = {k: _Branch("A", frozenset({0, *range(2, k)}), frozenset(range(k, 8)), 1,
                        (_HEAD5_OVER, _LEAST_K, "u1+..+uk > 11/20"))
             for k in range(3, 6)}
_BRANCHES = (_HEAD5, _ALT_B, _ALT_A, *_PREFIX_B.values(), *_PREFIX_A.values())


def _dispatch(D: int, a: tuple[int, ...]) -> tuple[_Branch, int, int | None, int | None]:
    """The case dispatch on numerators a over D: (leaf, head5, k, s), with
    k the least prefix length reaching 9/20 and s the sum the last test
    compared; k and s are None on the head5 leaf."""
    head5 = a[0] + a[1] + a[2] + a[3] + a[4]
    if 20 * head5 <= 11 * D:
        return _HEAD5, head5, None, None
    partial = 0
    for k, x in enumerate(a, 1):
        partial += x
        if 20 * partial >= 9 * D:
            break
    assert k <= 5 and 20 * partial >= 9 * D
    if not 9 * D < 40 * a[0] < 10 * D:  # u_1 outside (9/40, 1/4)
        alt = a[1] + a[3] + a[5] + a[7]
        return (_ALT_B if 20 * alt > 9 * D else _ALT_A), head5, k, alt
    leaf = _PREFIX_B[k] if 20 * partial <= 11 * D else _PREFIX_A[k]
    return leaf, head5, k, partial


def partition_exponents(u: tuple[F, ...]) -> PartitionOutcome:
    """Constructive split, by explicit case dispatch.

    Branches: if the top five exponents sum to at most 11/20 the plain
    two-group split works; otherwise dispatch on whether u_1 lies in the
    difficult interval and on the least prefix reaching 9/20.
    """
    D, a = validate_exponents(u)
    leaf, head5, k, s = _dispatch(D, a)
    values = (str(F(head5, D)),) if k is None else (
        str(F(head5, D)), str(k), str(F(s, D)))
    out = PartitionOutcome(leaf.variant, leaf.A1, leaf.A2, leaf.i,
                           tuple(zip(leaf.tests, values)))
    out._verify_scaled(D, a)
    return out


def partition_bruteforce(u: tuple[F, ...]) -> PartitionOutcome | None:
    """Independent oracle: exhaust all admissible splits in a fixed order
    and return the first one satisfying the variant constraints.
    Integer arithmetic over a common denominator."""
    D, a = validate_exponents(u)
    total = sum(a)
    subset_sum = [0] * 256
    for mask in range(1, 256):
        low = mask & -mask
        subset_sum[mask] = subset_sum[mask ^ low] + a[low.bit_length() - 1]

    for mask in range(256):
        size = bin(mask).count("1")
        if not 2 <= size <= 6:
            continue
        s = subset_sum[mask]
        if 20 * s <= 11 * D and 20 * (total - s) <= 11 * D:
            g1 = frozenset(j for j in range(8) if mask >> j & 1)
            out = PartitionOutcome("B", g1, _ALL - g1)
            out._verify_scaled(D, a)
            return out

    for i in range(8):
        if 9 * D < 40 * a[i] < 10 * D:  # inside (9/40, 1/4)
            continue
        rest = [j for j in range(8) if j != i]
        rest_total = total - a[i]
        for size in range(2, 6):
            for combo in combinations(rest, size):
                s = sum(a[j] for j in combo)
                if 20 * s <= 9 * D and 20 * (rest_total - s) <= 9 * D:
                    g1 = frozenset(combo)
                    out = PartitionOutcome("A", g1,
                                           frozenset(rest) - g1, i=i)
                    out._verify_scaled(D, a)
                    return out
    return None


@dataclass(frozen=True)
class CaseBound:
    """One exponent bound: the quantity is at most
    T^(T_exponent) x^(x_exponent) L^(log_power) and is claimed to be
    at most T^(claim_T) x^(claim_x) up to log powers. log_power None
    marks an unspecified absolute constant."""

    case_id: str
    x_exponent: F
    T_exponent: F
    log_power: F | None
    claim_x: F
    claim_T: F

    def slack(self, tau: F) -> F:
        return (self.x_exponent + self.T_exponent * tau) - (
            self.claim_x + self.claim_T * tau
        )

    def admissible(self, taus=(F(0), F(1))) -> bool:
        return all(self.slack(t) <= 0 for t in taus)


@dataclass(frozen=True)
class _SlackForm:
    """One case bound as an affine form: the x exponent is
    const + s * 2 theta + m1 * M1 + m2 * M2 + ui * u_i + mx * max(M1, M2),
    where M1 and M2 are the group sums and u_i the singleton exponent.
    ``log`` gives the log power from b = |A2|; None marks an absolute
    constant."""

    case_id: str
    T: F
    claim_x: F
    claim_T: F
    log: Callable[[int], F] | None = None
    const: F = F(0)
    s: F = F(0)
    m1: F = F(0)
    m2: F = F(0)
    ui: F = F(0)
    mx: F = F(0)


def _log_b(b: int) -> F:
    return F((8 - b) ** 2 + b * b, 2)


# Q^2 contributes x^(2 theta); at theta = 9/40 the generic x^(9/20)
# factors appear. Case 3 takes the big group as A2, its mirror as A1.
_FORMS: dict[str, tuple[_SlackForm, ...]] = {
    "B": (
        _SlackForm("B-generic", T=F(1), claim_x=F(1, 2), claim_T=F(19, 20),
                   log=_log_b, s=F(1)),
        _SlackForm("B-generic", T=F(0), claim_x=F(1, 2), claim_T=F(0),
                   log=_log_b, const=F(1, 2)),
        _SlackForm("B-generic", T=F(1, 2), claim_x=F(1, 2), claim_T=F(1, 2),
                   log=_log_b, s=F(1, 2), mx=F(1, 2)),
    ),
    "A": (
        # trimming the triples where some grouped factor is below x^-1
        _SlackForm("A-trim", T=F(1), claim_x=F(1, 2), claim_T=F(39, 40),
                   log=lambda b: F(25) - DELTA, s=F(1)),
        _SlackForm("A-Case1", T=F(0), claim_x=F(1, 2), claim_T=F(0),
                   log=lambda b: F((7 - b) ** 2 + b * b + 10, 2),
                   m1=F(1, 2), m2=F(1, 2), ui=F(1, 2)),
        _SlackForm("A-Case2-A1", T=F(31, 32), claim_x=F(319, 640),
                   claim_T=F(31, 32), s=F(31, 32),
                   m1=F(1, 16), m2=F(1, 16), ui=F(1, 16)),
        _SlackForm("A-Case2-B1", T=F(33, 40), claim_x=F(1, 2), claim_T=F(39, 40),
                   log=lambda b: F(22) - F(3, 40), s=F(1),
                   m1=F(1, 20), m2=F(1, 20), ui=F(1, 20)),
        _SlackForm("A-Case3-A2", T=F(7, 16), claim_x=F(157, 320), claim_T=F(7, 16),
                   s=F(7, 16), m2=F(1, 2), m1=F(1, 8), ui=F(1, 8)),
        _SlackForm("A-Case3-B2", T=F(1, 2), claim_x=F(119, 240), claim_T=F(1, 2),
                   s=F(1, 2), m2=F(1, 2), m1=F(1, 12), ui=F(1, 12)),
        _SlackForm("A-Case4-mirror", T=F(7, 16), claim_x=F(157, 320),
                   claim_T=F(7, 16), s=F(7, 16), m1=F(1, 2), m2=F(1, 8), ui=F(1, 8)),
        _SlackForm("A-Case4-mirror", T=F(1, 2), claim_x=F(119, 240),
                   claim_T=F(1, 2), s=F(1, 2), m1=F(1, 2), m2=F(1, 12), ui=F(1, 12)),
    ),
}


def case_bounds(
    u: tuple[F, ...], outcome: PartitionOutcome, theta: F = THETA_MAX
) -> list[CaseBound]:
    """Exponent bounds for one tuple under its certified split, as exact
    affine forms in (u, theta, tau). The grouped-polynomial sizes enter
    as M = x^(sum over A1), N = x^(sum over A2), and Q^2 contributes
    x^(2 theta); at theta = 9/40 the generic x^(9/20) factors appear."""
    u = tuple(F(x) for x in u)
    outcome.verify(u)
    s = 2 * F(theta)  # exponent of Q^2
    m1 = sum(u[j] for j in outcome.A1)
    m2 = sum(u[j] for j in outcome.A2)
    ui = F(0) if outcome.i is None else u[outcome.i]
    b = len(outcome.A2)
    return [
        CaseBound(f.case_id,
                  f.const + f.s * s + f.m1 * m1 + f.m2 * m2 + f.ui * ui
                  + f.mx * max(m1, m2),
                  f.T, None if f.log is None else f.log(b),
                  claim_x=f.claim_x, claim_T=f.claim_T)
        for f in _FORMS[outcome.variant]
    ]


def published_fractions() -> dict[str, F]:
    """The closing fractions of the case analysis, rebuilt from the
    weighted-combination arithmetic rather than quoted as literals."""
    x920 = 2 * THETA_MAX  # exponent of Q^2 at the top of the theta range
    out: dict[str, F] = {}
    # generic two-group bound: Q^2 T = (T/x)^(1/20) T^(19/20) x^(1/2)
    out["caseB-Q2T-T"] = 1 - F(1, 20)
    assert x920 + F(1, 20) == F(1, 2)
    # weights 5/16, 5/16, 1/16, 1/16 on the four moment entries plus 1/4
    # on the min entry, min bounded to the power 1/8
    w = [F(5, 16), F(5, 16), F(1, 16), F(1, 16)]
    t_main = sum(w) + F(1, 4)
    assert t_main == 1
    out["case2-A1-T"] = t_main - F(1, 4) * F(1, 8)  # 31/32
    out["case2-A1-x"] = x920 + F(1, 16) - (x920 / 4) * F(1, 8)  # MN L <= x
    # alternative chain with min power 3/10
    out["case2-B1-T"] = F(3, 4) + F(1, 4) * F(3, 10)  # 33/40
    out["case2-B1-x"] = x920 + F(1, 20)
    # the chain collapses to x920 + 1/20 at full mass
    assert x920 + F(1, 16) + F(3, 10) * (F(1, 6) - F(1, 24)) \
        - F(3, 10) * F(1, 6) == out["case2-B1-x"]
    # three-entry chain: (x^(9/20) T N)^(1/2) M^(1/8) min^(1/4),
    # with N <= x^(9/20) and M L <= x^(11/20)
    out["case3-A2-T"] = F(1, 2) - F(1, 4) * F(1, 4)  # 7/16
    out["case3-A2-x"] = (x920 + x920) / 2 + F(11, 20) / 8 - (x920 / 4) / 4
    # same head with min bounded by (L^(1/6) M^(-1/12))^(1/2)
    out["case3-B2-T"] = F(1, 2)
    out["case3-B2-x"] = x920 + F(11, 20) / 12
    # M^(1/12) L^(1/12) <= x^(11/240)
    assert (x920 + x920) / 2 + F(11, 20) * (F(1, 8) - F(1, 24)) \
        == out["case3-B2-x"]
    return out


def case2_log_main(b: int) -> F:
    """Log power of the first Case-2 interpolation chain."""
    square_sum = (7 - b) ** 2 + b * b
    return square_sum * (F(5, 16) + F(3, 16)) + F(50, 16) + F(30, 16) + F(10, 4)


def case2_log_alt(b: int) -> F:
    """Log power of the second Case-2 interpolation chain."""
    square_sum = (7 - b) ** 2 + b * b
    return square_sum * (F(7, 16) + F(3, 48)) + F(70, 16) + F(30, 48) + F(27, 12)


def case2_log_main_termwise(b: int) -> F:
    """Same quantity assembled entry by entry (independent route)."""
    return (
        ((7 - b) ** 2 + 5) * F(5, 16)
        + (b * b + 5) * F(5, 16)
        + (3 * (7 - b) ** 2 + 15) * F(1, 16)
        + (3 * b * b + 15) * F(1, 16)
        + 10 * F(1, 4)
    )


def case2_log_alt_termwise(b: int) -> F:
    return (
        ((7 - b) ** 2 + 5) * F(7, 16)
        + (b * b + 5) * F(7, 16)
        + (3 * (7 - b) ** 2 + 15) * F(1, 48)
        + (3 * b * b + 15) * F(1, 48)
        + 27 * F(1, 12)
    )


def logpower_ledger() -> dict:
    """Exact verification of the log-power arithmetic: the two Case-2
    chains stay below 22 and 22 - 1/4 over all admissible group sizes,
    the interpolated chain lands at 22 - 3/40 <= 22 - delta, the
    two-group log power stays below 20, and the exponent chain
    8 + (26 - delta) = 34 - delta."""
    rows = []
    ok = True
    for b in (2, 3, 4, 5):  # variant A: 2 <= |A2| <= 5
        k2 = case2_log_main(b)
        k3 = case2_log_alt(b)
        ok &= k2 == case2_log_main_termwise(b)
        ok &= k3 == case2_log_alt_termwise(b)
        ok &= k2 <= 22 and k3 <= 22 - F(1, 4)
        rows.append({"b": b, "K2": str(k2), "K3": str(k3)})
    tight = {b for b in (2, 3, 4, 5) if case2_log_main(b) == 22}
    ok &= tight == {2, 5}
    interp = F(7, 10) * 22 + F(3, 10) * (22 - F(1, 4))
    ok &= interp == 22 - F(3, 40) and interp <= 22 - DELTA
    for b in range(2, 7):  # variant B: 2 <= |A2| <= 6
        ok &= F((8 - b) ** 2 + b * b, 2) <= 20
    chain = 8 + (26 - DELTA)
    ok &= chain == 34 - DELTA
    return {
        "ok": bool(ok),
        "rows": rows,
        "tight_at": sorted(tight),
        "interpolated_log": str(interp),
        "chain_total": str(chain),
    }


@dataclass
class ScanResult:
    grid_step: F
    theta: F
    tuple_count: int
    worst_slack: F
    worst_tuple: tuple[F, ...] | None
    worst_case_id: str | None
    worst_tau: F | None
    passed: bool
    violations: int = 0

    def to_json(self) -> dict:
        return {
            "grid_step": str(self.grid_step),
            "theta": str(self.theta),
            "tuple_count": self.tuple_count,
            "worst_case_id": self.worst_case_id,
            "worst_tuple": [str(x) for x in self.worst_tuple or ()],
            "worst_tau": None if self.worst_tau is None else str(self.worst_tau),
            "slack_rational_as_string": str(self.worst_slack),
            "passed": self.passed,
            "violations": self.violations,
        }


def _grid_ints(slots: int, cap: int, budget: int, prefix: tuple[int, ...] = ()):
    """Nonincreasing tuples of ``slots`` more ints in [0, cap] with sum at
    most ``budget``, after ``prefix``, in descending lexicographic order."""
    if slots == 0:
        yield prefix
        return
    for k in range(min(cap, budget), -1, -1):
        yield from _grid_ints(slots - 1, k, budget - k, prefix + (k,))


def grid_tuples(grid_step: F):
    """All nonincreasing rational 8-tuples on the grid with sum <= 1."""
    denom = int(1 / F(grid_step))
    if F(1, denom) != F(grid_step):
        raise ValueError("grid step must be a unit fraction")
    for ks in _grid_ints(8, denom, denom):
        yield tuple(F(k, denom) for k in ks)


def _scaled_rows(forms: tuple[_SlackForm, ...], S: int, D: int,
                 theta: F) -> list[tuple[int, ...]]:
    """Each form's worst slack over tau in [0, 1], times S, as integer
    coefficients (constant, M1, M2, u_i, max) on numerators over D.
    A slack is affine in tau, so its worst is at tau = 0 or tau = 1."""
    rows = []
    for f in forms:
        tau_gain = S * (f.T - f.claim_T)
        row = (S * (f.const + 2 * f.s * theta - f.claim_x) + max(tau_gain, 0),
               *(S * c / D for c in (f.m1, f.m2, f.ui, f.mx)))
        assert all(c.denominator == 1 for c in row)
        rows.append(tuple(int(c) for c in row))
    return rows


def polytope_scan(grid_step: F, theta: F = THETA_MAX) -> ScanResult:
    """Exhaustive exact certificate over the exponent grid: every case
    bound must close under its claimed exponent pair (which itself sits
    inside the global (39/40) tau + 1/2 budget) at every tau in [0, 1].

    Grid tuples are numerators over D = 1/grid_step, and every slack is an
    integer over S = lcm(1920, 240 D, 32 den(theta)), which clears the
    denominators of the claims, of the group-sum coefficients over D and
    of the theta terms."""
    grid_step = F(grid_step)
    if grid_step not in ALLOWED_GRID_STEPS:
        raise ValueError(
            f"grid_step must be one of {[str(g) for g in ALLOWED_GRID_STEPS]}"
        )
    theta = F(theta)
    D = grid_step.denominator
    S = math.lcm(1920, 240 * D, 32 * theta.denominator)
    rows = {v: _scaled_rows(forms, S, D, theta) for v, forms in _FORMS.items()}
    plan = {leaf: (tuple(sorted(leaf.A1)), leaf.i, rows[leaf.variant])
            for leaf in _BRANCHES}
    worst = worst_at = None
    count = violations = 0
    for a in _grid_ints(8, D, D):
        count += 1
        leaf = _dispatch(D, a)[0]
        g1, i, leaf_rows = plan[leaf]
        m1 = sum([a[j] for j in g1])
        ui = 0 if i is None else a[i]
        m2 = sum(a) - m1 - ui
        mx = max(m1, m2)
        slacks = [c + e1 * m1 + e2 * m2 + eu * ui + em * mx
                  for c, e1, e2, eu, em in leaf_rows]
        top = max(slacks)
        if top > 0:
            violations += 1
        if worst is None or top > worst:
            worst, worst_at = top, (a, leaf.variant, slacks.index(top))
    a, variant, k = worst_at
    form = _FORMS[variant][k]
    return ScanResult(
        grid_step=grid_step,
        theta=theta,
        tuple_count=count,
        worst_slack=F(worst, S),
        worst_tuple=tuple(F(x, D) for x in a),
        worst_case_id=form.case_id,
        # the first tau in (0, 1) that reaches the form's worst slack
        worst_tau=F(int(form.T > form.claim_T)),
        passed=violations == 0,
        violations=violations,
    )


def claims_within_global_budget() -> bool:
    """Every per-case claimed exponent pair sits inside the certified
    global budget (39/40) tau + 1/2, checked at tau in {0, 1}."""
    return all(f.claim_x + f.claim_T * tau <= TARGET_X + TARGET_T * tau
               for forms in _FORMS.values() for f in forms
               for tau in (F(0), F(1)))


def random_exponent_tuple(rng) -> tuple[F, ...]:
    """Seeded random nonincreasing tuple with sum <= 1 (exact rationals)."""
    d = rng.randint(1, 64)
    ks = sorted((rng.randint(0, d) for _ in range(8)), reverse=True)
    D = max(d, sum(ks))
    return tuple(F(k, D) for k in ks)
