"""Exact-rational exponent bookkeeping for the case analysis.

Everything here is Fraction arithmetic; no floating point anywhere.
Exponent tuples record the logarithmic sizes of the dyadic factors
(N_j = x^(u_j)), the moduli range (Q = x^theta) and the height
(T = x^tau). The constructive partition routine splits the eight factor
exponents into two or three groups whose combined Dirichlet-polynomial
bounds certify the target T^(39/40) x^(1/2) exponent shape on a grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction as F
from itertools import combinations

THETA_MAX = F(9, 40)
DIFFICULT_LO = F(9, 40)
DIFFICULT_HI = F(1, 4)
HALF_BOUND_A = F(9, 20)  # group-sum cap in the three-group split
HALF_BOUND_B = F(11, 20)  # group-sum cap in the two-group split
DELTA = F(1, 20)
ALLOWED_GRID_STEPS = (F(1, 8), F(1, 16), F(1, 40), F(1, 80))

# the certified exponent target: combined <= (39/40) tau + 1/2
TARGET_X = F(1, 2)
TARGET_T = F(39, 40)


def validate_exponents(u) -> None:
    if any(x < 0 for x in u):
        raise ValueError("exponents must be nonnegative")
    if any(a < b for a, b in zip(u, u[1:])):
        raise ValueError("exponents must be nonincreasing")
    if sum(u) > 1:
        raise ValueError("exponent sum must be at most 1")


@dataclass(frozen=True)
class PartitionOutcome:
    """A certified split of the eight indices (0-based).

    Variant A: singleton i plus two groups of size <= 5, singleton
    exponent outside the open difficult interval, group sums <= 9/20.
    Variant B: two groups of size <= 6 with sums <= 11/20.
    """

    variant: str  # "A" | "B"
    A1: frozenset[int]
    A2: frozenset[int]
    i: int | None = None
    certificate: tuple[tuple[str, str], ...] = ()

    def verify(self, u: tuple[F, ...]) -> None:
        s1 = sum(u[j] for j in self.A1)
        s2 = sum(u[j] for j in self.A2)
        if self.variant == "B":
            if self.i is not None:
                raise AssertionError("variant B carries no singleton")
            if self.A1 | self.A2 != frozenset(range(8)) or self.A1 & self.A2:
                raise AssertionError("groups must partition {0..7}")
            if max(len(self.A1), len(self.A2)) > 6:
                raise AssertionError("variant B group size exceeds 6")
            if s1 > HALF_BOUND_B or s2 > HALF_BOUND_B:
                raise AssertionError("variant B group sum exceeds 11/20")
        elif self.variant == "A":
            if self.i is None:
                raise AssertionError("variant A needs a singleton index")
            parts = self.A1 | self.A2 | {self.i}
            if parts != frozenset(range(8)) or self.A1 & self.A2 \
                    or self.i in self.A1 or self.i in self.A2:
                raise AssertionError("singleton and groups must partition {0..7}")
            if max(len(self.A1), len(self.A2)) > 5:
                raise AssertionError("variant A group size exceeds 5")
            if DIFFICULT_LO < u[self.i] < DIFFICULT_HI:
                raise AssertionError("singleton exponent inside (9/40, 1/4)")
            if s1 > HALF_BOUND_A or s2 > HALF_BOUND_A:
                raise AssertionError("variant A group sum exceeds 9/20")
        else:
            raise AssertionError(f"unknown variant {self.variant!r}")


def partition_exponents(u: tuple[F, ...]) -> PartitionOutcome:
    """Constructive split, by explicit case dispatch.

    Branches: if the top five exponents sum to at most 11/20 the plain
    two-group split works; otherwise dispatch on whether u_1 lies in the
    difficult interval and on the least prefix reaching 9/20.
    """
    u = tuple(F(x) for x in u)
    validate_exponents(u)
    cert: list[tuple[str, str]] = []

    head5 = sum(u[:5])
    if head5 <= HALF_BOUND_B:
        cert.append(("u1+..+u5 <= 11/20", str(head5)))
        out = PartitionOutcome("B", frozenset(range(5)), frozenset({5, 6, 7}),
                               certificate=tuple(cert))
        out.verify(u)
        return out
    cert.append(("u1+..+u5 > 11/20", str(head5)))

    partial = F(0)
    k = None
    for idx in range(8):
        partial += u[idx]
        if partial >= HALF_BOUND_A:
            k = idx + 1  # 1-based prefix length
            break
    assert k is not None and k <= 5
    cert.append(("least k with u1+..+uk >= 9/20", str(k)))

    if not DIFFICULT_LO < u[0] < DIFFICULT_HI:
        alt = u[1] + u[3] + u[5] + u[7]
        if alt > HALF_BOUND_A:
            cert.append(("u2+u4+u6+u8 > 9/20", str(alt)))
            out = PartitionOutcome("B", frozenset({1, 3, 5, 7}),
                                   frozenset({0, 2, 4, 6}),
                                   certificate=tuple(cert))
        else:
            cert.append(("u2+u4+u6+u8 <= 9/20", str(alt)))
            out = PartitionOutcome("A", frozenset({2, 4, 6}),
                                   frozenset({1, 3, 5, 7}), i=0,
                                   certificate=tuple(cert))
    else:
        head_k = sum(u[:k])
        if head_k <= HALF_BOUND_B:
            cert.append(("u1+..+uk <= 11/20", str(head_k)))
            out = PartitionOutcome("B", frozenset(range(k)),
                                   frozenset(range(k, 8)),
                                   certificate=tuple(cert))
        else:
            cert.append(("u1+..+uk > 11/20", str(head_k)))
            # k >= 3 here: two exponents below 1/4 cannot reach 11/20
            out = PartitionOutcome(
                "A",
                frozenset({0} | set(range(2, k))),
                frozenset(range(k, 8)),
                i=1,
                certificate=tuple(cert),
            )
    out.verify(u)
    return out


def partition_bruteforce(u: tuple[F, ...]) -> PartitionOutcome | None:
    """Independent oracle: exhaust all admissible splits in a fixed order
    and return the first one satisfying the variant constraints.
    Integer arithmetic over a common denominator."""
    u = tuple(F(x) for x in u)
    validate_exponents(u)
    D = math.lcm(*(x.denominator for x in u))
    a = [int(x * D) for x in u]
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
            out = PartitionOutcome("B", g1, frozenset(range(8)) - g1)
            out.verify(u)
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
                    out.verify(u)
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
    b = len(outcome.A2)
    bounds: list[CaseBound] = []

    if outcome.variant == "B":
        logp = F((8 - b) ** 2 + b * b, 2)
        bounds.append(CaseBound("B-generic", s, F(1), logp,
                                claim_x=F(1, 2), claim_T=F(19, 20)))
        bounds.append(CaseBound("B-generic", F(1, 2), F(0), logp,
                                claim_x=F(1, 2), claim_T=F(0)))
        bounds.append(CaseBound("B-generic", theta + max(m1, m2) / 2,
                                F(1, 2), logp,
                                claim_x=F(1, 2), claim_T=F(1, 2)))
        return bounds

    ui = u[outcome.i]
    # trimming the triples where some grouped factor is below x^-1
    bounds.append(CaseBound("A-trim", s, F(1), F(25) - DELTA,
                            claim_x=F(1, 2), claim_T=F(39, 40)))
    bounds.append(
        CaseBound("A-Case1", ui / 2 + (m1 + m2) / 2, F(0),
                  F((7 - b) ** 2 + b * b + 10, 2),
                  claim_x=F(1, 2), claim_T=F(0))
    )
    bounds.append(
        CaseBound("A-Case2-A1",
                  F(31, 32) * s + (m1 + m2 + ui) / 16, F(31, 32), None,
                  claim_x=F(319, 640), claim_T=F(31, 32))
    )
    bounds.append(
        CaseBound("A-Case2-B1", s + (m1 + m2 + ui) / 20, F(33, 40),
                  F(22) - F(3, 40),
                  claim_x=F(1, 2), claim_T=F(39, 40))
    )
    for tag, big, small in (("A-Case3", m2, m1), ("A-Case4-mirror", m1, m2)):
        bounds.append(
            CaseBound(f"{tag}-A2" if tag == "A-Case3" else tag,
                      F(7, 16) * s + big / 2 + (small + ui) / 8,
                      F(7, 16), None,
                      claim_x=F(157, 320), claim_T=F(7, 16))
        )
        bounds.append(
            CaseBound(f"{tag}-B2" if tag == "A-Case3" else tag,
                      s / 2 + big / 2 + (small + ui) / 12,
                      F(1, 2), None,
                      claim_x=F(119, 240), claim_T=F(1, 2))
        )
    return bounds


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


def grid_tuples(grid_step: F):
    """All nonincreasing rational 8-tuples on the grid with sum <= 1."""
    denom = int(1 / F(grid_step))
    if F(1, denom) != F(grid_step):
        raise ValueError("grid step must be a unit fraction")

    def rec(slots: int, cap: int, budget: int, prefix: tuple[int, ...]):
        if slots == 0:
            yield prefix
            return
        for k in range(min(cap, budget), -1, -1):
            yield from rec(slots - 1, k, budget - k, prefix + (k,))

    for ks in rec(8, denom, denom, ()):
        yield tuple(F(k, denom) for k in ks)


def polytope_scan(
    grid_step: F,
    theta: F = THETA_MAX,
    taus: tuple[F, ...] = (F(0), F(1)),
) -> ScanResult:
    """Exhaustive exact-rational certificate over the exponent grid:
    every case bound must close under its claimed exponent pair (which
    itself sits inside the global (39/40) tau + 1/2 budget)."""
    grid_step = F(grid_step)
    if grid_step not in ALLOWED_GRID_STEPS:
        raise ValueError(
            f"grid_step must be one of {[str(g) for g in ALLOWED_GRID_STEPS]}"
        )
    theta = F(theta)
    worst_slack = None
    worst = (None, None, None)
    count = 0
    violations = 0
    for u in grid_tuples(grid_step):
        count += 1
        outcome = partition_exponents(u)
        tuple_bad = False
        for bound in case_bounds(u, outcome, theta=theta):
            for tau in taus:
                slack = bound.slack(tau)
                if worst_slack is None or slack > worst_slack:
                    worst_slack = slack
                    worst = (u, bound.case_id, tau)
                if slack > 0:
                    tuple_bad = True
        if tuple_bad:
            violations += 1
    return ScanResult(
        grid_step=grid_step,
        theta=theta,
        tuple_count=count,
        worst_slack=worst_slack if worst_slack is not None else F(0),
        worst_tuple=worst[0],
        worst_case_id=worst[1],
        worst_tau=worst[2],
        passed=violations == 0,
        violations=violations,
    )


def claims_within_global_budget() -> bool:
    """Every per-case claimed exponent pair sits inside the certified
    global budget (39/40) tau + 1/2, checked at tau in {0, 1}."""
    u = tuple([F(1, 8)] * 8)
    outcome_b = partition_exponents(u)
    sample_a = PartitionOutcome("A", frozenset({2, 4, 6}),
                                frozenset({1, 3, 5, 7}), i=0)
    ua = (F(1, 4), F(1, 10), F(1, 10), F(1, 10), F(1, 10), F(1, 10),
          F(1, 10), F(1, 10))
    bounds = case_bounds(u, outcome_b) + case_bounds(ua, sample_a)
    for bd in bounds:
        for tau in (F(0), F(1)):
            if bd.claim_x + bd.claim_T * tau > TARGET_X + TARGET_T * tau:
                return False
    return True


def random_exponent_tuple(rng) -> tuple[F, ...]:
    """Seeded random nonincreasing tuple with sum <= 1 (exact rationals)."""
    d = rng.randint(1, 64)
    ks = sorted((rng.randint(0, d) for _ in range(8)), reverse=True)
    D = max(d, sum(ks))
    return tuple(F(k, D) for k in ks)
