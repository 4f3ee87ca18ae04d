"""The Heath-Brown identity at K = 4 and its dyadic 8-factor decomposition.

For n <= x the von Mangoldt function equals the alternating sum over
j = 1..4 of binomial(4, j) times the multilinear sums
    sum over m_1..m_j <= x^(1/4), m_1..m_j n_1..n_j = n
    of mu(m_1)...mu(m_j) log n_1.
The reconstruction here goes through truncated-mobius and log-divisor
convolutions, which is an independent route from any per-n enumeration.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import product
from typing import TYPE_CHECKING

from .arith import MultiplicativeTables
from .reports import BoundReport

if TYPE_CHECKING:
    import numpy as np


# (-1)^(j-1) binomial(4, j) for j = 1..4: the identity's term signs
SIGNED_BINOMIALS = (4, -6, 4, -1)


@dataclass(frozen=True)
class DyadicTuple:
    exponents: tuple[int, ...]  # N_i = 2^e_i; e_i = 0 marks the
    # degenerate interval, replaced by [1, 2)


def reconstruct(x: float, n_max: int, tables: MultiplicativeTables) -> np.ndarray:
    """Array r with r[n] = the identity's reconstruction of Lambda(n),
    for 0 <= n <= n_max, built from Dirichlet convolutions."""
    import numpy as np
    if n_max > x or x > tables.limit:
        raise ValueError("need n_max <= x <= tables.limit")
    n_max = int(n_max)
    z, _, _ = _integer_sizes(x)

    mu_trunc = np.zeros(n_max + 1)
    top = min(z, n_max)
    mu_trunc[1 : top + 1] = tables.mobius[1 : top + 1]

    logs = np.zeros(n_max + 1)
    if n_max >= 1:
        logs[1:] = np.log(np.arange(1, n_max + 1, dtype=np.float64))

    unit = np.ones(n_max + 1)
    unit[0] = 0.0

    out = np.zeros(n_max + 1)
    m_conv = np.zeros(n_max + 1)  # delta at 1: identity for convolution
    m_conv[1] = 1.0
    t_conv = logs  # log * 1^(j-1), extended by one unit factor per j
    for j, coeff in enumerate(SIGNED_BINOMIALS, start=1):
        m_conv = _dirichlet_convolve(m_conv, mu_trunc)
        if j > 1:
            t_conv = _dirichlet_convolve(t_conv, unit)
        out += coeff * _dirichlet_convolve(m_conv, t_conv)
    return out


def _integer_sizes(x: float) -> tuple[int, int, int]:
    """Exact integer sizes for x >= 1: z = floor(x^(1/4)), L = floor(log2 x)
    and cap_high, the largest e with 2 * 2^e <= x^(1/4) (clamped at 0).
    Each follows from floor(x) alone: 2^k <= x iff 2^k <= floor(x)."""
    n = int(x)
    L = n.bit_length() - 1
    # 2 * 2^e <= x^(1/4)  <=>  2^(4e + 4) <= x  <=>  4e + 4 <= L
    return math.isqrt(math.isqrt(n)), L, max(0, L // 4 - 1)


def _dirichlet_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """out[n] = sum over d m = n of a[d] b[m], for 1 <= n <= len(a) - 1.

    Hyperbola split at s = isqrt(N): one slice per d <= s, then one per
    m <= s carrying every d > s (as d m <= N and (s + 1)^2 > N force
    m <= s), so 2s numpy calls instead of N. Running m down from s keeps
    each out[n] receiving its terms in increasing d, the order of a per-d
    loop, so the sums are bit-identical to one. A term with a zero factor
    is skipped where that factor is the scalar (a[d], b[m]) and added
    where it sits in the slice; for finite inputs it is +-0.0, and adding
    it to a sum that starts at +0.0, and so is never -0.0, changes no bit."""
    import numpy as np
    n_max = len(a) - 1
    s = math.isqrt(n_max)
    out = np.zeros(n_max + 1)
    for d in range(1, s + 1):
        if a[d] != 0.0:
            out[d::d] += a[d] * b[1 : n_max // d + 1]
    for m in range(s, 0, -1):
        if b[m] != 0.0:
            top = n_max // m
            out[(s + 1) * m : top * m + 1 : m] += a[s + 1 : top + 1] * b[m]
    return out


def reconstruct_bruteforce(n: int, x: float, tables: MultiplicativeTables) -> float:
    """Oracle: enumerate every tuple (m_1..m_j, n_1..n_j) with product n
    directly. Exponential in divisors; for small n only."""
    z, _, _ = _integer_sizes(x)
    total = 0.0
    for j, coeff in enumerate(SIGNED_BINOMIALS, start=1):
        for tup in _ordered_factorizations(n, 2 * j):
            ms, ns = tup[:j], tup[j:]
            if any(m > z for m in ms):
                continue
            w = math.log(ns[0]) if ns[0] > 1 else 0.0
            if w == 0.0:
                continue
            mu = 1
            for m in ms:
                mu *= int(tables.mobius[m])
                if mu == 0:
                    break
            if mu == 0:
                continue
            total += coeff * mu * w
    return total


def _ordered_factorizations(n: int, slots: int):
    if slots == 1:
        yield (n,)
        return
    for d in range(1, n + 1):
        if n % d == 0:
            for rest in _ordered_factorizations(n // d, slots - 1):
                yield (d,) + rest


def verify_identity(x: float, n_max: int, tables: MultiplicativeTables) -> BoundReport:
    """Max over n <= n_max of |reconstruction(n) - Lambda(n)|; the identity
    is exact, so the residual is pure floating error."""
    import numpy as np
    rec = reconstruct(x, n_max, tables)
    resid = np.abs(rec - tables.von_mangoldt_upto(n_max))
    worst = int(np.argmax(resid / (1.0 + np.log(np.maximum(np.arange(len(resid)), 1)))))
    return BoundReport(
        lhs=float(resid[worst]) if n_max >= 1 else 0.0,
        rhs_formula_value=1e-9 * (1.0 + (math.log(worst) if worst >= 1 else 0.0)),
        parameters={"x": x, "n_max": n_max, "worst_n": worst},
        label="heath-brown-identity-residual",
    )


def dyadic_grid_count(x: float) -> int:
    """Number of admissible dyadic 8-tuples, computed combinatorially."""
    if x < 2**8:
        raise ValueError("x must be at least 2^8")
    _, L, cap_high = _integer_sizes(x)
    count = 0
    for highs in product(range(cap_high + 1), repeat=4):
        rem = L - sum(highs)
        if rem < 0:
            continue
        count += math.comb(rem + 4, 4)  # e_1..e_4 >= 0 with sum <= rem
    return count


def dyadic_grid(x: float) -> tuple[list[DyadicTuple], int]:
    """Enumerate the admissible dyadic tuples; sizes multiply to <= x and
    the four mobius-slot sizes satisfy 2 * N_i <= x^(1/4)."""
    if x < 2**8:
        raise ValueError("x must be at least 2^8")
    _, L, cap_high = _integer_sizes(x)
    tuples = []
    for highs in product(range(cap_high + 1), repeat=4):
        rem_high = L - sum(highs)
        if rem_high < 0:
            continue
        for lows in _tuples_sum_at_most(rem_high, 4):
            tuples.append(DyadicTuple(exponents=lows + highs))
    return tuples, len(tuples)


def _tuples_sum_at_most(total: int, slots: int):
    if slots == 0:
        yield ()
        return
    for e in range(total + 1):
        for rest in _tuples_sum_at_most(total - e, slots - 1):
            yield (e,) + rest


def dyadic_grid_report(x_values: list[float]) -> BoundReport:
    """Empirical constant for count <= C * (log x)^8 across a sweep."""
    ratios = {}
    for x in x_values:
        ratios[x] = dyadic_grid_count(x) / math.log(x) ** 8
    worst_x = max(ratios, key=ratios.get)
    return BoundReport(
        lhs=float(dyadic_grid_count(worst_x)),
        rhs_formula_value=math.log(worst_x) ** 8,
        parameters={"x_values": list(x_values), "ratios": ratios},
        label="dyadic-grid-count",
    )


def write_dyadic_csv(tuples: list[DyadicTuple], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"e{i}" for i in range(1, 9)])
        for t in tuples:
            writer.writerow(t.exponents)


def log_removal_check(
    N1: int,
    f: dict[int, float],
    upper_limit: str = "exact",
) -> BoundReport:
    """Compare sum of f(n) log n on (N1, 2N1] with the layer integral
    int (1/v) sum over n in (max(v, N1), 2N1] of f(n) dv.

    upper_limit="exact" integrates v up to 2N1, which reconstructs the
    log weight identically; upper_limit="printed" stops at N1, where the
    indicator never depends on v and the integral collapses to log N1
    per point. Both are reported; the difference is the point of the check.
    """
    if N1 < 1:
        raise ValueError("N1 must be at least 1")
    if upper_limit not in ("exact", "printed"):
        raise ValueError("upper_limit must be 'exact' or 'printed'")
    support = {n: w for n, w in f.items() if N1 < n <= 2 * N1 and w != 0.0}
    lhs = math.fsum(w * math.log(n) for n, w in support.items())

    top = 2 * N1 if upper_limit == "exact" else N1
    # closed form: each point n contributes log(min(n, top)) relative
    # to the v-layers below it
    rhs = math.fsum(
        w * (math.log(N1) + max(0.0, math.log(min(n, top) / N1)))
        for n, w in support.items()
    ) if top >= N1 else 0.0

    return BoundReport(
        lhs=lhs,
        rhs_formula_value=rhs,
        parameters={"N1": N1, "upper_limit": upper_limit,
                    "difference": lhs - rhs},
        label="log-removal",
    )
