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

import numpy as np

from .arith import MultiplicativeTables
from .reports import BoundReport


@dataclass(frozen=True)
class HBTerm:
    j: int  # number of mobius factors
    sign_coefficient: int  # (-1)^(j-1) * binomial(4, j)
    mobius_positions: tuple[int, ...]  # which of the 8 slots carry mu
    log_position: int  # the slot carrying the log weight


@dataclass(frozen=True)
class DyadicTuple:
    exponents: tuple[int, ...]  # N_i = 2^e_i; e_i = 0 marks the
    # degenerate interval, replaced by [1, 2)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(2**e for e in self.exponents)

    @property
    def degenerate_flags(self) -> tuple[bool, ...]:
        return tuple(e == 0 for e in self.exponents)


def identity_terms(x: float, K: int = 4) -> list[HBTerm]:
    """Term structure of the K = 4 identity (8 factor slots: the first
    four carry unit weights with log on slot 1, the last four carry mu)."""
    if x < 16:
        raise ValueError("x must be at least 16")
    if K != 4:
        raise ValueError("only K = 4 is supported")
    terms = []
    for j in range(1, 5):
        terms.append(
            HBTerm(
                j=j,
                sign_coefficient=(-1) ** (j - 1) * math.comb(4, j),
                mobius_positions=tuple(range(5, 5 + j)),
                log_position=1,
            )
        )
    return terms


def reconstruct(x: float, n_max: int, tables: MultiplicativeTables) -> np.ndarray:
    """Array r with r[n] = the identity's reconstruction of Lambda(n),
    for 0 <= n <= n_max, built from Dirichlet convolutions."""
    if n_max > x or x > tables.limit:
        raise ValueError("need n_max <= x <= tables.limit")
    n_max = int(n_max)
    z = int(math.floor(x ** 0.25 + 1e-9))

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
    for j in range(1, 5):
        m_conv = _dirichlet_convolve(m_conv, mu_trunc)
        if j > 1:
            t_conv = _dirichlet_convolve(t_conv, unit)
        out += (-1) ** (j - 1) * math.comb(4, j) * _dirichlet_convolve(m_conv, t_conv)
    return out


def _dirichlet_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n_max = len(a) - 1
    out = np.zeros(n_max + 1)
    for d in range(1, n_max + 1):
        if a[d] != 0.0:
            out[d::d] += a[d] * b[1 : n_max // d + 1]
    return out


def reconstruct_bruteforce(n: int, x: float, tables: MultiplicativeTables) -> float:
    """Oracle: enumerate every tuple (m_1..m_j, n_1..n_j) with product n
    directly. Exponential in divisors; for small n only."""
    z = int(math.floor(x ** 0.25 + 1e-9))
    total = 0.0
    for j in range(1, 5):
        coeff = (-1) ** (j - 1) * math.comb(4, j)
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
    rec = reconstruct(x, n_max, tables)
    lam = np.zeros(int(n_max) + 1)
    k = int(np.searchsorted(tables.prime_powers, n_max, side="right"))
    lam[tables.prime_powers[:k]] = tables.prime_power_logs[:k]
    resid = np.abs(rec - lam)
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
    L = int(math.floor(math.log2(x) + 1e-9))
    cap_high = max(0, int(math.floor(math.log2(x) / 4 + 1e-9)) - 1)
    # 2 * 2^e <= x^(1/4)  <=>  e <= log2(x)/4 - 1
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
    L = int(math.floor(math.log2(x) + 1e-9))
    cap_high = max(0, int(math.floor(math.log2(x) / 4 + 1e-9)) - 1)
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
