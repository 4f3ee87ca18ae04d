"""Chebyshev sums in progressions and their error terms.

The max over y of |psi(y; q, a) - y/phi(q)| is evaluated only at jump
points (prime powers) plus the endpoint, looking at both one-sided limits
at each jump; between jumps the quantity is piecewise linear in y, so
this is exact and avoids an O(x) scan per modulus.

Every sum here reads Lambda through ``tables.jumps(y)``, the prime powers
n <= y and their weights, which raises ValueError for y past the table.
One walk over the jumps serves E*, E-dagger and the character extremum:
``_class_prefix_sums`` groups the prime powers n <= x by n mod q with one
stable argsort (a radix sort for q <= 2^16) and takes a cumulative sum
per class, giving every class sum just before and just after each jump.
That costs one sort and one np.cumsum call per class that holds a jump,
and each class sum is added one weight at a time in jump order, so it is
bit-equal to a running ``+=`` over the jumps.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from math import gcd
from typing import TYPE_CHECKING

from .arith import ModuliSet, MultiplicativeTables
from .characters import (CharacterGroup, DirichletCharacter, conductor_and_primitivity,
                         euler_phi)

if TYPE_CHECKING:
    import numpy as np


@dataclass
class ErrorTermRecord:
    q: int
    a: int | str  # residue, or "max" for the max over residues
    y_star: float
    E_value: float
    threshold: float | None = None
    exceptional: bool = False


@dataclass
class CharacterExtremum:
    chi: DirichletCharacter
    y_chi: float
    a_chi: complex  # unit modulus; a_chi * psi(y_chi, chi) = |psi(y_chi, chi)|


def psi(y: float, tables: MultiplicativeTables) -> float:
    """Chebyshev psi(y) = sum of Lambda(n) over n <= y."""
    return math.fsum(tables.jumps(y)[1])


def psi_ap(y: float, q: int, a: int, tables: MultiplicativeTables) -> float:
    """Sum of Lambda(n) over prime powers n <= y with n = a (mod q)."""
    pp, logs = tables.jumps(y)
    if q < 1:
        raise ValueError("q must be positive")
    return math.fsum(logs[pp % q == a % q])


def psi_coprime(y: float, q: int, tables: MultiplicativeTables) -> float:
    """Sum of Lambda(n) over n <= y coprime to q."""
    import numpy as np
    pp, logs = tables.jumps(y)
    if q < 1:
        raise ValueError("q must be positive")
    return math.fsum(logs[np.gcd(pp, q) == 1])


def _residue_weights(y: float, q: int, tables: MultiplicativeTables) -> np.ndarray:
    """w[r] = sum of Lambda(n) over prime powers n <= y, n = r (mod q)."""
    import numpy as np
    pp, logs = tables.jumps(y)
    return np.bincount((pp % q).astype(np.int64), weights=logs, minlength=q)


def psi_chi(y: float, chi: DirichletCharacter, tables: MultiplicativeTables) -> complex:
    """psi(y, chi) = sum of Lambda(n) chi(n) over n <= y."""
    q = chi.q
    w = _residue_weights(y, q, tables)
    vals = chi.value_table()
    re = math.fsum(w[r] * vals[r].real for r in range(q) if w[r])
    im = math.fsum(w[r] * vals[r].imag for r in range(q) if w[r])
    return complex(re, im)


def character_extremum(
    x: float, chi: DirichletCharacter, tables: MultiplicativeTables
) -> CharacterExtremum:
    """y(chi) maximizing |psi(y, chi)| over y <= x, with the unimodular
    phase a(chi) that rotates the maximum onto the positive real axis."""
    import numpy as np
    pp, logs = tables.jumps(x)
    # one class (q = 1) weighted by Lambda(n) chi(n): its sums are psi(n, chi)
    _, _, running, _ = _class_prefix_sums(
        pp, logs * np.asarray(chi.value_table())[pp % chi.q], 1)
    # a leading 0 stands for y = 1, kept unless some |psi(n, chi)| exceeds 0
    i = int(np.argmax(np.abs(np.concatenate(([0], running)))))
    best_y = float(pp[i - 1]) if i else 1.0
    value = psi_chi(best_y, chi, tables)
    a = 1 + 0j if value == 0 else abs(value) / value
    return CharacterExtremum(chi=chi, y_chi=best_y, a_chi=a)


def progression_identity_residual(
    y: float, q: int, a: int, tables: MultiplicativeTables
) -> float:
    """|LHS - RHS| of the character-orthogonality decomposition of the
    progression sum: psi(y; q, a) - psi_coprime(y)/phi(q) against
    (1/phi(q)) * sum over non-principal chi of conj(chi(a)) psi(y, chi)."""
    if gcd(a, q) != 1:
        raise ValueError(f"a={a} and q={q} must be coprime")
    group = CharacterGroup(q)
    phi_q = group.phi
    lhs = psi_ap(y, q, a, tables) - psi_coprime(y, q, tables) / phi_q

    w = _residue_weights(y, q, tables)
    rhs_terms: list[complex] = []
    for chi in group.characters():
        if chi.is_principal:
            continue
        vals = chi.value_table()
        s = sum(w[r] * vals[r] for r in range(q) if w[r])
        rhs_terms.append(vals[a % q].conjugate() * s)
    rhs = sum(rhs_terms) / phi_q
    return abs(lhs - rhs)


def e_star(x: float, q: int, tables: MultiplicativeTables) -> ErrorTermRecord:
    """max over residues a coprime to q and over y <= x of
    |psi(y; q, a) - y/phi(q)|, exact via jump-point evaluation."""
    import numpy as np
    pp, logs = tables.jumps(x)
    inv_phi = 1.0 / euler_phi(q)
    coprime, before, after, totals = _class_prefix_sums(pp, logs, q)
    jumps = pp[coprime]
    # left then right limit at each jump, so argmax keeps the first maximum
    dev = np.column_stack((before[coprime], after[coprime]))
    dev -= (jumps * inv_phi)[:, None]
    dev = np.abs(dev, out=dev).ravel()
    best, y_star = 0.0, 1.0
    if len(dev):
        i = int(np.argmax(dev))
        if dev[i] > best:
            best, y_star = float(dev[i]), float(jumps[i // 2])
    endpoint = float(np.max(np.abs(totals - x * inv_phi)))
    if endpoint > best:
        best, y_star = endpoint, float(x)
    return ErrorTermRecord(q=q, a="max", y_star=y_star, E_value=best)


def e_star_bruteforce(x: int, q: int, tables: MultiplicativeTables) -> float:
    """Independent oracle: scan every integer y <= x directly."""
    import numpy as np
    lam = tables.von_mangoldt_upto(x)
    phi_q = euler_phi(q)
    n = np.arange(len(lam))
    y = n.astype(np.float64)
    best = 0.0
    residues = [a for a in range(q) if gcd(a, q) == 1] if q > 1 else [0]
    for a in residues:
        cum = np.cumsum(np.where(n % q == a, lam, 0.0))
        best = max(best, float(np.max(np.abs(cum - y / phi_q))))
    return best


def e_dagger(x: float, q: int, tables: MultiplicativeTables) -> ErrorTermRecord:
    """max over y <= x and a coprime to q of
    |psi(y; q, a) - psi(y)/phi(q)| (centered at the full Chebyshev sum)."""
    import numpy as np
    pp, logs = tables.jumps(x)
    inv_phi = 1.0 / euler_phi(q)
    best, y_star = 0.0, 1.0
    if len(pp):
        coprime, before, after, totals = _class_prefix_sums(pp, logs, q)
        center = np.cumsum(logs) * inv_phi
        # Class sums only grow, so after jump i the largest coprime class
        # sum is the largest reached so far (0 before any), and the least
        # is the least value a class still holds at some jump >= i: it
        # keeps before[j] until its jump j, and its total after its last.
        dev = np.where(coprime, after, 0.0)
        np.maximum.accumulate(dev, out=dev)
        dev -= center
        held = np.full(len(pp), np.inf)
        j = np.flatnonzero(coprime[1:]) + 1
        held[j - 1] = before[j]
        held[-1] = np.min(totals)
        np.minimum.accumulate(held[::-1], out=held[::-1])
        np.maximum(dev, center - held, out=dev)
        i = int(np.argmax(dev))
        if dev[i] > best:
            best, y_star = float(dev[i]), float(pp[i])
    return ErrorTermRecord(q=q, a="max", y_star=y_star, E_value=best)


def e_dagger_bruteforce(x: int, q: int, tables: MultiplicativeTables) -> float:
    """Oracle for e_dagger: integer-y scan."""
    import numpy as np
    lam = tables.von_mangoldt_upto(x)
    phi_q = euler_phi(q)
    if q == 1:
        return 0.0
    total = np.cumsum(lam)
    n = np.arange(len(lam))
    best = 0.0
    for a in range(q):
        if gcd(a, q) != 1:
            continue
        cum = np.cumsum(np.where(n % q == a, lam, 0.0))
        best = max(best, float(np.max(np.abs(cum - total / phi_q))))
    return best


def reduction_gap(
    y: float, q: int, chi: DirichletCharacter, tables: MultiplicativeTables
) -> tuple[float, float]:
    """The two reduction gaps, both O(L^2 log L / Q) with an empirical
    constant: (1/phi)|psi(y) - psi_coprime(y, q)| and
    (1/phi)|psi(y, chi_inducing) - psi(y, chi)|."""
    phi_q = euler_phi(q)
    g1 = abs(psi(y, tables) - psi_coprime(y, q, tables)) / phi_q
    _, _, inducing = conductor_and_primitivity(chi)
    g2 = abs(psi_chi(y, inducing, tables) - psi_chi(y, chi, tables)) / phi_q
    return g1, g2


def max_modulus(x: float) -> int:
    """The largest Q with Q^40 <= x^9 (Q = floor(x^(9/40)) in exact
    integer arithmetic on floor(x)), the paper's range for the moduli."""
    Q = int(x ** (9 / 40))
    while Q**40 > int(x) ** 9:
        Q -= 1
    while (Q + 1) ** 40 <= int(x) ** 9:
        Q += 1
    return Q


def exception_scan(
    x: float,
    Q: int,
    A: float,
    S: ModuliSet,
    tables: MultiplicativeTables,
) -> tuple[list[ErrorTermRecord], dict]:
    """Flag each q in S whose E*(x, q) exceeds x / (phi(q) (log x)^A)."""
    if Q > max_modulus(x):
        warnings.warn(f"Q={Q} exceeds x^(9/40); the scan proceeds anyway")
    log_x = math.log(x)
    records = []
    for q in S.members:
        rec = e_star(x, q, tables)
        phi_q = euler_phi(q)
        rec.threshold = x / (phi_q * log_x**A)
        rec.exceptional = rec.E_value > rec.threshold
        records.append(rec)
    count = sum(r.exceptional for r in records)
    max_ratio = max((r.E_value / r.threshold for r in records), default=0.0)
    summary = {
        "x": x,
        "Q": Q,
        "A": A,
        "count_exceptional": count,
        "max_ratio": max_ratio,
    }
    return records, summary


def write_error_csv(records: list[ErrorTermRecord], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["q", "phi_q", "E_star", "y_star", "threshold", "exceptional"])
        for r in records:
            writer.writerow(
                [r.q, euler_phi(r.q), f"{r.E_value:.12g}", f"{r.y_star:.12g}",
                 "" if r.threshold is None else f"{r.threshold:.12g}",
                 int(r.exceptional)]
            )


def _class_prefix_sums(pp: np.ndarray, weights: np.ndarray, q: int):
    """Walk the jumps pp in order, keeping one running sum of the weights
    per class mod q. Returns (coprime, before, after, totals): whether
    (n, q) = 1 for each jump n, the sum of n's class over the jumps < n
    and over the jumps <= n, and the sums of the phi(q) coprime classes
    over all jumps.

    A stable argsort of the residues groups the jumps by class, each
    class in jump order. The residues are cast first to the narrowest
    unsigned dtype that holds q - 1, so numpy sorts 8- and 16-bit keys
    by radix; a stable order is unique, so the cast changes no index.
    Each class is then summed by np.cumsum, which adds its weights one
    at a time in jump order for real and complex weights alike, so every
    sum is bit-equal to a running ``+=`` over the jumps. Coprimality to
    q is tested once per class."""
    import numpy as np
    r = pp % q
    order = np.argsort(r.astype(np.min_scalar_type(q - 1)), kind="stable")
    sorted_r = r[order]
    starts = np.flatnonzero(np.diff(sorted_r, prepend=-1))
    ends = np.flatnonzero(np.diff(sorted_r, append=q)) + 1
    sums = weights[order]
    for lo, hi in zip(starts.tolist(), ends.tolist()):
        np.cumsum(sums[lo:hi], out=sums[lo:hi])
    after = np.empty_like(sums)
    after[order] = sums
    before = np.empty_like(sums)
    before[order[1:]] = sums[:-1]
    before[order[starts]] = 0
    class_coprime = np.gcd(sorted_r[starts], q) == 1
    coprime = np.empty(len(pp), dtype=bool)
    coprime[order] = np.repeat(class_coprime, ends - starts)
    totals = sums[ends - 1][class_coprime]
    if len(totals) < euler_phi(q):  # a coprime class without jumps sums to 0
        totals = np.append(totals, 0)
    return coprime, before, after, totals
