"""Chebyshev sums in progressions and their error terms.

The max over y of |psi(y; q, a) - y/phi(q)| is evaluated only at jump
points (prime powers) plus the endpoint, looking at both one-sided limits
at each jump; between jumps the quantity is piecewise linear in y, so
this is exact and avoids an O(x) scan per modulus.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass
from math import gcd

import numpy as np

from .arith import ModuliSet, MultiplicativeTables
from .characters import (CharacterGroup, DirichletCharacter, conductor_and_primitivity,
                         euler_phi, factorize)


@dataclass
class ErrorTermRecord:
    q: int
    a: int | str  # residue, or "max" for the max over residues
    y_star: float
    E_value: float
    threshold: float | None
    exceptional: bool


@dataclass
class CharacterExtremum:
    chi: DirichletCharacter
    y_chi: float
    a_chi: complex  # unit modulus; a_chi * psi(y_chi, chi) = |psi(y_chi, chi)|


def psi(y: float, tables: MultiplicativeTables) -> float:
    """Chebyshev psi(y) = sum of Lambda(n) over n <= y."""
    _check_range(y, tables)
    k = int(np.searchsorted(tables.prime_powers, y, side="right"))
    return math.fsum(tables.prime_power_logs[:k])


def psi_ap(y: float, q: int, a: int, tables: MultiplicativeTables) -> float:
    """Sum of Lambda(n) over prime powers n <= y with n = a (mod q)."""
    _check_range(y, tables)
    if q < 1:
        raise ValueError("q must be positive")
    k = int(np.searchsorted(tables.prime_powers, y, side="right"))
    pp = tables.prime_powers[:k]
    logs = tables.prime_power_logs[:k]
    return math.fsum(logs[pp % q == a % q])


def psi_coprime(y: float, q: int, tables: MultiplicativeTables) -> float:
    """Sum of Lambda(n) over n <= y coprime to q: psi(y) minus the
    contribution of prime powers of primes dividing q."""
    total = psi(y, tables)
    correction = []
    for p in {p for p, _ in factorize(q)}:
        pe = p
        while pe <= y:
            correction.append(math.log(p))
            pe *= p
    return total - math.fsum(correction)


def _residue_weights(y: float, q: int, tables: MultiplicativeTables) -> np.ndarray:
    """w[r] = sum of Lambda(n) over prime powers n <= y, n = r (mod q)."""
    k = int(np.searchsorted(tables.prime_powers, y, side="right"))
    pp = tables.prime_powers[:k]
    logs = tables.prime_power_logs[:k]
    return np.bincount((pp % q).astype(np.int64), weights=logs, minlength=q)


def psi_chi(y: float, chi: DirichletCharacter, tables: MultiplicativeTables) -> complex:
    """psi(y, chi) = sum of Lambda(n) chi(n) over n <= y."""
    _check_range(y, tables)
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
    _check_range(x, tables)
    vals = chi.value_table()
    k = int(np.searchsorted(tables.prime_powers, x, side="right"))
    running = 0j
    best_abs, best_y = 0.0, 1.0
    for n, lg in zip(tables.prime_powers[:k].tolist(), tables.prime_power_logs[:k].tolist()):
        running += lg * vals[n % chi.q]
        if abs(running) > best_abs:
            best_abs, best_y = abs(running), float(n)
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
    _check_range(x, tables)
    phi_q = int(tables.phi[q]) if q <= tables.limit else euler_phi(q)
    inv_phi = 1.0 / phi_q
    k = int(np.searchsorted(tables.prime_powers, x, side="right"))
    pp = tables.prime_powers[:k]
    logs = tables.prime_power_logs[:k]

    sums = {a: 0.0 for a in range(q) if gcd(a, q) == 1} if q > 1 else {0: 0.0}
    best, y_star, a_star = 0.0, 1.0, "max"
    for n, lg in zip(pp.tolist(), logs.tolist()):
        r = n % q
        if r not in sums:
            continue
        left = abs(sums[r] - n * inv_phi)  # limit as y -> n from below
        if left > best:
            best, y_star = left, float(n)
        sums[r] += lg
        right = abs(sums[r] - n * inv_phi)
        if right > best:
            best, y_star = right, float(n)
    for a, s in sums.items():
        endpoint = abs(s - x * inv_phi)
        if endpoint > best:
            best, y_star = endpoint, float(x)
    return ErrorTermRecord(q=q, a="max", y_star=y_star, E_value=best,
                           threshold=None, exceptional=False)


def e_star_bruteforce(x: int, q: int, tables: MultiplicativeTables) -> float:
    """Independent oracle: scan every integer y <= x directly."""
    _check_range(x, tables)
    x = int(x)
    phi_q = euler_phi(q)
    lam = np.zeros(x + 1)
    idx = tables.prime_powers[tables.prime_powers <= x]
    lam[idx] = tables.prime_power_logs[: len(idx)]
    y = np.arange(x + 1, dtype=np.float64)
    best = 0.0
    residues = [a for a in range(q) if gcd(a, q) == 1] if q > 1 else [0]
    n = np.arange(x + 1)
    for a in residues:
        cum = np.cumsum(np.where(n % q == a, lam, 0.0))
        best = max(best, float(np.max(np.abs(cum - y / phi_q))))
    return best


def e_dagger(x: float, q: int, tables: MultiplicativeTables) -> ErrorTermRecord:
    """max over y <= x and a coprime to q of
    |psi(y; q, a) - psi(y)/phi(q)| (centered at the full Chebyshev sum)."""
    _check_range(x, tables)
    phi_q = euler_phi(q)
    if q == 1:
        return ErrorTermRecord(q=1, a="max", y_star=1.0, E_value=0.0,
                               threshold=None, exceptional=False)
    inv_phi = 1.0 / phi_q
    k = int(np.searchsorted(tables.prime_powers, x, side="right"))
    residues = [a for a in range(q) if gcd(a, q) == 1]
    sums = dict.fromkeys(residues, 0.0)
    total = 0.0
    best, y_star = 0.0, 1.0
    for n, lg in zip(tables.prime_powers[:k].tolist(),
                     tables.prime_power_logs[:k].tolist()):
        r = n % q
        if r in sums:
            sums[r] += lg
        total += lg
        center = total * inv_phi
        hi = max(sums.values()) - center
        lo = center - min(sums.values())
        val = max(hi, lo)
        if val > best:
            best, y_star = val, float(n)
    return ErrorTermRecord(q=q, a="max", y_star=y_star, E_value=best,
                           threshold=None, exceptional=False)


def e_dagger_bruteforce(x: int, q: int, tables: MultiplicativeTables) -> float:
    """Oracle for e_dagger: integer-y scan."""
    x = int(x)
    phi_q = euler_phi(q)
    if q == 1:
        return 0.0
    lam = np.zeros(x + 1)
    idx = tables.prime_powers[tables.prime_powers <= x]
    lam[idx] = tables.prime_power_logs[: len(idx)]
    total = np.cumsum(lam)
    n = np.arange(x + 1)
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


def exception_scan(
    x: float,
    Q: int,
    A: float,
    S: ModuliSet,
    tables: MultiplicativeTables,
) -> tuple[list[ErrorTermRecord], dict]:
    """Flag each q in S whose E*(x, q) exceeds x / (phi(q) (log x)^A)."""
    if Q**40 > int(x) ** 9:
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


def write_scan_summary(summary: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _check_range(y: float, tables: MultiplicativeTables) -> None:
    if y > tables.limit:
        raise ValueError(f"y={y} exceeds the table limit {tables.limit}")
