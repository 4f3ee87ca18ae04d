"""Chebyshev sums in progressions and their error terms.

The max over y of |psi(y; q, a) - y/phi(q)| is evaluated only at jump
points (prime powers) plus the endpoint, looking at both one-sided limits
at each jump; between jumps the quantity is piecewise linear in y, so
this is exact and avoids an O(x) scan per modulus.

Every sum here reads Lambda through ``tables.jumps(y)``, the prime powers
n <= y and their weights, which raises ValueError for y past the table.
One walk over the jumps serves E* and E-dagger:
``_class_sums`` groups the prime powers n <= x by n mod q with one
stable argsort (a radix sort for q <= 2^16) and takes a cumulative sum
per class, giving every class sum just before and just after each jump.
That costs one sort and one np.cumsum call per class that holds a jump,
and each class sum is added one weight at a time in jump order, so it is
bit-equal to a running ``+=`` over the jumps. E* and E-dagger need only
the largest deviation and the least jump reaching it, so both read the
sums in class order, and nothing scatters them back to jump order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from math import gcd
from typing import TYPE_CHECKING

from .arith import ModuliSet, MultiplicativeTables
from .characters import _check_int, euler_phi
from .exponents import THETA_MAX

if TYPE_CHECKING:
    import numpy as np


@dataclass
class ErrorTermRecord:
    q: int
    y_star: float
    E_value: float
    threshold: float | None = None
    exceptional: bool = False

    def as_row(self) -> dict:
        return {"q": self.q, "phi_q": euler_phi(self.q), "E_star": self.E_value,
                "y_star": self.y_star, "threshold": self.threshold,
                "exceptional": int(self.exceptional)}


def psi(y: float, tables: MultiplicativeTables) -> float:
    """Chebyshev psi(y) = sum of Lambda(n) over n <= y."""
    return math.fsum(tables.jumps(y)[1])


def e_star(x: float, q: int, tables: MultiplicativeTables) -> ErrorTermRecord:
    """max over residues a coprime to q and over y <= x of
    |psi(y; q, a) - y/phi(q)|, exact via jump-point evaluation."""
    import numpy as np
    _check_modulus(q)
    pp, logs = tables.jumps(x)
    inv_phi = 1.0 / euler_phi(q)
    order, starts, ends, class_coprime, sums, totals = _class_sums(pp, logs, q)
    best, y_star = 0.0, 1.0
    if len(pp):
        # in class order the right limit at a jump is its class's running
        # sum and the left limit the sum one jump earlier (0 at a start)
        jumps = pp[order]
        line = jumps * inv_phi
        dev = np.empty_like(sums)
        dev[1:] = sums[:-1]
        dev[starts] = 0
        dev -= line
        np.abs(dev, out=dev)
        sums -= line
        np.maximum(dev, np.abs(sums, out=sums), out=dev)
        # a class not coprime to q holds only powers of the primes of q,
        # so these classes are few and short
        shared = ~class_coprime
        for lo, hi in zip(starts[shared].tolist(), ends[shared].tolist()):
            dev[lo:hi] = 0
        top = dev.max()
        if top > best:
            # both limits of a jump share its y, and pp increases, so the
            # least jump reaching the maximum is the first one in y
            best, y_star = float(top), float(jumps[dev == top].min())
    endpoint = float(np.max(np.abs(totals - x * inv_phi)))
    if endpoint > best:
        best, y_star = endpoint, float(x)
    return ErrorTermRecord(q=q, y_star=y_star, E_value=best)


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
    |psi(y; q, a) - psi(y)/phi(q)| (centered at the full Chebyshev sum).

    The centre c = psi/phi(q) rises strictly (every weight is at least
    log 2), so while a class holds one sum its deviation above c is
    largest at the first jump and below c at the last. Float subtraction
    is monotone and the steps of c span many ulps, so these run ends give
    the floats and the first jump of a running loop over the jumps."""
    import numpy as np
    _check_modulus(q)
    pp, logs = tables.jumps(x)
    inv_phi = 1.0 / euler_phi(q)
    best, y_star = 0.0, 1.0
    if len(pp):
        order, starts, ends, class_coprime, sums, totals = _class_sums(pp, logs, q)
        center = np.cumsum(logs) * inv_phi
        # sums[i] holds from jump order[i] to held_to[i], the jump before
        # its class's next one (the last jump for a class's final entry)
        held_to = np.empty_like(order)
        np.subtract(order[1:], 1, out=held_to[:-1])
        held_to[ends - 1] = len(pp) - 1
        below = center[held_to] - sums
        above = np.subtract(sums, center[order], out=sums)
        # a class not coprime to q holds only powers of the primes of q,
        # so these classes are few and short
        shared = ~class_coprime
        for lo, hi in zip(starts[shared].tolist(), ends[shared].tolist()):
            above[lo:hi] = below[lo:hi] = 0
        # a coprime class holds 0 up to its first jump, or to the last
        # jump if it has none (the 0 appended to totals)
        firsts = order[starts[class_coprime]]
        zero_to = len(pp) - 1 if len(firsts) < len(totals) else firsts.max() - 1
        zero = center[zero_to] if zero_to >= 0 else 0.0
        top = max(above.max(), below.max(), zero)
        if top > best:
            at = min(order[above == top].min(initial=len(pp)),
                     held_to[below == top].min(initial=len(pp)),
                     zero_to if zero == top else len(pp))
            best, y_star = float(top), float(pp[at])
    return ErrorTermRecord(q=q, y_star=y_star, E_value=best)


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


def max_modulus(x: float) -> int:
    """The largest Q <= x^THETA_MAX, that is Q^40 <= x^9 in exact integer
    arithmetic on floor(x): the paper's range for the moduli."""
    num, den = THETA_MAX.as_integer_ratio()
    Q = int(x ** float(THETA_MAX))
    while Q**den > int(x) ** num:
        Q -= 1
    while (Q + 1) ** den <= int(x) ** num:
        Q += 1
    return Q


# the least x with max_modulus(x) >= 3, the least Q of a moduli set
LEAST_X = 132


def threshold_scale(x: float, Q: int, A: float) -> float:
    """(log x)^A, the scale of the threshold x / (phi(q) (log x)^A) over the
    moduli q < 2Q. ValueError unless x > 1 and A >= 0 are finite and both
    2Q (log x)^A and x / (log x)^A are finite: as E*(x, q) <= max(psi(x), x)
    < 1.04 x, every ratio E*/threshold is then below 1.04 Q (log x)^A, and
    every threshold at most x / (log x)^A, which overflows at x < e for a
    large A."""
    if not 1 < x < math.inf:
        raise ValueError(f"x must be finite and exceed 1, got {x}")
    if not 0 <= A < math.inf:
        raise ValueError(f"A must be finite and nonnegative, got {A}")
    try:
        scale = math.log(x) ** A
    except OverflowError:
        scale = math.inf
    if not (scale > 0 and math.isfinite(2 * Q * scale) and math.isfinite(x / scale)):
        raise ValueError(f"A {A} overflows the threshold "
                         f"x / (phi(q) (log x)^A) at x = {x}")
    return scale


def exception_scan(
    x: float,
    Q: int,
    A: float,
    S: ModuliSet,
    tables: MultiplicativeTables,
) -> tuple[list[ErrorTermRecord], dict]:
    """Flag each q in S whose E*(x, q) exceeds x / (phi(q) (log x)^A).
    ValueError on the inputs ``threshold_scale`` refuses."""
    scale = threshold_scale(x, Q, A)
    if Q > max_modulus(x):
        warnings.warn(f"Q={Q} exceeds x^({THETA_MAX}); the scan proceeds anyway")
    records = []
    for q in S.members:
        rec = e_star(x, q, tables)
        rec.threshold = x / (euler_phi(q) * scale)
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


def _check_modulus(q: int) -> None:
    """TypeError unless q is an int (not a bool); ValueError if q < 1."""
    _check_int("modulus", q)
    if q < 1:
        raise ValueError(f"modulus must be at least 1, got {q}")


def _class_sums(pp: np.ndarray, weights: np.ndarray, q: int):
    """Group the jumps pp by class mod q, each class in jump order, and
    keep one running sum of the weights per class. Returns (order, starts,
    ends, class_coprime, sums, totals): the permutation of the jumps into
    class order, the bounds [starts[k], ends[k]) of each class in it,
    whether each class is coprime to q, the running sums in class order
    (sums[i] is the sum of jump order[i]'s class over the jumps <= it),
    and the sums of the phi(q) coprime classes over all jumps.

    A stable argsort of the residues gives the class order. The residues
    are kept in the narrowest unsigned dtype that holds q - 1, so numpy
    sorts 8- and 16-bit keys by radix and no other full-length integer
    array is made; a stable order is unique, so the cast changes no index.
    Each class is then summed by np.cumsum, which adds its weights one at
    a time in jump order for real and complex weights alike, so every sum
    is bit-equal to a running ``+=`` over the jumps. Coprimality to q is
    tested once per class."""
    import numpy as np
    r = (pp % q).astype(np.min_scalar_type(q - 1))
    order = np.argsort(r, kind="stable")
    sorted_r = r[order]
    # a class starts at the first jump and where the sorted residue
    # changes, and ends where the next one starts
    new_class = np.ones(len(pp), dtype=bool)
    np.not_equal(sorted_r[1:], sorted_r[:-1], out=new_class[1:])
    starts = np.flatnonzero(new_class)
    ends = np.empty_like(starts)
    ends[:-1] = starts[1:]
    ends[-1:] = len(pp)
    sums = weights[order]
    for lo, hi in zip(starts.tolist(), ends.tolist()):
        np.cumsum(sums[lo:hi], out=sums[lo:hi])
    # int64, as uint8 residues cannot meet q = 256 in np.gcd
    class_coprime = np.gcd(sorted_r[starts].astype(np.int64), q) == 1
    totals = sums[ends - 1][class_coprime]
    if len(totals) < euler_phi(q):  # a coprime class without jumps sums to 0
        totals = np.append(totals, 0)
    return order, starts, ends, class_coprime, sums, totals
