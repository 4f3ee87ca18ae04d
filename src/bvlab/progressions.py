"""Chebyshev sums in progressions and their error terms.

The max over y of |psi(y; q, a) - y/phi(q)| is evaluated only at jump
points (prime powers) plus the endpoint, looking at both one-sided limits
at each jump; between jumps the quantity is piecewise linear in y, so
this is exact and avoids an O(x) scan per modulus.

Every sum here reads Lambda through ``tables.jumps(y)``, the prime powers
n <= y and their weights, which raises ValueError for y past the table.
One walk over the jumps serves E* and E-dagger: ``_ClassBlocks`` takes
the prime powers n <= x BLOCK at a time, in jump order, and lays each
block out by n mod q with a stable argsort of its residues (a radix sort
for q <= 2^16). Each class's running sum carries from block to block, so
every class sum just before and just after each jump is added one weight
at a time in jump order, bit-equal to a running ``+=`` over the jumps.
Within a block the classes are summed together, as the rows of one padded
matrix summed by one np.cumsum. E* and
E-dagger need only the largest deviation and the least jump reaching it,
so both read each block in class order and keep the first block that
reaches the maximum. Every array they make is one block long or holds one
entry per class met.
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

# jumps per block of the class walk behind E* and E-dagger
BLOCK = 1 << 14


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
    walk = _ClassBlocks(pp, logs, q)
    inv_phi = 1.0 / walk.phi
    best, y_star = 0.0, 1.0
    for lo, order, starts, ends, shared, sums, before in walk:
        # the right limit at a jump is its class's running sum and the
        # left limit the sum one jump of the class earlier
        jumps = pp[lo : lo + len(order)][order]
        line = jumps * inv_phi
        before -= line
        sums -= line
        dev = np.maximum(np.abs(before, out=before), np.abs(sums, out=sums), out=before)
        # a class not coprime to q holds only powers of the primes of q,
        # so these classes are few and short
        for a, b in zip(starts[shared].tolist(), ends[shared].tolist()):
            dev[a:b] = 0
        top = dev.max()
        # blocks come in jump order, so the first block reaching the
        # maximum holds the least jump reaching it
        if top > best:
            best, y_star = float(top), float(jumps[dev == top].min())
    endpoint = float(np.max(np.abs(walk.totals() - x * inv_phi)))
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
    largest at the first jump and below c at the last: the jump before
    the class's next one, or the last jump. Float subtraction is monotone
    and the steps of c span many ulps, so these run ends give the floats
    and the first jump of a running loop over the jumps."""
    import numpy as np
    _check_modulus(q)
    pp, logs = tables.jumps(x)
    walk = _ClassBlocks(pp, logs, q)
    inv_phi = 1.0 / walk.phi
    best, y_star = 0.0, 1.0
    psi_before = 0.0
    for lo, order, starts, ends, shared, sums, before in walk:
        # center[k + 1] is c at jump lo + k and center[0] just before the
        # block; psi is added one weight at a time, as by np.cumsum(logs)
        center = np.empty(len(order) + 1)
        center[0] = psi_before
        center[1:] = logs[lo : lo + len(order)]
        np.cumsum(center, out=center)
        psi_before = center[-1]
        center *= inv_phi
        # each sum sits above c from its jump on; the sum before it sat
        # below c up to the jump before
        above = np.subtract(sums, center[1:][order], out=sums)
        below = np.subtract(center[order], before, out=before)
        # a class not coprime to q holds only powers of the primes of q,
        # so these classes are few and short
        for a, b in zip(starts[shared].tolist(), ends[shared].tolist()):
            above[a:b] = below[a:b] = 0
        top = max(above.max(), below.max())
        # a block's candidates lie at its jumps and, for below, at jump
        # lo - 1, none before a candidate of an earlier block: so the
        # first block reaching the maximum holds the least jump reaching it
        if top > best:
            at = min(order[above == top].min(initial=len(order)),
                     order[below == top].min(initial=len(order) + 1) - 1)
            best, y_star = float(top), float(pp[lo + at])
    if len(pp):
        # each coprime class holds its last sum, or 0 if it has no jump,
        # from its last jump to the last jump of all
        top = (psi_before * inv_phi - walk.totals()).max()
        if top > best:
            best, y_star = float(top), float(pp[-1])
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


class _ClassBlocks:
    """The jumps pp in blocks of BLOCK in jump order, each block laid out
    in class order: by residue mod q, each class in jump order.

    Iterating yields per block (lo, order, starts, ends, shared, sums,
    before): the index of the block's first jump, the permutation of its
    jumps into class order, the bounds [starts[k], ends[k]) of each class
    in it, whether each class shares a factor with q, and in class order
    each class's running sum of the weights over its jumps up to each one
    (sums) and up to the one before (before; 0 before the first). Once
    the walk is done, ``totals()`` gives the sums of the phi(q) coprime
    classes over all jumps. The caller may overwrite sums and before.
    ``phi`` is phi(q), from ``euler_phi``.

    A stable argsort of the block's residues gives its class order. The
    residues are kept in the narrowest unsigned dtype that holds q - 1,
    so numpy sorts 8- and 16-bit keys by radix; a stable order is unique,
    so the cast changes no index. Each class's running sum is carried
    across block edges, kept per class in residue order, and every sum is
    added one weight at a time in jump order, for real and complex
    weights alike, so it is bit-equal to a running ``+=`` over the jumps.
    Every array is one block long or holds one entry per class."""

    def __init__(self, pp: np.ndarray, weights: np.ndarray, q: int):
        import numpy as np
        self.pp, self.weights = pp, weights
        self.q, self.phi = q, euler_phi(q)
        # the classes met so far, ascending, and the running sum of each
        self.classes = np.zeros(0, dtype=np.min_scalar_type(q - 1))
        self.running = np.zeros(0, dtype=weights.dtype)

    def __iter__(self):
        import numpy as np
        pp, weights, q = self.pp, self.weights, self.q
        residues = np.empty(min(BLOCK, len(pp)), dtype=self.classes.dtype)
        for lo in range(0, len(pp), BLOCK):
            size = min(BLOCK, len(pp) - lo)
            r = np.remainder(pp[lo : lo + size], q, out=residues[:size], casting="unsafe")
            order = np.argsort(r, kind="stable")
            r = r[order]
            # a class starts at the first jump and where the residue
            # changes, and ends where the next one starts
            new_class = np.ones(size, dtype=bool)
            np.not_equal(r[1:], r[:-1], out=new_class[1:])
            starts = np.flatnonzero(new_class)
            ends = np.empty_like(starts)
            ends[:-1] = starts[1:]
            ends[-1] = size
            classes = r[starts]
            # the sums carried in by the classes met in earlier blocks
            at = np.searchsorted(self.classes, classes)
            met = at < len(self.classes)
            met[met] = self.classes[at[met]] == classes[met]
            carried = np.zeros(len(classes), dtype=weights.dtype)
            carried[met] = self.running[at[met]]
            sums = weights[lo : lo + size][order]
            sums[starts[met]] += carried[met]
            _running_sums(sums, starts, ends)
            before = np.empty_like(sums)
            before[1:] = sums[:-1]
            before[starts] = carried
            last = sums[ends - 1]
            self.running[at[met]] = last[met]
            if not met.all():
                self.classes = np.insert(self.classes, at[~met], classes[~met])
                self.running = np.insert(self.running, at[~met], last[~met])
            yield lo, order, starts, ends, self._shared(classes), sums, before

    def _shared(self, classes: np.ndarray) -> np.ndarray:
        """Whether each residue shares a prime factor with q."""
        import numpy as np
        return np.gcd(classes.astype(np.int64), self.q) > 1

    def totals(self) -> np.ndarray:
        """The sums of the coprime classes met, in residue order, and a 0
        if a coprime class holds no jump."""
        import numpy as np
        totals = self.running[~self._shared(self.classes)]
        if len(totals) < self.phi:
            totals = np.append(totals, 0)
        return totals


def _running_sums(sums: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> None:
    """Replace each class [starts[k], ends[k]) of sums by its running sum,
    in place, added one entry at a time in order.

    The classes become the rows of a zero-padded matrix, as wide as the
    longest, and one np.cumsum runs along the rows: it adds a row's
    entries one at a time, and the padding follows each row's last entry,
    so every sum is bit-equal to a running ``+=``. The classes of a block
    of prime powers are near equal in length, so the matrix stays within
    a few blocks' worth of entries."""
    import numpy as np
    size = ends - starts
    width = int(size.max())
    # entry i of class k, at rank i - starts[k] in it, goes to row k
    cell = np.arange(len(sums)) + np.repeat(np.arange(len(size)) * width - starts, size)
    flat = np.zeros(len(size) * width, dtype=sums.dtype)
    flat[cell] = sums
    rows = flat.reshape(len(size), width)
    np.cumsum(rows, axis=1, out=rows)
    np.take(flat, cell, out=sums)
