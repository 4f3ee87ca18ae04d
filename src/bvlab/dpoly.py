"""Dirichlet polynomials on dyadic intervals and the discrete mean-value,
fourth-moment and large-value inequality checkers.

Every checker returns a BoundReport (lhs, rhs formula value, ratio): the
implied constants of the checked inequalities are estimated as observed
ratios over declared sweeps, never asserted. The interval-stretch constant
is fixed at 2: every polynomial lives on (N, 2N] or a sub-interval. A
family is evaluated on one grid, t = k * GRID_STEP with |t| <= T, which
the grid kernel takes as the integers (steps, N, N'), not as arrays.

The x entering L = log x is a configuration scale decoupled from sieve
limits (default 2^40; 2 <= x_scale < inf), so the exponent shapes can be
probed without astronomical tables.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .arith import MultiplicativeTables
from .characters import CharacterGroup, DirichletCharacter, _check_int
from .reports import BoundReport

if TYPE_CHECKING:
    import numpy as np

DEFAULT_X_SCALE = 2**40
# Well-spaced points lie on t = k * GRID_STEP. The gap rule holds only because
# the step is 1/4: every k/4 is an exact float, so |t - c| >= 1 exactly when
# the index gap is >= SPACING_GAP. Another step needs a float distance test.
GRID_STEP = 0.25
SPACING_GAP = round(1 / GRID_STEP)


@dataclass
class DirichletPolynomial:
    """sum over n in (N, N'] of a_n chi(n) n^(-s)."""

    N: int
    N_prime: int
    kind: str  # "unit" | "mobius" | "explicit"
    chi: DirichletCharacter
    coefficients: dict[int, complex] | None = None
    _ns: np.ndarray = field(init=False, repr=False)
    _base: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        import numpy as np
        _check_int("N", self.N)
        _check_int("N'", self.N_prime)
        if self.N_prime > 2 * self.N:
            raise ValueError("interval stretch above (N, 2N] is not supported")
        self._ns = np.arange(self.N + 1, self.N_prime + 1, dtype=np.int64)

    def attach_tables(self, tables: MultiplicativeTables | None) -> None:
        self._base = _base_coefficients(self.kind, self._ns, tables,
                                        self.coefficients)

    @property
    def support(self) -> np.ndarray:
        return self._ns

    def base_coefficients(self) -> np.ndarray:
        if not hasattr(self, "_base"):
            self.attach_tables(None)
        return self._base

    def twisted_coefficients(self) -> np.ndarray:
        import numpy as np
        chi_vals = np.asarray(self.chi.value_table())[self._ns % self.chi.q]
        return self.base_coefficients() * chi_vals

    def eval(self, t: float, sigma: float = 0.5) -> complex:
        """Compensated evaluation at s = sigma + i t."""
        import numpy as np
        if len(self._ns) == 0:
            return 0j
        c = self.twisted_coefficients()
        terms = c * self._ns.astype(np.float64) ** (-sigma) * np.exp(
            -1j * t * np.log(self._ns.astype(np.float64))
        )
        return complex(math.fsum(terms.real), math.fsum(terms.imag))


def _base_coefficients(kind, ns, tables, explicit):
    import numpy as np
    if kind == "unit":
        return np.ones(len(ns), dtype=np.complex128)
    if kind == "mobius":
        top = int(ns[-1]) if len(ns) else 0
        if tables is None or top > tables.limit:
            raise ValueError("mobius coefficients need tables covering N'")
        return tables.mobius_upto(top)[ns].astype(np.complex128)
    if kind == "explicit":
        if explicit is None:
            raise ValueError("explicit kind requires a coefficient map")
        return np.array([explicit.get(int(n), 0.0) for n in ns],
                        dtype=np.complex128)
    raise ValueError(f"unknown coefficient kind {kind!r}")


@dataclass
class WellSpacedSet:
    chi: DirichletCharacter
    points: list[float]

    def __post_init__(self):
        import numpy as np
        pts = np.sort(np.asarray(self.points, dtype=np.float64))
        # np.sort puts NaN last, so finite ends make every point finite
        if len(pts) and not (math.isfinite(pts[0]) and math.isfinite(pts[-1])):
            raise AssertionError(f"points must be finite, got {pts.tolist()}")
        with np.errstate(over="ignore"):  # a gap past the float range is inf
            close = np.flatnonzero(pts[1:] - pts[:-1] < 1.0)
        if len(close):
            a, b = pts[close[0]:close[0] + 2].tolist()
            raise AssertionError(f"points {a} and {b} are closer than 1")
        self.points = pts.tolist()


def _grid_steps(T: float) -> int:
    """The family grid is t = k * GRID_STEP for |k| <= steps."""
    if not 1 <= T < math.inf:
        raise ValueError("T must be at least 1 and finite")
    return round(T / GRID_STEP)


def _grid_abs_values(steps: int, N: int, N_prime: int, sigma: float,
                     C: np.ndarray) -> np.ndarray:
    """|sum_n C[n, j] n^(-sigma - it)| for t = k * GRID_STEP, -steps <= k <=
    steps (rows), n in (N, N'] and every coefficient column j: one matrix
    product for all columns.

    The rows with t >= 0 of exp(-i t log n) depend only on (steps, N, N'),
    not on sigma or C, so ``_half_phase_block`` holds the unscaled blocks
    of the last two such keys: a sweep that alternates two n ranges on one
    grid builds each block once. A block is (steps + 1) * (N' - N) complex
    values, 4.2 MB at T = 64, N = 1024, so the held state is at most
    2 x 16.8 MB at T = 64, N = 4096. Each call scales a block by the real
    n^(-sigma) into a fresh phase matrix, the same complex-by-real multiply
    as scaling in place, so every bit is that of the complex route. The
    rows with t < 0 are the conjugates of their mirror rows, with the same
    bits as computing them: (-t) log n = -(t log n) exactly in IEEE
    arithmetic, cos is even and sin odd, and the real scale n^(-sigma) does
    not depend on the sign of t. The scale is applied even at sigma = 0,
    where multiplying by 1 + 0i sets the signs of the zeros as the complex
    route does."""
    import numpy as np
    top = _half_phase_block(steps, N, N_prime)
    phase = np.empty((2 * steps + 1, N_prime - N), dtype=np.complex128)
    nf = np.arange(N + 1, N_prime + 1, dtype=np.float64)
    np.multiply(top, nf ** (-sigma), out=phase[steps:])
    np.conjugate(phase[steps + 1:][::-1], out=phase[:steps])
    return np.abs(phase @ C)


@functools.lru_cache(maxsize=2)
def _half_phase_block(steps: int, N: int, N_prime: int) -> np.ndarray:
    """Read-only exp(-i t log n) for t = k * GRID_STEP, 0 <= k <= steps, and
    n in (N, N'] (the last two keys are held, see ``_grid_abs_values``):
    the angle goes through the real cos and sin, whose values are bit for
    bit those of the complex exp, and the imaginary part is then negated."""
    import numpy as np
    t = np.arange(steps + 1) * GRID_STEP
    nf = np.arange(N + 1, N_prime + 1, dtype=np.float64)
    block = np.empty((len(t), len(nf)), dtype=np.complex128)
    ang = np.outer(t, np.log(nf))
    np.cos(ang, out=block.real)
    np.sin(ang, out=block.imag)
    np.negative(block.imag, out=block.imag)
    block.flags.writeable = False
    return block


def _greedy_spaced_columns(vals: np.ndarray) -> np.ndarray:
    """Boolean mask of the grid points each column of vals keeps when its
    points are visited by falling value, ties by rising t, and a point is
    kept unless a kept point lies within SPACING_GAP - 1 indices.

    All columns are decided together in rounds (Blelloch, Fineman and
    Shun, SPAA 2012): a live point whose rank is the least among the live
    points of its window is kept, and the points of its window die. Every
    better-ranked point of that window is already decided and not kept,
    so the sequential visit keeps it too: the result is the same set."""
    import numpy as np
    rows, cols = vals.shape
    w = SPACING_GAP - 1
    # dead points and the padding hold rank `rows`, above every live rank;
    # int32 halves the memory traffic of the rounds (a grid of 2^31 rows
    # would not fit in memory)
    padded = np.full((rows + 2 * w, cols), rows, dtype=np.int32)
    live_rank = padded[w:w + rows]
    np.put_along_axis(live_rank, np.argsort(-vals, axis=0, kind="stable"),
                      np.arange(rows, dtype=np.int32)[:, None], axis=0)
    picked = np.zeros((rows + 2 * w, cols), dtype=bool)
    kept = np.zeros(vals.shape, dtype=bool)
    while True:
        live = live_rank < rows
        if not live.any():
            return kept
        low = live_rank.copy()
        for d in range(1, w + 1):
            np.minimum(low, padded[w - d:w - d + rows], out=low)
            np.minimum(low, padded[w + d:w + d + rows], out=low)
        new = picked[w:w + rows]
        np.equal(live_rank, low, out=new)
        new &= live
        kept |= new
        dead = new.copy()
        for d in range(1, w + 1):
            dead |= picked[w - d:w - d + rows]
            dead |= picked[w + d:w + d + rows]
        np.copyto(live_rank, rows, where=dead)


@functools.lru_cache(maxsize=None)
def _modulus_table(q: int) -> tuple[tuple[DirichletCharacter, ...], np.ndarray]:
    """The primitive characters mod q, in ``CharacterGroup`` order, and
    their values on the residues 0..q-1 as one read-only (count x q)
    complex array whose row i is the i-th character's ``value_table()``.

    Held for every q asked for, keyed on q alone, so families at every
    (Q, min_conductor) share the smaller moduli and a sweep builds each
    character group once. The arrays for all q < 2Q hold 16 bytes per
    (character, residue) pair, besides the characters' own value lists:
    0.07 MB at Q = 16 and 4.1 MB at Q = 64."""
    import numpy as np
    chis = tuple(chi for chi in CharacterGroup(q).characters() if chi.is_primitive)
    values = np.array([chi.value_table() for chi in chis],
                      dtype=np.complex128).reshape(len(chis), q)
    values.flags.writeable = False
    return chis, values


def _twisted_columns(Q: int, min_conductor: int, ns: np.ndarray,
                     base: np.ndarray) -> tuple[list[DirichletCharacter], np.ndarray]:
    """The primitive characters of modulus min_conductor <= q < 2Q (q = 1
    gives the trivial character) in order of q, and the (len(ns) x count)
    matrix a_n chi(n) with one column per character in that order, both
    from one walk over ``_modulus_table``: one gather of chi(n mod q) per
    modulus, then one multiply by the base a_n, the same complex product as
    ``DirichletPolynomial.twisted_coefficients``. ValueError, before the
    product, if there is no such character."""
    import numpy as np
    chis, gathers = [], []
    for q in range(min_conductor, 2 * Q):
        q_chis, values = _modulus_table(q)
        chis.extend(q_chis)
        gathers.append(values.T[ns % q])
    if not chis:
        raise ValueError(f"no primitive character of modulus {min_conductor} <= q < {2 * Q}")
    return chis, base[:, None] * np.hstack(gathers)


@dataclass
class TripleFamily:
    """The triples (q, chi, t in J_chi) with |S(sigma + it, chi)| attached,
    for one coefficient family on one interval. The same J_chi feeds the
    mean-value and large-value checks."""

    Q: int
    T: float
    N: int
    N_prime: int
    kind: str
    sigma: float
    spaced_sets: list[WellSpacedSet]
    abs_values: list[np.ndarray]  # |S| at the selected points, per chi
    G: float
    base: np.ndarray = field(repr=False, compare=False)  # a_n on (N, N']

    @functools.cached_property
    def polynomials(self) -> list[DirichletPolynomial]:
        """One polynomial per character, in family order, built on first
        access for the oracle routes, which evaluate each one on its own
        through ``twisted_coefficients()``. They share the family's a_n."""
        polys = []
        for J in self.spaced_sets:
            P = DirichletPolynomial(N=self.N, N_prime=self.N_prime,
                                    kind=self.kind, chi=J.chi)
            P._base = self.base
            polys.append(P)
        return polys

    def moment(self, p: int) -> float:
        """Sum of |S|^p over all triples."""
        import numpy as np
        return math.fsum(float(np.sum(v**p)) for v in self.abs_values)


def _log_scale(x_scale: float) -> float:
    """L = log x, for 2 <= x_scale < inf (the CLI's range): at 1 or below
    L would be 0 or undefined, and an infinite x_scale gives ratio 0."""
    if not 2 <= x_scale < math.inf:
        raise ValueError(f"x_scale must be at least 2 and finite, got {x_scale!r}")
    return math.log(x_scale)


def build_triple_family(
    Q: int,
    T: float,
    N: int,
    N_prime: int | None,
    kind: str,
    tables: MultiplicativeTables | None,
    sigma: float = 0.0,
    min_conductor: int = 1,
    coefficients: dict[int, complex] | None = None,
) -> TripleFamily:
    """``coefficients`` is the a_n map of the "explicit" kind. A family
    needs int Q >= 1, N >= 1, N' > N and min_conductor (TypeError for a
    bool or any other type), a primitive character of modulus
    min_conductor <= q < 2Q and a finite sigma: anything else would give a
    report with no triples or a NaN moment."""
    import numpy as np
    for name, value in (("Q", Q), ("N", N), ("N'", N_prime),
                        ("min_conductor", min_conductor)):
        if value is not None:
            _check_int(name, value)
    if N_prime is None:
        N_prime = 2 * N
    if Q < 1:
        raise ValueError("Q must be at least 1")
    if N < 1:
        raise ValueError("N must be at least 1")
    if N_prime <= N:
        raise ValueError("N' must exceed N")
    if N_prime > 2 * N:
        raise ValueError("interval stretch above (N, 2N] is not supported")
    if not math.isfinite(sigma):
        raise ValueError("sigma must be finite")
    steps = _grid_steps(T)
    ns = np.arange(N + 1, N_prime + 1, dtype=np.int64)
    base = _base_coefficients(kind, ns, tables, coefficients)
    chis, columns = _twisted_columns(Q, min_conductor, ns, base)
    grid_vals = _grid_abs_values(steps, N, N_prime, sigma, columns)

    kept = _greedy_spaced_columns(grid_vals)
    spaced, abs_vals = [], []
    for j, chi in enumerate(chis):
        idx = np.flatnonzero(kept[:, j])
        spaced.append(WellSpacedSet(chi=chi, points=(idx - steps) * GRID_STEP))
        abs_vals.append(grid_vals[idx, j])
    return TripleFamily(Q=Q, T=T, N=N, N_prime=N_prime, kind=kind, sigma=sigma,
                        spaced_sets=spaced, abs_values=abs_vals,
                        G=float(np.sum(np.abs(base) ** 2)), base=base)


def mean_value_report(family: TripleFamily,
                      x_scale: int = DEFAULT_X_SCALE) -> BoundReport:
    """Discrete second moment over the well-spaced triples against
    L * (Q^2 T + N) * G."""
    L = _log_scale(x_scale)
    rhs = L * (family.Q**2 * family.T + family.N) * family.G
    return BoundReport(lhs=family.moment(2), rhs_formula_value=rhs,
                       parameters={"Q": family.Q, "T": family.T,
                                   "N": family.N, "G": family.G,
                                   "sigma": family.sigma},
                       label="mean-value")


def fourth_moment_report(Q: int, T: float, N: int,
                         tables: MultiplicativeTables | None = None,
                         x_scale: int = DEFAULT_X_SCALE) -> BoundReport:
    """Fourth moment at sigma = 1/2 for unit coefficients against
    Q^2 T L^10.

    The untwisted (modulus-1) polynomial is excluded from the default
    family: its peak near t = 0 contributes |S(1/2)|^4 on the order of
    N^2, while the right side carries no N term to absorb it.  That
    diagonal piece is the extracted main term and is handled by the
    main-term analysis, not by this twisted-moment bound.
    """
    L = _log_scale(x_scale)
    family = build_triple_family(Q, T, N, None, "unit", tables, sigma=0.5,
                                 min_conductor=2)
    rhs = Q**2 * T * L**10
    return BoundReport(lhs=family.moment(4), rhs_formula_value=rhs,
                       parameters={"Q": Q, "T": T, "N": family.N},
                       label="fourth-moment")


def derivative_second_moment_report(Q: int, T: float, N: int,
                                    tables: MultiplicativeTables | None = None,
                                    x_scale: int = DEFAULT_X_SCALE) -> BoundReport:
    """Optional extra: second moment of the derivative polynomial
    (coefficients a_n log n) against Q^2 T L^13."""
    L = _log_scale(x_scale)
    coeffs = {n: math.log(n) for n in range(N + 1, 2 * N + 1)}
    family = build_triple_family(Q, T, N, None, "explicit", tables, sigma=0.5,
                                 coefficients=coeffs)
    rhs = Q**2 * T * L**13
    return BoundReport(lhs=family.moment(2), rhs_formula_value=rhs,
                       parameters={"Q": Q, "T": T, "N": N},
                       label="derivative-second-moment")


def large_value_report(family: TripleFamily, V: float,
                       x_scale: int = DEFAULT_X_SCALE) -> BoundReport:
    """Count of triples with |S| >= V against
    G N V^-2 L^6 + G^3 N Q^2 T V^-6 L^18."""
    import numpy as np
    if not 0 < V < math.inf:
        raise ValueError("V must be positive and finite")
    L = _log_scale(x_scale)
    count = sum(int(np.sum(v >= V)) for v in family.abs_values)
    G, N, Q, T = family.G, family.N, family.Q, family.T
    rhs = G * N * V**-2 * L**6 + G**3 * N * Q**2 * T * V**-6 * L**18
    return BoundReport(lhs=float(count), rhs_formula_value=rhs,
                       parameters={"Q": Q, "T": T, "N": N, "V": V, "G": G},
                       label="large-values")


def large_value_count_bruteforce(family: TripleFamily, V: float) -> int:
    """Oracle: re-evaluate |S| from scratch at every triple and count."""
    count = 0
    for P, J in zip(family.polynomials, family.spaced_sets):
        for t in J.points:
            if abs(P.eval(t, sigma=family.sigma)) >= V:
                count += 1
    return count
