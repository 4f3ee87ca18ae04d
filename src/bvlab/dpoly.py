"""Dirichlet polynomials on dyadic intervals and the discrete mean-value,
fourth-moment, large-value, and divisor-moment inequality checkers.

Every checker returns a BoundReport (lhs, rhs formula value, ratio): the
implied constants of the checked inequalities are estimated as observed
ratios over declared sweeps, never asserted. The interval-stretch constant
is fixed at 2: every polynomial lives on (N, 2N] or a sub-interval.

The x entering L = log x and the x^(9/20) terms is a configuration scale
decoupled from sieve limits (default 2^40), so the exponent shapes can be
probed without astronomical tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .arith import MultiplicativeTables, tau_b
from .characters import CharacterGroup, DirichletCharacter
from .reports import BoundReport

DEFAULT_X_SCALE = 2**40
GRID_STEP = 0.25  # sampling grid for well-spaced point selection


class DifficultIntervalError(ValueError):
    """N_j falls in the exponent range (9/40, 1/4) where neither the
    second-moment nor the fourth-moment route applies."""


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

    @property
    def G(self) -> float:
        base = self.base_coefficients()
        return float(np.sum(np.abs(base) ** 2))

    def twisted_coefficients(self) -> np.ndarray:
        chi_vals = np.asarray(self.chi.value_table())[self._ns % self.chi.q]
        return self.base_coefficients() * chi_vals

    def eval(self, t: float, sigma: float = 0.5) -> complex:
        """Compensated evaluation at s = sigma + i t."""
        if len(self._ns) == 0:
            return 0j
        c = self.twisted_coefficients()
        terms = c * self._ns.astype(np.float64) ** (-sigma) * np.exp(
            -1j * t * np.log(self._ns.astype(np.float64))
        )
        return complex(math.fsum(terms.real), math.fsum(terms.imag))


def _base_coefficients(kind, ns, tables, explicit):
    if kind == "unit":
        return np.ones(len(ns), dtype=np.complex128)
    if kind == "mobius":
        if tables is None or (len(ns) and ns[-1] > tables.limit):
            raise ValueError("mobius coefficients need tables covering N'")
        return tables.mobius[ns].astype(np.complex128)
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
        pts = sorted(self.points)
        for a, b in zip(pts, pts[1:]):
            if b - a < 1.0:
                raise ValueError(f"points {a} and {b} are closer than 1")
        self.points = pts


def select_well_spaced(P: DirichletPolynomial, T: float,
                       sigma: float = 0.0,
                       grid_step: float = GRID_STEP) -> WellSpacedSet:
    """Greedy 1-spaced selection of local peaks of |S| on a sampling grid."""
    if T < 1:
        raise ValueError("T must be at least 1")
    t_grid = _t_grid(T, grid_step)
    C = P.twisted_coefficients()[:, None]
    vals = _grid_abs_values(t_grid, P.support, sigma, C)[:, 0]
    return WellSpacedSet(chi=P.chi, points=_greedy_spaced(t_grid, vals))


def _t_grid(T: float, grid_step: float) -> np.ndarray:
    steps = int(round(T / grid_step))
    return np.arange(-steps, steps + 1, dtype=np.float64) * grid_step


def _grid_abs_values(t_grid: np.ndarray, ns: np.ndarray, sigma: float,
                     C: np.ndarray) -> np.ndarray:
    """|sum_n C[n, j] n^(-sigma - it)| for every t in t_grid (rows) and
    every coefficient column j: one matrix product for all columns."""
    if len(ns) == 0:
        return np.zeros((len(t_grid), C.shape[1]))
    nf = ns.astype(np.float64)
    phase = np.exp(-1j * np.outer(t_grid, np.log(nf)))
    phase *= nf ** (-sigma)
    return np.abs(phase @ C)


def _greedy_spaced(t_grid: np.ndarray, vals: np.ndarray) -> list[float]:
    order = sorted(range(len(t_grid)), key=lambda k: (-vals[k], t_grid[k]))
    chosen: list[float] = []
    for k in order:
        t = float(t_grid[k])
        if all(abs(t - c) >= 1.0 for c in chosen):
            chosen.append(t)
    return sorted(chosen)


def primitive_characters(Q: int,
                         min_conductor: int = 1) -> list[DirichletCharacter]:
    """All primitive characters mod q over min_conductor <= q < 2Q
    (q = 1 contributes the trivial character)."""
    out = []
    for q in range(min_conductor, 2 * Q):
        for chi in CharacterGroup(q).characters():
            if chi.is_primitive:
                out.append(chi)
    return out


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
    polynomials: list[DirichletPolynomial]
    spaced_sets: list[WellSpacedSet]
    abs_values: list[np.ndarray]  # |S| at the selected points, per chi
    G: float

    def triples(self):
        for P, J, vals in zip(self.polynomials, self.spaced_sets, self.abs_values):
            for t, v in zip(J.points, vals):
                yield P.chi.q, P.chi, t, float(v)


def build_triple_family(
    Q: int,
    T: float,
    N: int,
    N_prime: int | None,
    kind: str,
    tables: MultiplicativeTables | None,
    sigma: float = 0.0,
    grid_step: float = GRID_STEP,
    min_conductor: int = 1,
    coefficients: dict[int, complex] | None = None,
) -> TripleFamily:
    """``coefficients`` is the a_n map of the "explicit" kind."""
    if N_prime is None:
        N_prime = 2 * N
    chis = primitive_characters(Q, min_conductor=min_conductor)
    t_grid = _t_grid(T, grid_step)
    ns = np.arange(N + 1, N_prime + 1, dtype=np.int64)
    base = _base_coefficients(kind, ns, tables, coefficients)

    polys = []
    C = np.empty((len(ns), len(chis)), dtype=np.complex128)
    for j, chi in enumerate(chis):
        P = DirichletPolynomial(N=N, N_prime=N_prime, kind=kind, chi=chi,
                                coefficients=coefficients)
        P._base = base  # a_n does not depend on chi: shared, not recomputed
        C[:, j] = P.twisted_coefficients()
        polys.append(P)
    grid_vals = _grid_abs_values(t_grid, ns, sigma, C)

    spaced, abs_vals = [], []
    for j, chi in enumerate(chis):
        points = _greedy_spaced(t_grid, grid_vals[:, j])
        spaced.append(WellSpacedSet(chi=chi, points=points))
        abs_vals.append(grid_vals[np.searchsorted(t_grid, points), j])
    return TripleFamily(Q=Q, T=T, N=N, N_prime=N_prime, kind=kind, sigma=sigma,
                        polynomials=polys, spaced_sets=spaced, abs_values=abs_vals,
                        G=float(np.sum(np.abs(base) ** 2)))


def mean_value_report(family: TripleFamily,
                      x_scale: int = DEFAULT_X_SCALE) -> BoundReport:
    """Discrete second moment over the well-spaced triples against
    L * (Q^2 T + N) * G."""
    L = math.log(x_scale)
    lhs = math.fsum(float(np.sum(v**2)) for v in family.abs_values)
    rhs = L * (family.Q**2 * family.T + family.N) * family.G
    return BoundReport(lhs=lhs, rhs_formula_value=rhs,
                       parameters={"Q": family.Q, "T": family.T,
                                   "N": family.N, "G": family.G,
                                   "sigma": family.sigma},
                       label="mean-value")


def fourth_moment_report(Q: int, T: float, N: int,
                         tables: MultiplicativeTables | None = None,
                         x_scale: int = DEFAULT_X_SCALE,
                         family: TripleFamily | None = None) -> BoundReport:
    """Fourth moment at sigma = 1/2 for unit coefficients against
    Q^2 T L^10.

    The untwisted (modulus-1) polynomial is excluded from the default
    family: its peak near t = 0 contributes |S(1/2)|^4 on the order of
    N^2, while the right side carries no N term to absorb it.  That
    diagonal piece is the extracted main term and is handled by the
    main-term analysis, not by this twisted-moment bound.
    """
    if family is None:
        family = build_triple_family(Q, T, N, None, "unit", tables, sigma=0.5,
                                     min_conductor=2)
    if family.kind != "unit":
        raise ValueError("the fourth-moment bound is stated for unit "
                         "coefficients only")
    L = math.log(x_scale)
    lhs = math.fsum(float(np.sum(v**4)) for v in family.abs_values)
    rhs = Q**2 * T * L**10
    return BoundReport(lhs=lhs, rhs_formula_value=rhs,
                       parameters={"Q": Q, "T": T, "N": family.N},
                       label="fourth-moment")


def derivative_second_moment_report(Q: int, T: float, N: int,
                                    tables: MultiplicativeTables | None = None,
                                    x_scale: int = DEFAULT_X_SCALE) -> BoundReport:
    """Optional extra: second moment of the derivative polynomial
    (coefficients a_n log n) against Q^2 T L^13."""
    coeffs = {n: math.log(n) for n in range(N + 1, 2 * N + 1)}
    family = build_triple_family(Q, T, N, None, "explicit", tables, sigma=0.5,
                                 coefficients=coeffs)
    L = math.log(x_scale)
    lhs = math.fsum(float(np.sum(v**2)) for v in family.abs_values)
    rhs = Q**2 * T * L**13
    return BoundReport(lhs=lhs, rhs_formula_value=rhs,
                       parameters={"Q": Q, "T": T, "N": N},
                       label="derivative-second-moment")


def large_value_report(family: TripleFamily, V: float,
                       x_scale: int = DEFAULT_X_SCALE) -> BoundReport:
    """Count of triples with |S| >= V against
    G N V^-2 L^6 + G^3 N Q^2 T V^-6 L^18."""
    if V <= 0:
        raise ValueError("V must be positive")
    L = math.log(x_scale)
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


def divisor_moment_report(N: int, b: int, tables: MultiplicativeTables,
                          x_scale: int = DEFAULT_X_SCALE) -> BoundReport:
    """N^-1 * sum over n <= 2N of tau_b(n)^2 against L^(b^2 - 1)."""
    if not 1 <= b <= 8:
        raise ValueError("b must be in [1, 8]")
    if 2 * N > tables.limit:
        raise ValueError("tables too small for 2N")
    L = math.log(x_scale)
    total = sum(tau_b(n, b, tables) ** 2 for n in range(1, 2 * N + 1))
    lhs = total / N
    rhs = L ** (b * b - 1)
    return BoundReport(lhs=lhs, rhs_formula_value=rhs,
                       parameters={"N": N, "b": b},
                       label="divisor-moment")


def mixed_second_moment_report(
    Q: int,
    T: float,
    N_j: int,
    tables: MultiplicativeTables | None,
    x_scale: int = DEFAULT_X_SCALE,
    kind: str = "unit",
) -> BoundReport:
    """Second moment of one dyadic factor at sigma = 1/2 against
    x^(9/20) T L^10, routed around the difficult interval: the
    second-moment path needs N_j <= x^(9/40), the fourth-moment path
    (via Cauchy-Schwarz) needs N_j > x^(1/4)."""
    small = N_j**40 <= x_scale**9
    large = N_j**4 > x_scale
    if not (small or large):
        raise DifficultIntervalError(
            f"N_j={N_j} has exponent inside (9/40, 1/4] of x={x_scale}; "
            "neither route applies"
        )
    path = "second-moment" if small else "fourth-moment-cauchy-schwarz"
    family = build_triple_family(Q, T, N_j, None, kind, tables, sigma=0.5)
    lhs = math.fsum(float(np.sum(v**2)) for v in family.abs_values)
    L = math.log(x_scale)
    rhs = x_scale ** 0.45 * T * L**10
    return BoundReport(lhs=lhs, rhs_formula_value=rhs,
                       parameters={"Q": Q, "T": T, "N_j": N_j, "path": path},
                       label="mixed-second-moment")
