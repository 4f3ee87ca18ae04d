"""Truncated vertical-line integration of Dirichlet-polynomial products.

The partial sum sum_{n <= y} c_n of the product coefficients is recovered
as (1/2 pi i) times the integral of F(s) y^s / s over the truncated
segment from a = sigma0 - iT to b = sigma0 + iT, sigma0 > 1. The integrand
is a finite sum of terms c_n e^(lambda_n s) / s with lambda_n = log(y/n),
and the substitution u = -lambda_n s turns each into e^(-u)/u du, whose
antiderivative is -E1(u) (DLMF §6.2). So each term integrates exactly to

    c_n [(E1(-lambda_n a) - E1(-lambda_n b)) / (2 pi i) + 1{lambda_n > 0}].

The indicator is the jump of E1 across its branch cut on the negative real
axis: E1(z) = Ein(z) - log z - gamma with Ein entire (DLMF §6.2), so E1
jumps by 2 pi i where log z does. The image path -lambda_n s is vertical
at Re u = -lambda_n sigma0 and crosses the cut exactly when lambda_n > 0.
The jump equals the residue of e^(lambda s)/s at s = 0, so the truncated
integral tends to sum_{n < y} c_n as T grows.

The exact side is exact: coefficients live in the ring Q[x]/(x^L - 1),
with x standing for exp(2 pi i / L) and L the lcm of the characters'
orders (times 4 when a base coefficient is non-real, so that i = x^(L/4)).
A character value, the integer turn k with chi(n) = e(k / ord chi), is the
shift x^(k L / ord chi). Each nonzero real or imaginary part of a base
coefficient is an exact multiplicity: an int where it is whole (every unit
and Mobius coefficient), else a Fraction. The
convolution array gives sum_{n <= y} c_n as a vector, converted to a
complex number once with ``characters.unit_root``; a tuple enumeration
(``exact_partial_sum_bruteforce``) is the independent oracle the tests
check it against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .characters import unit_root
from .dpoly import DirichletPolynomial
from .reports import BoundReport

if TYPE_CHECKING:
    import numpy as np

HORIZONTAL_TOLERANCE = 1e-12


@dataclass(frozen=True)
class ContourSpec:
    sigma0: float  # line of integration, > 1
    height: float  # truncation height

    def __post_init__(self):
        if not 1 < self.sigma0 < math.inf:
            raise ValueError("sigma0 must exceed 1 and be finite")
        if not 0 < self.height < math.inf:
            raise ValueError("height must be positive and finite")


def default_contour(y: float, height: float) -> ContourSpec:
    return ContourSpec(sigma0=1.0 + 1.0 / max(math.log(y), 1.0), height=height)


@dataclass
class PerronResult:
    y: float
    height: float
    approx: complex
    exact: complex

    @property
    def abs_error(self) -> float:
        return abs(self.approx - self.exact)

    def as_row(self) -> dict:
        return {"y": self.y, "height": self.height,
                "approx_re": self.approx.real, "approx_im": self.approx.imag,
                "exact_re": self.exact.real, "exact_im": self.exact.imag,
                "abs_error": f"{self.abs_error:.6g}"}


def _ring_order(family: list[DirichletPolynomial]) -> int:
    """L for the ring Q[x]/(x^L - 1) holding every product coefficient."""
    import numpy as np
    L = 1
    for P in family:
        L = math.lcm(L, P.chi.order)
    if any(np.any(P.base_coefficients().imag != 0) for P in family):
        L *= 4
    return L


def _ring_terms(P: DirichletPolynomial, L: int) -> list[tuple[int, dict]]:
    """(n, {k: m}) with a_n chi(n) = sum_k m x^k, over the nonzero terms."""
    out = []
    for n, c in zip(P.support.tolist(), P.base_coefficients().tolist()):
        k = P.chi.evaluate(n)
        if k is None or c == 0:
            continue
        k *= L // P.chi.order
        parts = ((k, c.real), ((k + L // 4) % L, c.imag))
        out.append((n, {e: int(m) if m.is_integer() else Fraction(m)
                        for e, m in parts if m != 0}))
    return out


def product_coefficients(family: list[DirichletPolynomial]) -> np.ndarray:
    """Exact coefficients of prod_j F_j as a Dirichlet series: row n of the
    (n_max + 1, L) object array holds the multiplicities of x^0..x^(L-1)
    in the coefficient of n^(-s). Empty family gives the identity."""
    import numpy as np
    L = _ring_order(family)
    n_max = 1
    for P in family:
        n_max *= P.N_prime
    out = np.zeros((n_max + 1, L), dtype=object)
    out[1, 0] = 1
    for P in family:
        nxt = np.zeros_like(out)
        for n, terms in _ring_terms(P, L):
            block = out[1 : n_max // n + 1]
            for k, m in terms.items():
                nxt[n::n] += m * np.roll(block, k, axis=1)
        out = nxt
    return out


def _ring_partial_sum(coeffs: np.ndarray, y: float) -> tuple:
    top = min(len(coeffs) - 1, int(math.floor(y)))
    return tuple(coeffs[1 : max(top, 0) + 1].sum(axis=0, initial=0))


def _to_complex(vec: tuple) -> complex:
    roots = [unit_root(j, len(vec)) for j in range(len(vec))]
    return complex(math.fsum(float(m) * r.real for m, r in zip(vec, roots)),
                   math.fsum(float(m) * r.imag for m, r in zip(vec, roots)))


def exact_partial_sum_bruteforce(
    family: list[DirichletPolynomial], y: float
) -> complex:
    """Oracle: direct enumeration of coefficient tuples with product <= y."""
    L = _ring_order(family)
    total = [0] * L
    terms = [_ring_terms(P, L) for P in family]

    def rec(idx: int, prod: int, acc: dict):
        if idx == len(family):
            for k, m in acc.items():
                total[k] += m
            return
        for n, c in terms[idx]:
            if prod * n <= y:
                nxt: dict = {}
                for k1, m1 in acc.items():
                    for k2, m2 in c.items():
                        k = (k1 + k2) % L
                        nxt[k] = nxt.get(k, 0) + m1 * m2
                rec(idx + 1, prod * n, nxt)

    rec(0, 1, {0: 1})
    return _to_complex(tuple(total))


def truncated_perron(
    family: list[DirichletPolynomial],
    y: float,
    spec: ContourSpec,
) -> PerronResult:
    """Evaluate the truncated contour integral in closed form and pair it
    with the exact partial sum from the convolution arrays (checked against
    ``exact_partial_sum_bruteforce`` in the tests, not on every call)."""
    import numpy as np
    from scipy.special import exp1  # deferred: importing scipy.special is slow

    if not 0 < y < math.inf:
        raise ValueError("y must be positive and finite")
    if abs(y - round(y)) < 1e-9:
        raise ValueError("y must stay away from integers")
    coeffs_exact = product_coefficients(family)
    L = coeffs_exact.shape[1]
    exact = _to_complex(_ring_partial_sum(coeffs_exact, y))

    roots = np.array([unit_root(j, L) for j in range(L)])
    coeffs = coeffs_exact.astype(np.float64) @ roots
    ns = np.nonzero(coeffs)[0]
    lam = np.log(y / ns.astype(np.float64))
    a = complex(spec.sigma0, -spec.height)
    b = complex(spec.sigma0, spec.height)
    terms = (exp1(-lam * a) - exp1(-lam * b)) / (2j * math.pi) + (lam > 0)
    approx = complex(np.dot(coeffs[ns], terms))
    return PerronResult(y=y, height=spec.height, approx=approx, exact=exact)


def height_trend(
    family: list[DirichletPolynomial],
    y: float,
    heights: tuple[float, ...],
    rel_tol: float = 1e-8,
) -> list[PerronResult]:
    """Truncation study at increasing heights on default_contour's line
    (errors reported, not asserted). rel_tol is accepted for
    compatibility; the closed form does not read it."""
    return [truncated_perron(family, y, default_contour(y, h)) for h in heights]


def horizontal_bound_check(
    family: list[DirichletPolynomial],
    sigma_grid: list[float],
    height: float,
) -> BoundReport:
    """|prod F_j(sigma +- i height)| <= prod N_j^(1 - sigma), checked and
    asserted at every grid point: with at most N_j coefficients of modulus
    at most 1, each factor obeys the triangle inequality bound N_j^(1-sigma),
    which takes n^(-sigma) <= N_j^(-sigma) for n > N_j and so needs
    sigma >= 0, and a finite height and sigma (ValueError otherwise). A
    family with an empty factor has the product 0 exactly and reports the
    ratio 0."""
    import numpy as np
    if not math.isfinite(height):
        raise ValueError("height must be finite")
    if not all(0 <= sigma < math.inf for sigma in sigma_grid):
        raise ValueError("the triangle-inequality bound needs finite sigma >= 0")
    for P in family:
        if float(np.max(np.abs(P.base_coefficients()), initial=0.0)) > 1.0:
            raise ValueError("coefficients must be bounded by 1")
    worst_ratio = 0.0
    worst = {"sigma": None, "t": None}
    for sigma in sigma_grid:
        for t in (height, -height):
            prod = 1 + 0j
            bound = 1.0
            for P in family:
                if len(P.support) == 0:
                    prod, bound = 0j, 1.0
                    break
                prod *= P.eval(t, sigma=sigma)
                bound *= float(P.N) ** (1.0 - sigma)
            lhs = abs(prod)
            if lhs > bound * (1.0 + HORIZONTAL_TOLERANCE):
                raise AssertionError(
                    f"triangle-inequality bound violated at sigma={sigma}, t={t}"
                )
            ratio = lhs / bound if bound > 0 else math.inf
            if ratio > worst_ratio:
                worst_ratio = ratio
                worst = {"sigma": sigma, "t": t}
    return BoundReport(
        lhs=worst_ratio,
        rhs_formula_value=1.0,
        parameters={"height": height, "grid_size": len(sigma_grid), **worst},
        label="horizontal-triangle-bound",
    )
