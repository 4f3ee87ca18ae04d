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
Character values become shifts of the exponent, unit and Mobius
coefficients integer multiplicities, and explicit float coefficients
exact Fractions. The convolution array gives sum_{n <= y} c_n as a vector,
converted to a complex number once; a tuple enumeration
(``exact_partial_sum_bruteforce``) is the independent oracle the tests
check it against.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .dpoly import DirichletPolynomial
from .reports import BoundReport

if TYPE_CHECKING:
    import numpy as np

HORIZONTAL_TOLERANCE = 1e-12


@dataclass(frozen=True)
class ContourSpec:
    sigma0: float  # line of integration, > 1
    height: float  # truncation height
    target_sigma: float = 0.5  # shift destination for the horizontal check

    def __post_init__(self):
        if not self.sigma0 > 1:
            raise ValueError("sigma0 must exceed 1")
        if not 0 < self.target_sigma < self.sigma0:
            raise ValueError("target_sigma must lie in (0, sigma0)")
        if not self.height > 0:
            raise ValueError("height must be positive")


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
        value = P.chi.evaluate(n)
        if value.zero_flag or c == 0:
            continue
        k = value.numerator * (L // value.denominator)
        if P.kind == "explicit":
            parts = ((k, Fraction(c.real)), ((k + L // 4) % L, Fraction(c.imag)))
        else:
            parts = ((k, int(c.real)),)
        out.append((n, {e: m for e, m in parts if m != 0}))
    return out


def product_coefficients(family: list[DirichletPolynomial]) -> np.ndarray:
    """Exact coefficients of prod_j F_j as a Dirichlet series: row n of the
    (n_max + 1, L) object array holds the multiplicities of x^0..x^(L-1)
    in the coefficient of n^(-s). Empty family gives the identity."""
    import numpy as np
    L = _ring_order(family)
    n_max = 1
    for P in family:
        n_max *= int(P.N_prime)
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


def _unit_roots(L: int) -> np.ndarray:
    """exp(2 pi i j / L) for j < L, exact at the quarter turns."""
    import numpy as np
    exact = {0: 1 + 0j, 1: 1j, 2: -1 + 0j, 3: -1j}
    return np.array([exact[4 * j // L] if (4 * j) % L == 0
                     else complex(math.cos(math.tau * j / L),
                                  math.sin(math.tau * j / L))
                     for j in range(L)])


def _to_complex(vec: tuple) -> complex:
    roots = _unit_roots(len(vec))
    return complex(math.fsum(float(m) * r.real for m, r in zip(vec, roots)),
                   math.fsum(float(m) * r.imag for m, r in zip(vec, roots)))


def exact_partial_sum(family: list[DirichletPolynomial], y: float) -> complex:
    """sum_{n <= y} of the product coefficients, via convolution arrays."""
    return _to_complex(_ring_partial_sum(product_coefficients(family), y))


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

    if not y > 0:
        raise ValueError("y must be positive")
    if abs(y - round(y)) < 1e-9:
        raise ValueError("y must stay away from integers")
    coeffs_exact = product_coefficients(family)
    L = coeffs_exact.shape[1]
    exact = _to_complex(_ring_partial_sum(coeffs_exact, y))

    coeffs = coeffs_exact.astype(np.float64) @ _unit_roots(L)
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
    sigma0: float | None = None,
    rel_tol: float = 1e-8,
) -> list[PerronResult]:
    """Truncation study at increasing heights (errors reported, not asserted).
    rel_tol is accepted for compatibility; the closed form does not read it."""
    specs = [default_contour(y, h) if sigma0 is None
             else ContourSpec(sigma0=sigma0, height=h) for h in heights]
    return [truncated_perron(family, y, spec) for spec in specs]


def horizontal_bound_check(
    family: list[DirichletPolynomial],
    sigma_grid: list[float],
    height: float,
) -> BoundReport:
    """|prod F_j(sigma +- i height)| <= prod N_j^(1 - sigma), checked and
    asserted at every grid point: with at most N_j coefficients of modulus
    at most 1, each factor obeys the triangle inequality bound N_j^(1-sigma)."""
    import numpy as np
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


def write_perron_csv(results: list[PerronResult], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y", "height", "approx_re", "approx_im",
                         "exact_re", "exact_im", "abs_error"])
        for r in results:
            writer.writerow([
                f"{r.y:.12g}", f"{r.height:.12g}",
                f"{r.approx.real:.12g}", f"{r.approx.imag:.12g}",
                f"{r.exact.real:.12g}", f"{r.exact.imag:.12g}",
                f"{r.abs_error:.6g}",
            ])
