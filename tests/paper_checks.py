"""The paper's steps that the tests check and no bvlab command emits.

Each function is a test-side computation built on the library: the
progression sums and the character decomposition of psi(y; q, a), the
character extremum, the inducing primitive character, the divisor
moment and the exact partial sum of a product of Dirichlet polynomials.
The library keeps only what its commands, scripts and benchmark run.
"""

from __future__ import annotations

import math
from math import gcd

import numpy as np

from bvlab.characters import (
    CharacterGroup,
    DirichletCharacter,
    _lift,
    euler_phi,
    factorize,
)
from bvlab.dpoly import DEFAULT_X_SCALE
from bvlab.perron import _ring_partial_sum, _to_complex, product_coefficients
from bvlab.reports import BoundReport


def psi_ap(y, q, a, tables):
    """Sum of Lambda(n) over prime powers n <= y with n = a (mod q)."""
    pp, logs = tables.jumps(y)
    if q < 1:
        raise ValueError("q must be positive")
    return math.fsum(logs[pp % q == a % q])


def psi_coprime(y, q, tables):
    """Sum of Lambda(n) over n <= y coprime to q."""
    pp, logs = tables.jumps(y)
    if q < 1:
        raise ValueError("q must be positive")
    return math.fsum(logs[np.gcd(pp, q) == 1])


def _residue_weights(y, q, tables):
    """w[r] = sum of Lambda(n) over prime powers n <= y, n = r (mod q)."""
    pp, logs = tables.jumps(y)
    return np.bincount((pp % q).astype(np.int64), weights=logs, minlength=q)


def _twisted_sum(w, chi):
    """sum over residues r of w[r] chi(r), each part by one math.fsum."""
    vals = chi.value_table()
    re = math.fsum(w[r] * vals[r].real for r in range(chi.q) if w[r])
    im = math.fsum(w[r] * vals[r].imag for r in range(chi.q) if w[r])
    return complex(re, im)


def psi_chi(y, chi, tables):
    """psi(y, chi) = sum of Lambda(n) chi(n) over n <= y."""
    return _twisted_sum(_residue_weights(y, chi.q, tables), chi)


def progression_identity_residual(y, q, a, tables):
    """|LHS - RHS| of the character-orthogonality decomposition of the
    progression sum: psi(y; q, a) - psi_coprime(y)/phi(q) against
    (1/phi(q)) * sum over non-principal chi of conj(chi(a)) psi(y, chi)."""
    if gcd(a, q) != 1:
        raise ValueError(f"a={a} and q={q} must be coprime")
    group = CharacterGroup(q)
    phi_q = euler_phi(q)
    lhs = psi_ap(y, q, a, tables) - psi_coprime(y, q, tables) / phi_q

    w = _residue_weights(y, q, tables)
    # characters()[0] is the principal character
    rhs = sum(chi.value_table()[a % q].conjugate() * _twisted_sum(w, chi)
              for chi in group.characters()[1:]) / phi_q
    return abs(lhs - rhs)


def character_extremum(x, chi, tables):
    """(y(chi), a(chi)): the first jump y <= x maximizing |psi(y, chi)|
    (1 if none exceeds 0), by a running sum over the jumps, and the
    unimodular a(chi) with a(chi) psi(y(chi), chi) = |psi(y(chi), chi)|."""
    vals = chi.value_table()
    pp, logs = tables.jumps(x)
    running = 0j
    best_abs, best_y = 0.0, 1.0
    for n, lg in zip(pp.tolist(), logs.tolist()):
        running += lg * vals[n % chi.q]
        if abs(running) > best_abs:
            best_abs, best_y = abs(running), float(n)
    value = psi_chi(best_y, chi, tables)
    return best_y, 1 + 0j if value == 0 else abs(value) / value


def conductor_and_primitivity(chi):
    """Conductor, primitivity flag, and the inducing primitive character:
    chi is trivial on the units = 1 mod f, so at the lift to q of a
    generator of f of order o its turn k gives the exponent k o / ord chi."""
    f = chi.conductor
    f_group = CharacterGroup(f)
    moduli = {comp.p: comp.modulus for comp in chi.group.components}
    order = chi.order
    new_exps = []
    for f_comp in f_group.components:
        for g, o in zip(f_comp.generators, f_comp.orders):
            k = chi.evaluate(_lift(g, moduli[f_comp.p], chi.q))
            assert k * o % order == 0
            new_exps.append(k * o // order)
    inducing = DirichletCharacter(f_group, tuple(new_exps))
    assert inducing.conductor == f
    return f, f == chi.q, inducing


def tau_b(n, b):
    """Number of ordered b-tuples of positive integers with product n."""
    if n < 1:
        raise ValueError("n must be positive")
    if not 1 <= b <= 8:
        raise ValueError("b must be in [1, 8]")
    out = 1
    for _, e in factorize(n):
        out *= math.comb(e + b - 1, b - 1)
    return out


def divisor_moment_report(N, b, x_scale=DEFAULT_X_SCALE):
    """N^-1 * sum over n <= 2N of tau_b(n)^2 against L^(b^2 - 1)."""
    if N < 1:
        raise ValueError("N must be at least 1")
    if not 1 <= b <= 8:
        raise ValueError("b must be in [1, 8]")
    L = math.log(x_scale)
    total = sum(tau_b(n, b) ** 2 for n in range(1, 2 * N + 1))
    return BoundReport(lhs=total / N, rhs_formula_value=L ** (b * b - 1),
                       parameters={"N": N, "b": b}, label="divisor-moment")


def exact_partial_sum(family, y):
    """sum_{n <= y} of the product coefficients, via convolution arrays."""
    return _to_complex(_ring_partial_sum(product_coefficients(family), y))
