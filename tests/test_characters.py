import functools
import math
import os
import subprocess
import sys
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bvlab
from bvlab.arith import _least_prime_factors
from bvlab.characters import (
    CharacterGroup,
    character_group,
    euler_phi,
    factorize,
    primitive_count,
    unit_root,
)
from bvlab.dpoly import DirichletPolynomial
from paper_checks import conductor_and_primitivity, exact_partial_sum


def test_unit_root_reads_the_reduced_fraction():
    assert [unit_root(k, 4) for k in range(4)] == [1, 1j, -1, -1j]
    assert [unit_root(k, 8) for k in (0, 2, 4, 6)] == [1, 1j, -1, -1j]
    assert unit_root(-1, 4) == -1j and unit_root(9, 4) == 1j
    assert unit_root(0, 1) == 1
    for n in range(1, 61):
        for j in range(-n, 2 * n):
            g = gcd(j, n)
            assert unit_root(j, n) == unit_root(j // g, n // g), (j, n)
            assert abs(abs(unit_root(j, n)) - 1.0) < 1e-15


@pytest.mark.parametrize("q", [19, 27, 37])
def test_exact_partial_sum_and_value_table_agree_bit_for_bit(q):
    # a one-term polynomial at n: the exact side must convert chi(n) to a
    # complex number by the same route as the float side's value table
    for chi in character_group(q):
        table = chi.value_table()
        for n in range(q + 1, 2 * q + 1):
            if gcd(n, q) != 1:
                continue
            P = DirichletPolynomial(N=n - 1, N_prime=n, kind="unit", chi=chi)
            assert exact_partial_sum([P], n + 0.5) == table[n % q], (chi, n)


def test_group_sizes_match_phi():
    for q in range(1, 60):
        group = CharacterGroup(q)
        phi = sum(1 for a in range(1, q + 1) if gcd(a, q) == 1)
        assert len(group.characters()) == phi


def test_principal_character_first():
    for q in (1, 2, 8, 15, 36):
        chars = character_group(q)
        assert not any(chars[0].component_exponents)
        assert sum(not any(chi.component_exponents) for chi in chars) == 1


def test_values_are_roots_of_unity_or_zero():
    for q in (7, 8, 12, 45):
        for chi in character_group(q):
            for n in range(2 * q):
                k = chi.evaluate(n)
                if gcd(n, q) == 1:
                    assert isinstance(k, int) and 0 <= k < chi.order
                else:
                    assert k is None


@given(st.integers(min_value=1, max_value=40),
       st.integers(min_value=0, max_value=200),
       st.integers(min_value=0, max_value=200))
@settings(max_examples=200, deadline=None)
def test_complete_multiplicativity(q, m, n):
    chi = character_group(q)[-1]
    lhs = chi.evaluate(m * n)
    k_m, k_n = chi.evaluate(m), chi.evaluate(n)
    rhs = None if k_m is None or k_n is None else (k_m + k_n) % chi.order
    assert lhs == rhs  # exact integer turns, no floats


def test_orthogonality_exact_small():
    for q in (3, 4, 5, 8, 12, 21):
        group = CharacterGroup(q)
        chars = group.characters()
        units = [a for a in range(q) if gcd(a, q) == 1] if q > 1 else [0]
        M = np.array([[chi.value_table()[a] for a in units] for chi in chars])
        eye = len(chars) * np.eye(len(chars))
        assert np.max(np.abs(M.conj().T @ M - eye)) <= 1e-12
        assert np.max(np.abs(M @ M.conj().T - eye)) <= 1e-12


def _conductor_bruteforce(chi):
    """Smallest f | q whose character induces chi on units mod q."""
    q = chi.q
    for f in sorted(d for d in range(1, q + 1) if q % d == 0):
        for psi in character_group(f):
            if psi.order == chi.order and all(
                chi.evaluate(n) == psi.evaluate(n)
                for n in range(1, q + 1)
                if gcd(n, q) == 1
            ):
                return f, psi
    raise AssertionError("no inducing character found")


def test_conductor_against_bruteforce():
    for q in (1, 2, 3, 4, 8, 9, 12, 15, 16, 24, 36, 40):
        for chi in character_group(q):
            f_fast, primitive, inducing = conductor_and_primitivity(chi)
            f_slow, psi_slow = _conductor_bruteforce(chi)
            assert f_fast == f_slow
            assert primitive == (f_fast == q)
            assert inducing.q == f_fast
            assert inducing.order == chi.order
            for n in range(1, q + 1):
                if gcd(n, q) == 1:
                    assert chi.evaluate(n) == inducing.evaluate(n)


def _conductor_by_definition(chi):
    """Least d | q with chi(n) = 1 for every unit n = 1 mod d."""
    q = chi.q
    for d in range(1, q + 1):
        if q % d == 0 and all(chi.evaluate(n) == 0 for n in range(1, q + 1, d)
                              if gcd(n, q) == 1):
            return d
    raise AssertionError("d = q always qualifies")


@pytest.mark.parametrize("q", [32, 64, 128, 27, 81, 25, 125, 49, 96, 108, 200])
def test_conductor_and_inducing_character_by_definition(q):
    units = [n for n in range(1, q + 1) if gcd(n, q) == 1]
    for chi in character_group(q):
        f, primitive, inducing = conductor_and_primitivity(chi)
        assert f == chi.conductor == _conductor_by_definition(chi), chi
        assert primitive == (f == q)
        assert inducing.q == f and inducing.is_primitive
        assert inducing.order == chi.order
        assert all(inducing.evaluate(n) == chi.evaluate(n) for n in units), chi


def test_generator_convention():
    gens = {q: [c.generators for c in CharacterGroup(q).components]
            for q in (2, 4, 8, 16, 9, 25, 45, 63)}
    assert gens == {
        2: [()], 4: [(3,)], 8: [(7, 5)], 16: [(15, 5)],
        9: [(2,)], 25: [(2,)], 45: [(2,), (2,)], 63: [(2,), (3,)],
    }
    assert CharacterGroup(16).orders == (2, 4)
    assert CharacterGroup(45).orders == (6, 4)
    # lifted by CRT to g mod p^e, 1 mod q/p^e: 11 = 2 mod 9 = 1 mod 5
    assert CharacterGroup(45).generators == (11, 37)
    assert CharacterGroup(40).generators == (31, 21, 17)
    for q in (1, 2, 8, 45, 720):
        assert sorted(CharacterGroup(q).units()) == [
            n for n in range(q) if gcd(n, q) == 1]
    chars16, chars45 = character_group(16), character_group(45)
    assert chars16[0].component_exponents == (0, 0)
    assert chars16[-1].component_exponents == (1, 3)
    assert chars45[0].component_exponents == (0, 0)
    assert chars45[-1].component_exponents == (5, 3)


@functools.cache
def _old_dlogs(m, generators, orders):
    """{r: (k_i)} with r = prod g_i^k_i mod m = p^e over one component's
    own generators: the discrete-log table of the per-component route."""
    table = {1 % m: ()}
    for g, o in zip(generators, orders):
        step = {}
        for x, ks in table.items():
            for k in range(o):
                step[x] = ks + (k,)
                x = x * g % m
        table = step
    return table


def _old_component_turn(comp, exps, r):
    """chi_p(r) = e(k / E_p) with E_p the component's largest order."""
    E = max(comp.orders, default=1)
    ks = _old_dlogs(comp.modulus, comp.generators, comp.orders)[r % comp.modulus]
    return sum(c * k * (E // o) for c, k, o in zip(exps, ks, comp.orders)) % E


def _old_route(chi):
    """chi's turns on 0..q-1 by the per-component route: a gcd, a dlog and
    a turn over each component's exponent, summed over the group exponent
    lcm(orders), then reduced to ord chi."""
    group, q = chi.group, chi.q
    E = math.lcm(*group.orders)
    out = []
    for r in range(q):
        if gcd(r, q) != 1:
            out.append(None)
            continue
        total, pos = 0, 0
        for comp in group.components:
            exps = chi.component_exponents[pos:pos + len(comp.orders)]
            pos += len(comp.orders)
            total += _old_component_turn(comp, exps, r) * (E // max(comp.orders, default=1))
        out.append(total % E // (E // chi.order))
    return out


def _old_inducing_exponents(chi):
    f_comps = {c.p: c for c in CharacterGroup(chi.conductor).components}
    out, pos = [], 0
    for comp in chi.group.components:
        exps = chi.component_exponents[pos:pos + len(comp.orders)]
        pos += len(comp.orders)
        f_comp = f_comps.get(comp.p)
        if f_comp is None:
            continue
        E = max(comp.orders, default=1)
        for g, o in zip(f_comp.generators, f_comp.orders):
            out.append(_old_component_turn(comp, exps, g) * o // E)
    return tuple(out)


def _hex(values):
    return [(v.real.hex(), v.imag.hex()) for v in values]


def _sampled_characters():
    for q in range(1, 61):
        yield from character_group(q)
    for q in (128, 243, 256, 625, 1000, 1024, 2310, 4096):
        chars = character_group(q)
        yield from chars[::max(1, len(chars) // 12)] + chars[-1:]


def test_walk_matches_per_component_route():
    # the turn table walked over the lifted generator powers against the
    # discrete-log route it replaced: the same integer turns on n in
    # [0, 2q + 2], and the same value-table bits
    for chi in _sampled_characters():
        q, old = chi.q, _old_route(chi)
        assert [chi.evaluate(n) for n in range(2 * q + 3)] == \
            [old[n % q] for n in range(2 * q + 3)], chi
        assert _hex(chi.value_table()) == \
            _hex([0j if k is None else unit_root(k, chi.order) for k in old]), chi
    for q in range(1, 121):
        for chi in character_group(q):
            _, _, inducing = conductor_and_primitivity(chi)
            assert inducing.component_exponents == _old_inducing_exponents(chi), chi


def test_primitive_count_formula():
    for q in range(1, 300):
        enumerated = sum(
            1 for chi in character_group(q) if chi.is_primitive
        )
        assert enumerated == primitive_count(q)


def test_known_conductor_facts():
    # mod 4: the nonprincipal character is primitive
    chars4 = character_group(4)
    conds = sorted(chi.conductor for chi in chars4)
    assert conds == [1, 4]
    # mod 2 has no primitive character except the trivial pattern mod 1
    assert primitive_count(2) == 0
    assert primitive_count(1) == 1


def test_order_divides_phi():
    for q in (5, 8, 16, 21, 35):
        group = CharacterGroup(q)
        for chi in group.characters():
            assert euler_phi(q) % chi.order == 0
            # the order is attained: the lcm of the orders of the values
            # chi(n) = e(k / order) over the units is the order itself
            units = [n for n in range(1, q + 1) if gcd(n, q) == 1]
            ks = [chi.evaluate(n) for n in units]
            assert all(0 <= k < chi.order for k in ks)
            assert math.lcm(*(chi.order // gcd(k, chi.order) for k in ks)) \
                == chi.order


def test_real_characters_take_pm_one():
    for q in (3, 4, 5, 8, 12):
        for chi in character_group(q):
            if chi.is_real:
                for n in range(q):
                    v = chi.value_table()[n]
                    assert abs(v.imag) < 1e-15


def test_quarter_turn_values_are_exact():
    for q in range(1, 61):
        for chi in character_group(q):
            table = chi.value_table()
            if chi.is_real:
                assert all(v.imag == 0.0 for v in table), chi
            if chi.order == 4:
                assert all(v in (0, 1, -1, 1j, -1j) for v in table), chi
                assert {table[r] for r in range(q) if gcd(r, q) == 1} == \
                    {1, -1, 1j, -1j}, chi


def _spf_phi(spf, n):
    """phi(n) by walking the sieve's smallest prime factors spf."""
    out = n
    while n > 1:
        p = int(spf[n])
        out = out // p * (p - 1)
        while n % p == 0:
            n //= p
    return out


def test_factorize_helpers_match_sieve(tables):
    spf = _least_prime_factors(tables.limit)[0]
    for n in range(1, tables.limit + 1):
        f = factorize(n)
        assert math.prod(p**e for p, e in f) == n
        assert [p for p, _ in f] == sorted(p for p, _ in f)
        assert euler_phi(n) == _spf_phi(spf, n), n
    with pytest.raises(ValueError):
        factorize(0)
    # a float or a bool is refused, not factored as a number
    for call, arg in ((factorize, 12.0), (euler_phi, 10.0), (euler_phi, True),
                      (primitive_count, 9.0), (CharacterGroup, 4.0)):
        with pytest.raises(TypeError, match="n must be an int"):
            call(arg)


def test_primitive_count_matches_mobius_sum(tables):
    # the closed form against sum over d|q of mu(d) phi(q/d), with mu from
    # the sieve and phi from its smallest prime factors
    spf = _least_prime_factors(tables.limit)[0]
    mobius = tables.mobius_upto(3000)
    for q in range(1, 3001):
        total = sum(int(mobius[d]) * _spf_phi(spf, q // d)
                    for d in range(1, q + 1) if q % d == 0)
        assert primitive_count(q) == total, q
    with pytest.raises(ValueError):
        primitive_count(0)


def test_characters_and_exponents_import_without_numpy():
    # importing bvlab, any of its nine modules, loads neither numpy nor
    # scipy: they load only where arrays are built or E1 is evaluated, so
    # the exact Fraction workloads do not pay for them. A module's imports
    # are a subset of all nine's, so one interpreter checks every module.
    modules = ", ".join(f"bvlab.{m}" for m in (
        "arith", "characters", "cli", "dpoly", "exponents", "heathbrown",
        "perron", "progressions", "reports"))
    code = (f"import sys, {modules}; "
            "loaded = {'numpy', 'scipy'} & set(sys.modules); "
            "assert not loaded, loaded")
    src = os.path.dirname(os.path.dirname(bvlab.__file__))
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})
