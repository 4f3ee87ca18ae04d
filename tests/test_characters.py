import math
import os
import subprocess
import sys
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bvlab
from bvlab.characters import (
    CharacterGroup,
    RootOfUnity,
    character_group,
    conductor_and_primitivity,
    euler_phi,
    factorize,
    mobius,
    primitive_count,
)


def test_root_of_unity_algebra():
    i = RootOfUnity.of(1, 4)
    assert (i * i * i * i).is_one
    assert i.conjugate() == RootOfUnity.of(3, 4)
    assert abs(i.to_complex() - 1j) < 1e-15
    z = RootOfUnity.zero()
    assert (z * i) == z
    assert RootOfUnity.of(5, 10) == RootOfUnity.of(1, 2)  # reduced form


def test_group_sizes_match_phi():
    for q in range(1, 60):
        group = CharacterGroup(q)
        phi = sum(1 for a in range(1, q + 1) if gcd(a, q) == 1)
        assert group.phi == phi
        assert len(group.characters()) == phi


def test_principal_character_first():
    for q in (1, 2, 8, 15, 36):
        chars = character_group(q)
        assert chars[0].is_principal
        assert sum(chi.is_principal for chi in chars) == 1


def test_values_are_roots_of_unity_or_zero():
    for q in (7, 8, 12, 45):
        for chi in character_group(q):
            for n in range(2 * q):
                v = chi(n)
                if gcd(n, q) == 1:
                    assert not v.zero_flag
                    assert abs(abs(v.to_complex()) - 1.0) < 1e-15
                else:
                    assert v.zero_flag


@given(st.integers(min_value=1, max_value=40),
       st.integers(min_value=0, max_value=200),
       st.integers(min_value=0, max_value=200))
@settings(max_examples=200, deadline=None)
def test_complete_multiplicativity(q, m, n):
    chi = character_group(q)[-1]
    lhs = chi(m * n)
    rhs = chi(m) * chi(n)
    assert lhs == rhs  # exact root-of-unity arithmetic, no floats


def test_orthogonality_exact_small():
    for q in (3, 4, 5, 8, 12, 21):
        group = CharacterGroup(q)
        chars = group.characters()
        units = [a for a in range(q) if gcd(a, q) == 1] if q > 1 else [0]
        M = np.array([[chi.value_table()[a] for a in units] for chi in chars])
        eye = group.phi * np.eye(group.phi)
        assert np.max(np.abs(M.conj().T @ M - eye)) <= 1e-12
        assert np.max(np.abs(M @ M.conj().T - eye)) <= 1e-12


def _conductor_bruteforce(chi):
    """Smallest f | q whose character induces chi on units mod q."""
    q = chi.q
    for f in sorted(d for d in range(1, q + 1) if q % d == 0):
        for psi in character_group(f):
            if all(
                chi(n) == psi(n)
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
            for n in range(1, q + 1):
                if gcd(n, q) == 1:
                    assert chi(n) == inducing(n)


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
            assert group.phi % chi.order == 0
            # chi^order is principal: chi(n)^order = 1 on units
            g = next(a for a in range(2, q + 2) if gcd(a, q) == 1)
            v = chi(g)
            acc = RootOfUnity.one()
            for _ in range(chi.order):
                acc = acc * v
            assert acc.is_one


def test_real_characters_take_pm_one():
    for q in (3, 4, 5, 8, 12):
        for chi in character_group(q):
            if chi.is_real:
                for n in range(q):
                    v = chi(n).to_complex()
                    assert abs(v.imag) < 1e-15


def test_quarter_turn_values_are_exact():
    assert [RootOfUnity.of(k, 4).to_complex() for k in range(4)] == \
        [1, 1j, -1, -1j]
    for q in range(1, 61):
        for chi in character_group(q):
            table = chi.value_table()
            if chi.is_real:
                assert all(v.imag == 0.0 for v in table), chi
            if chi.order == 4:
                assert all(v in (0, 1, -1, 1j, -1j) for v in table), chi
                assert {table[r] for r in range(q) if gcd(r, q) == 1} == \
                    {1, -1, 1j, -1j}, chi


def test_factorize_helpers_match_sieve(tables):
    for n in range(1, tables.limit + 1):
        f = factorize(n)
        assert math.prod(p**e for p, e in f) == n
        assert [p for p, _ in f] == sorted(p for p, _ in f)
        assert euler_phi(n) == int(tables.phi[n]), n
        assert mobius(n) == int(tables.mobius[n]), n
    with pytest.raises(ValueError):
        factorize(0)


def test_characters_and_exponents_import_without_numpy():
    # the exact Fraction workloads must not pay for numpy at import time
    code = ("import sys, bvlab.characters, bvlab.exponents; "
            "assert 'numpy' not in sys.modules")
    src = os.path.dirname(os.path.dirname(bvlab.__file__))
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})
