import dataclasses
import math
import random
import tracemalloc
from math import gcd

import numpy as np
import pytest

from bvlab.arith import build_tables, enumerate_moduli_set
from bvlab.characters import CharacterGroup, character_group, euler_phi
from bvlab import progressions
from bvlab.progressions import (
    BLOCK,
    _ClassBlocks,
    e_dagger,
    e_dagger_bruteforce,
    e_star,
    e_star_bruteforce,
    exception_scan,
    max_modulus,
    psi,
)
from bvlab.reports import write_csv, write_json
from paper_checks import (
    character_extremum,
    conductor_and_primitivity,
    least_prime_factors,
    progression_identity_residual,
    psi_ap,
    psi_chi,
    psi_coprime,
)


def test_psi_small_values(tables):
    # psi(10) = 3 log 2 + 2 log 3 + log 5 + log 7
    expected = 3 * math.log(2) + 2 * math.log(3) + math.log(5) + math.log(7)
    assert psi(10, tables) == pytest.approx(expected, abs=1e-12)
    assert psi(1, tables) == 0.0


def test_psi_ap_worked_value(tables):
    # n <= 20 with n = 1 (mod 4): contributions from 5, 9, 13, 17
    expected = math.log(5) + math.log(3) + math.log(13) + math.log(17)
    assert psi_ap(20, 4, 1, tables) == pytest.approx(expected, abs=1e-12)


def test_psi_splits_over_residues(tables):
    for q in (3, 4, 5, 12):
        total = math.fsum(psi_ap(500, q, a, tables) for a in range(q))
        assert total == pytest.approx(psi(500, tables), abs=1e-9)


def test_psi_coprime_removes_bad_primes(tables):
    # mod 6: removes powers of 2 and 3
    removed = psi(100, tables) - psi_coprime(100, 6, tables)
    pp = tables.prime_powers
    expected = math.fsum(
        math.log(p) for n, p in
        zip(pp.tolist(), least_prime_factors(tables.limit)[pp].tolist())
        if n <= 100 and p in (2, 3)
    )
    assert removed == pytest.approx(expected, abs=1e-12)


def test_psi_chi_principal_equals_coprime_sum(tables):
    for q in (3, 8, 10):
        chi0 = character_group(q)[0]
        v = psi_chi(1000, chi0, tables)
        assert v.imag == pytest.approx(0.0, abs=1e-12)
        assert v.real == pytest.approx(psi_coprime(1000, q, tables), abs=1e-9)


def test_identity_residual_tiny(tables):
    rng = random.Random(1)
    for _ in range(25):
        q = rng.randrange(2, 50)
        a = rng.randrange(1, q)
        if gcd(a, q) != 1:
            continue
        y = rng.uniform(10, 5000)
        resid = progression_identity_residual(y, q, a, tables)
        assert resid <= 1e-8 * (1.0 + psi(y, tables))


def test_identity_requires_coprimality(tables):
    with pytest.raises(ValueError):
        progression_identity_residual(100.0, 6, 3, tables)


def test_e_star_against_bruteforce(tables):
    for q in (3, 4, 7, 9, 12):
        for x in (500, 2000):
            fast = e_star(float(x), q, tables).E_value
            slow = e_star_bruteforce(x, q, tables)
            # the jump scan also sees the sup at real y between integers,
            # which dominates the integer-y scan by less than 1/phi(q)
            assert slow <= fast + 1e-9
            assert fast <= slow + 1.0
            # at integer-valued y both scans see the same sums
            assert fast >= slow - 1e-9


def _e_star_both_limits(x, q, tables):
    """Oracle: at every integer n <= x, the deviation of each coprime
    class sum from n/phi(q) just after n, |cum[n] - n/phi(q)|, and just
    before, |cum[n - 1] - n/phi(q)|. Between integers a class sum is
    constant, so its deviation is convex in y and takes its sup over
    real y <= x at one of these."""
    lam = tables.von_mangoldt_upto(x)
    phi_q = euler_phi(q)
    n = np.arange(len(lam))
    best = 0.0
    for a in [a for a in range(q) if gcd(a, q) == 1] if q > 1 else [0]:
        cum = np.cumsum(np.where(n % q == a, lam, 0.0))
        best = max(best, float(np.max(np.abs(cum - n / phi_q))),
                   float(np.max(np.abs(cum[:-1] - n[1:] / phi_q))))
    return best


def test_e_star_against_both_limits_oracle(tables_large):
    rng = random.Random(21)
    pairs = [(x, q) for q in (3, 4, 7, 9, 12) for x in (500, 2000)]
    pairs += [(rng.randrange(2, 2 * 10**4 + 1), rng.randrange(1, 61))
              for _ in range(300)]
    for x, q in pairs:
        oracle = _e_star_both_limits(x, q, tables_large)
        assert abs(e_star(float(x), q, tables_large).E_value - oracle) <= \
            1e-12 * oracle, (x, q)


def test_e_dagger_against_bruteforce(tables):
    for q in (3, 5, 8):
        fast = e_dagger(2000.0, q, tables).E_value
        slow = e_dagger_bruteforce(2000, q, tables)
        assert fast == pytest.approx(slow, abs=1e-9)


def test_e_star_modulus_one_tracks_psi_drift(tables):
    rec = e_star(1000.0, 1, tables)
    assert rec.E_value > 0
    assert rec.y_star <= 1000.0


def test_character_extremum_is_attained(tables):
    chi = character_group(5)[1]
    y_chi, a_chi = character_extremum(2000.0, chi, tables)
    v = psi_chi(y_chi, chi, tables)
    assert abs(a_chi) == pytest.approx(1.0, abs=1e-12)
    assert (a_chi * v).real == pytest.approx(abs(v), abs=1e-9)


def reduction_gap(y, q, chi, tables):
    """The two reduction gaps, both O(L^2 log L / Q) with an empirical
    constant: (1/phi)|psi(y) - psi_coprime(y, q)| and
    (1/phi)|psi(y, chi_inducing) - psi(y, chi)|."""
    phi_q = euler_phi(q)
    g1 = abs(psi(y, tables) - psi_coprime(y, q, tables)) / phi_q
    _, _, inducing = conductor_and_primitivity(chi)
    g2 = abs(psi_chi(y, inducing, tables) - psi_chi(y, chi, tables)) / phi_q
    return g1, g2


def test_reduction_gap_small_for_primitive(tables):
    chi = character_group(5)[1]
    g1, g2 = reduction_gap(2000.0, 5, chi, tables)
    assert g2 == 0.0  # already primitive: inducing character is itself
    assert g1 >= 0.0


def test_exception_scan_and_outputs(tmp_path, tables):
    S = enumerate_moduli_set(10, "prime-powers")
    with pytest.warns(UserWarning, match=r"exceeds x\^\(9/40\)"):
        records, summary = exception_scan(9000.0, 10, 1.0, S, tables)
    assert len(records) == len(S.members)
    assert summary["count_exceptional"] == sum(r.exceptional for r in records)
    csv_path = tmp_path / "err.csv"
    json_path = tmp_path / "summary.json"
    write_csv([r.as_row() for r in records], str(csv_path))
    write_json(summary, str(json_path))
    header = csv_path.read_text().splitlines()[0]
    assert header == "q,phi_q,E_star,y_star,threshold,exceptional"
    assert "count_exceptional" in json_path.read_text()


def test_scan_warns_when_q_too_large(tables):
    S = enumerate_moduli_set(100, "primes")
    with pytest.warns(UserWarning):
        exception_scan(1000.0, 100, 1.0, S, tables)


@pytest.mark.parametrize("x, A, match", [
    (1.0, 1.0, "x must"),  # log x = 0: the threshold divided by zero
    (0.5, 1.5, "x must"),  # log x < 0: a complex threshold
    (math.nan, 1.0, "x must"),
    (math.inf, 1.0, "x must"),
    (1000.0, math.nan, "A must"),  # every threshold NaN, nothing flagged
    (1000.0, math.inf, "A must"),
    (1000.0, -0.5, "A must"),
    (1000.0, 400.0, "overflows"),  # (log x)^A overflows
    (1.5, 2000.0, "overflows"),  # (log x)^A underflows to 0: x / 0
])
def test_scan_rejects_bad_x_and_A(tables, x, A, match):
    S = enumerate_moduli_set(3, "primes")
    with pytest.raises(ValueError, match=match):
        exception_scan(x, 3, A, S, tables)


def test_scan_accepts_A_zero(tables):
    S = enumerate_moduli_set(3, "primes")
    records, summary = exception_scan(1000.0, 3, 0.0, S, tables)
    assert [r.threshold for r in records] == [1000.0 / euler_phi(q) for q in S.members]
    assert summary["A"] == 0.0


@pytest.mark.parametrize("error_term", [e_star, e_dagger])
def test_error_terms_reject_bad_moduli(tables, error_term):
    for q in (2.0, True, False, "7", np.int64(7)):
        with pytest.raises(TypeError, match="modulus must be an int"):
            error_term(100.0, q, tables)
    for q in (0, -7):
        with pytest.raises(ValueError, match="modulus must be at least 1"):
            error_term(100.0, q, tables)


def test_range_guard(tables):
    with pytest.raises(ValueError):
        psi(float(tables.limit + 10), tables)


# Reference copies of the per-prime-power loops that e_star and e_dagger
# replaced; the vectorised walk must match them bit for bit, including
# which jump wins a tie.


def _e_star_loop(x, q, tables):
    sums = {a: 0.0 for a in range(q) if gcd(a, q) == 1} if q > 1 else {0: 0.0}
    inv_phi = 1.0 / len(sums)  # phi(q), counted from the coprime classes
    k = int(np.searchsorted(tables.prime_powers, x, side="right"))
    best, y_star = 0.0, 1.0
    for n, lg in zip(tables.prime_powers[:k].tolist(),
                     tables.prime_power_logs[:k].tolist()):
        r = n % q
        if r not in sums:
            continue
        left = abs(sums[r] - n * inv_phi)
        if left > best:
            best, y_star = left, float(n)
        sums[r] += lg
        right = abs(sums[r] - n * inv_phi)
        if right > best:
            best, y_star = right, float(n)
    for s in sums.values():
        endpoint = abs(s - x * inv_phi)
        if endpoint > best:
            best, y_star = endpoint, float(x)
    return best, y_star


def _e_dagger_loop(x, q, tables):
    if q == 1:
        return 0.0, 1.0
    inv_phi = 1.0 / euler_phi(q)
    k = int(np.searchsorted(tables.prime_powers, x, side="right"))
    sums = dict.fromkeys((a for a in range(q) if gcd(a, q) == 1), 0.0)
    total = 0.0
    best, y_star = 0.0, 1.0
    for n, lg in zip(tables.prime_powers[:k].tolist(),
                     tables.prime_power_logs[:k].tolist()):
        r = n % q
        if r in sums:
            sums[r] += lg
        total += lg
        center = total * inv_phi
        val = max(max(sums.values()) - center, center - min(sums.values()))
        if val > best:
            best, y_star = val, float(n)
    return best, y_star


def _record(rec):
    assert type(rec.E_value) is float and type(rec.y_star) is float
    return rec.E_value, rec.y_star


@pytest.mark.parametrize("x", [2 * 10**4, 10**5, 10**5 + 0.5])
def test_e_star_matches_loop_bit_for_bit(tables_large, x):
    for q in range(1, 131):
        assert _record(e_star(x, q, tables_large)) == \
            _e_star_loop(x, q, tables_large), q


def test_e_dagger_matches_loop_bit_for_bit(tables_large):
    for q in range(1, 131):
        assert _record(e_dagger(2 * 10**4, q, tables_large)) == \
            _e_dagger_loop(2 * 10**4, q, tables_large), q


@pytest.mark.parametrize("q", [3, 23, 127])
def test_error_terms_match_loop_at_one_million(tables_large, q):
    x = float(10**6)
    assert _record(e_star(x, q, tables_large)) == _e_star_loop(x, q, tables_large)
    assert _record(e_dagger(x, q, tables_large)) == \
        _e_dagger_loop(x, q, tables_large)


@pytest.mark.parametrize("x", [0.5, 1.0, 1.5, 2.0, 2.5, 30.0, 30.5, 9999.5])
@pytest.mark.parametrize("q", [1, 2, 3, 12, 9973, 10007, 20011])
def test_error_terms_match_loop_at_edges(tables, x, q):
    # q = 10007 and 20011 lie above tables.limit = 10^4; for the large q
    # most coprime classes hold 0 throughout (the loop is slow at 9999.5)
    assert _record(e_star(x, q, tables)) == _e_star_loop(x, q, tables)
    if q <= 12 or x <= 30.5:
        assert _record(e_dagger(x, q, tables)) == _e_dagger_loop(x, q, tables)


@pytest.mark.parametrize("x, q", [
    # the moduli of the benchmark's scan pass; 49 and 64 have non-coprime
    # classes of several jumps each (powers of 7 and of 2)
    *((10**6, q) for q in (37, 41, 43, 47, 49, 53, 59, 61, 64, 67, 71, 73)),
    (10**5, 10**5 + 3),  # q > x: every class holds at most one jump
])
def test_e_star_matches_loop_in_class_order(tables_large, x, q):
    assert _record(e_star(float(x), q, tables_large)) == \
        _e_star_loop(float(x), q, tables_large)


@pytest.mark.parametrize("x, q", [
    # the moduli of the benchmark's scan pass; 49 and 64 have non-coprime
    # classes of several jumps each (powers of 7 and of 2)
    *((10**5, q) for q in (37, 41, 43, 47, 49, 53, 59, 61, 64, 67, 71, 73)),
    # q > x: most coprime classes hold no jump, so their 0 held to the
    # last jump decides
    (2000, 2003), (2000, 4001),
])
def test_e_dagger_matches_loop_in_class_order(tables_large, x, q):
    assert _record(e_dagger(float(x), q, tables_large)) == \
        _e_dagger_loop(float(x), q, tables_large)


def _traced_peak(error_term, x, q, tables):
    """The traced peak of one call, after a first call has warmed up."""
    error_term(x, q, tables)
    tracemalloc.start()
    try:
        error_term(x, q, tables)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_e_dagger_allocates_no_scatter(tables_large):
    # the traced peak of one call, in full-length 8-byte arrays of the
    # jumps: the walk in blocks holds no array as long as the jumps (about
    # 1.8 of them, all block-sized); the class order read in full took
    # about 6, and the scatter back to jump order about 8
    pp, _ = tables_large.jumps(10**6)
    # the padded matrix of the class sums stays within a few blocks,
    # with 23 classes per block or 37
    for q in (23, 37):
        assert _traced_peak(e_dagger, 10**6, q, tables_large) <= 4 * 8 * len(pp)


def test_e_star_allocates_no_full_length_array(tables_large):
    # as for E-dagger: about 1.8 full-length arrays in blocks, where the
    # class order read in full took about 5
    pp, _ = tables_large.jumps(10**6)
    for q in (23, 37):
        assert _traced_peak(e_star, 10**6, q, tables_large) <= 3 * 8 * len(pp)


def _class_blocks_loop(pp, weights, q, block):
    """Reference for _ClassBlocks: one running += per class, jump by jump;
    each block of ``block`` jumps laid out by residue, each class in jump
    order, with the running sums after and before each jump; then the
    coprime class totals in residue order and a 0 for the coprime classes
    without jumps."""
    running, blocks = {}, []
    for lo in range(0, len(pp), block):
        members = {}
        for i in range(lo, min(lo + block, len(pp))):
            r, w = int(pp[i]) % q, weights[i].item()
            before = running.get(r, 0)
            running[r] = running[r] + w if r in running else w
            members.setdefault(r, []).append((i - lo, running[r], before))
        residues = sorted(members)
        sizes = np.array([len(members[r]) for r in residues], dtype=np.intp)
        ends = np.cumsum(sizes, dtype=np.intp)
        entries = [e for r in residues for e in members[r]]
        blocks.append((lo, np.array([e[0] for e in entries], dtype=np.intp),
                       ends - sizes, ends,
                       np.array([gcd(r, q) > 1 for r in residues]),
                       np.array([e[1] for e in entries], dtype=weights.dtype),
                       np.array([e[2] for e in entries], dtype=weights.dtype)))
    totals = [running[r] for r in sorted(running) if gcd(r, q) == 1]
    if len(totals) < euler_phi(q):
        totals.append(0)
    return blocks, np.array(totals, dtype=weights.dtype)


def _assert_walk_matches_loop(pp, weights, q, block):
    walk = _ClassBlocks(pp, weights, q)
    blocks, totals = _class_blocks_loop(pp, weights, q, block)
    for got, want in zip(walk, blocks, strict=True):
        assert got[0] == want[0]
        for g, w in zip(got[1:], want[1:], strict=True):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    got = walk.totals()
    assert got.dtype == totals.dtype and got.tobytes() == totals.tobytes()


def _weights(pp, logs):
    """The real weights Lambda(n) and the complex weights Lambda(n) chi(n)
    for a character chi mod 7 of order 6."""
    values = np.asarray(CharacterGroup(7).characters()[1].value_table())
    assert np.any(values.imag != 0)
    return logs, logs * values[pp % 7]


@pytest.mark.parametrize("q", [1, 2, 37, 121, 10**5 + 3])
def test_class_prefix_sums_match_running_sums_bit_for_bit(tables_large, q):
    # 33,860 jumps up to 4 * 10^5, two full blocks and a part: from one
    # class (q = 1) through classes of about sqrt(33860) jumps each
    # (q = 121, with non-coprime classes) to one jump per class (q > x);
    # every output of every block is checked: the class order, the class
    # bounds, the shared classes, the running sums after and before each
    # jump, and the totals
    pp, logs = tables_large.jumps(4 * 10**5)
    assert 2 * BLOCK < len(pp) < 3 * BLOCK
    for weights in _weights(pp, logs):
        _assert_walk_matches_loop(pp, weights, q, BLOCK)


@pytest.mark.parametrize("block", [1, 2, 3, 7, 64])
@pytest.mark.parametrize("q", [1, 2, 6, 37, 121, 1009])
def test_class_walk_carries_across_small_blocks(tables, monkeypatch, block, q):
    # blocks far shorter than a class: every class straddles block edges,
    # starts on one, or holds one jump per block; 1229 jumps up to 10^4
    monkeypatch.setattr(progressions, "BLOCK", block)
    pp, logs = tables.jumps(10**4)
    for weights in _weights(pp, logs):
        _assert_walk_matches_loop(pp, weights, q, block)


@pytest.mark.parametrize("size", [1, 2, 17, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK])
def test_error_terms_match_loop_at_block_edges(size):
    # made-up jumps with small integer weights, so deviations tie often:
    # n below, at, just past and at twice BLOCK. Classes mod 3, 4 and 7
    # straddle every edge; the class 6 mod 7 starts on the first edge, as
    # no earlier jump is 6 mod 7; and mod 2 * size + 1 each class holds
    # one jump, so a class starts at every jump
    base = build_tables(100)
    rng = random.Random(size)
    pp, n = [], 1
    for i in range(size):
        n += rng.randrange(1, 4)
        while (n % 7 == 6) != (i == BLOCK):
            n += 1
        pp.append(n)
    pp = np.array(pp)
    logs = np.array([float(rng.randrange(1, 4)) for _ in range(size)])
    fake = dataclasses.replace(base, limit=int(pp[-1]) + 1, prime_powers=pp,
                               prime_power_logs=logs)
    for x in (float(pp[-1]), pp[-1] + 0.5):
        for q in (1, 3, 4, 7, 2 * size + 1):
            assert _record(e_star(x, q, fake)) == _e_star_loop(x, q, fake), q
        for q in (1, 3, 4, 7):
            assert _record(e_dagger(x, q, fake)) == _e_dagger_loop(x, q, fake), q


def test_ties_resolve_to_the_first_jump(monkeypatch):
    # small integer weights on made-up jumps make exactly equal deviations
    # common; the strict > of the loops keeps the first of them, also
    # when the tied jumps lie in different blocks
    base = build_tables(100)
    for block in (BLOCK, 1, 2, 5):
        monkeypatch.setattr(progressions, "BLOCK", block)
        rng = random.Random(5)
        for _ in range(150):
            pp = np.array(sorted(rng.sample(range(2, 61), rng.randrange(1, 12))))
            logs = np.array([float(rng.randrange(1, 4)) for _ in pp])
            fake = dataclasses.replace(base, prime_powers=pp, prime_power_logs=logs)
            x = float(rng.choice([60, 60.5, pp[-1]]))
            for q in (1, 2, 3, 4, 6):
                assert _record(e_star(x, q, fake)) == _e_star_loop(x, q, fake)
                assert _record(e_dagger(x, q, fake)) == _e_dagger_loop(x, q, fake)


def test_max_modulus_is_exact():
    for x in [2, 15, 16, 10**4, 10**6, 10**6 + 0.5, 2**40, 3**40 - 1, 3**40,
              10**8]:
        Q = max_modulus(x)
        assert Q**40 <= int(x) ** 9 < (Q + 1) ** 40, x
    assert max_modulus(2**40) == 2**9
    assert max_modulus(3**40 - 1) == 3**9 - 1
