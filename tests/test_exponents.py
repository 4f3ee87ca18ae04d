import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from bvlab.exponents import (
    _ALL,
    _FORMS,
    ALLOWED_GRID_STEPS,
    DELTA,
    THETA_MAX,
    PartitionOutcome,
    ScanResult,
    case2_log_alt,
    case2_log_alt_termwise,
    case2_log_main,
    case2_log_main_termwise,
    grid_tuples,
    logpower_ledger,
    partition_bruteforce,
    partition_exponents,
    polytope_scan,
    published_fractions,
    random_exponent_tuple,
    validate_exponents,
)
from bvlab.reports import write_json

# the certified exponent target: combined <= (39/40) tau + 1/2
TARGET_X = F(1, 2)
TARGET_T = F(39, 40)


def _u(*nums, den):
    return tuple(F(k, den) for k in nums)


# ------------------------------------------------------------- partition


def test_all_zero_first_branch():
    out = partition_exponents(tuple([F(0)] * 8))
    assert out.variant == "B"
    assert out.A1 == frozenset(range(5))
    assert out.A2 == frozenset({5, 6, 7})


def test_uniform_eighths_alternating_split():
    out = partition_exponents(tuple([F(1, 8)] * 8))
    assert out.variant == "B"
    assert out.A1 == frozenset({1, 3, 5, 7})  # 1-based {2,4,6,8}
    s = sum([F(1, 8)] * 4)
    assert s == F(1, 2) <= F(11, 20)


def test_prefix_split_example():
    u = _u(24, 24, 24, 24, 4, 0, 0, 0, den=100)
    out = partition_exponents(u)
    assert out.variant == "B"
    assert out.A1 == frozenset({0, 1})  # 1-based {1, 2}, k = 2
    assert sum(u[j] for j in out.A1) == F(48, 100)
    assert sum(u[j] for j in out.A2) == F(52, 100)


def test_singleton_split_example():
    u = _u(24, 20, 20, 12, 8, 6, 5, 5, den=100)
    out = partition_exponents(u)
    assert out.variant == "A"
    assert out.i == 1  # 1-based singleton index 2
    assert out.A1 == frozenset({0, 2})  # 1-based {1, 3}
    assert out.A2 == frozenset({3, 4, 5, 6, 7})
    assert sum(u[j] for j in out.A1) == F(44, 100)
    assert sum(u[j] for j in out.A2) == F(36, 100)
    assert not F(9, 40) < u[1] < F(1, 4)


def test_deep_prefix_singleton_case():
    # forces the prefix-overshoot branch with k > 3: the split must drop
    # the second exponent, not the even-indexed ones
    u = _u(227, 112, 110, 108, 108, 108, 108, 108, den=1000)
    out = partition_exponents(u)
    assert out.variant == "A"
    assert out.i == 1
    out.verify(u)


def test_input_validation():
    with pytest.raises(ValueError):
        partition_exponents(tuple([F(1, 4)] * 3 + [F(1, 2)] + [F(0)] * 4))
    with pytest.raises(ValueError):
        partition_exponents(tuple([F(1, 4)] * 8))  # sum 2 > 1
    with pytest.raises(ValueError):
        partition_exponents(tuple([F(-1, 8)] + [F(0)] * 7))


def test_certificate_populated():
    out = partition_exponents(tuple([F(1, 8)] * 8))
    assert out.certificate
    assert any("9/20" in desc for desc, _ in out.certificate)


def test_outcome_verify_rejects_bad_splits():
    u = tuple([F(1, 8)] * 8)
    with pytest.raises(AssertionError):
        PartitionOutcome("B", frozenset(range(7)), frozenset({7})).verify(u)
    with pytest.raises(AssertionError):
        PartitionOutcome("A", frozenset({1, 2}), frozenset({3, 4}), i=0).verify(u)


def test_oracle_agreement_on_grid():
    for u in grid_tuples(F(1, 8)):
        constructive = partition_exponents(u)
        constructive.verify(u)
        witness = partition_bruteforce(u)
        assert witness is not None
        witness.verify(u)


def test_oracle_agreement_on_randoms():
    rng = random.Random(123)
    for _ in range(3000):
        u = random_exponent_tuple(rng)
        out = partition_exponents(u)
        out.verify(u)
        assert partition_bruteforce(u) is not None


def _reference_bruteforce(u: tuple[F, ...]) -> PartitionOutcome | None:
    """The oracle as a plain loop: every subset sum rebuilt, every mask
    rescanned for its size, variant A through ``combinations`` sums."""
    D, a = validate_exponents(u)
    total = sum(a)
    subset_sum = [0] * 256
    for mask in range(1, 256):
        low = mask & -mask
        subset_sum[mask] = subset_sum[mask ^ low] + a[low.bit_length() - 1]

    for mask in range(256):
        size = bin(mask).count("1")
        if not 2 <= size <= 6:
            continue
        s = subset_sum[mask]
        if 20 * s <= 11 * D and 20 * (total - s) <= 11 * D:
            g1 = frozenset(j for j in range(8) if mask >> j & 1)
            out = PartitionOutcome("B", g1, _ALL - g1)
            out._verify_scaled(D, a)
            return out

    for i in range(8):
        if 9 * D < 40 * a[i] < 10 * D:  # inside (9/40, 1/4)
            continue
        rest = [j for j in range(8) if j != i]
        rest_total = total - a[i]
        for size in range(2, 6):
            for combo in combinations(rest, size):
                s = sum(a[j] for j in combo)
                if 20 * s <= 9 * D and 20 * (rest_total - s) <= 9 * D:
                    g1 = frozenset(combo)
                    out = PartitionOutcome("A", g1,
                                           frozenset(rest) - g1, i=i)
                    out._verify_scaled(D, a)
                    return out
    return None


def test_oracle_matches_reference_loop_on_grid():
    variants = Counter()
    for u in grid_tuples(F(1, 16)):
        out = partition_bruteforce(u)
        assert out == _reference_bruteforce(u), u
        variants[out.variant, out.i] += 1
    assert variants == {("B", None): 795 - 148, ("A", 0): 148}


def test_oracle_matches_reference_loop_on_randoms():
    rng = random.Random(4040)
    for _ in range(10**4):
        u = random_exponent_tuple(rng)
        assert partition_bruteforce(u) == _reference_bruteforce(u), u


@pytest.mark.parametrize("u, i", [
    ((F(1, 2),) + (F(1, 16),) * 7, 0),
    (_u(23, 20, 19, 19, 19, 1, 1, 0, den=102), 1),  # u_1 in (9/40, 1/4)
])
def test_oracle_matches_reference_loop_on_named_singletons(u, i):
    out = partition_bruteforce(u)
    assert out == _reference_bruteforce(u)
    assert (out.variant, out.i) == ("A", i)


@pytest.mark.parametrize("n", [0, 7, 9])
def test_tuple_length_checked(n):
    u = tuple([F(1, 16)] * n)
    split = PartitionOutcome("B", frozenset(range(4)), frozenset(range(4, 8)))
    for check in (partition_exponents, partition_bruteforce, split.verify,
                  validate_exponents):
        with pytest.raises(ValueError, match="expected 8 exponents"):
            check(u)


@given(st.integers(min_value=0, max_value=2**63 - 1))
@settings(max_examples=200, deadline=None)
def test_partition_total_on_random_streams(seed):
    rng = random.Random(seed)
    u = random_exponent_tuple(rng)
    out = partition_exponents(u)
    out.verify(u)  # exact rational invariant checks


# ------------------------------------------------------------ case bounds


@dataclass(frozen=True)
class CaseBound:
    """One exponent bound: the quantity is at most
    T^(T_exponent) x^(x_exponent) L^(log_power) and is claimed to be
    at most T^(claim_T) x^(claim_x) up to log powers. log_power None
    marks an unspecified absolute constant."""

    case_id: str
    x_exponent: F
    T_exponent: F
    log_power: F | None
    claim_x: F
    claim_T: F

    def slack(self, tau):
        return (self.x_exponent + self.T_exponent * tau) - (
            self.claim_x + self.claim_T * tau
        )

    def admissible(self):
        # the slack is affine in tau, so tau in {0, 1} covers [0, 1]
        return self.slack(F(0)) <= 0 and self.slack(F(1)) <= 0


def _log_b(b):
    return F((8 - b) ** 2 + b * b, 2)


# the L power of each case bound from b = |A2|; a case absent here is
# bounded up to an absolute constant
CASE_LOG_POWERS = {
    "B-generic": _log_b,
    "A-trim": lambda b: F(25) - DELTA,
    "A-Case1": lambda b: F((7 - b) ** 2 + b * b + 10, 2),
    "A-Case2-B1": lambda b: F(22) - F(3, 40),
}


def case_bounds(u, outcome, theta=THETA_MAX):
    """Exponent bounds for one tuple under its certified split, read from
    the slack forms ``_FORMS`` as exact affine forms in (u, theta, tau).
    The grouped-polynomial sizes enter as M = x^(sum over A1),
    N = x^(sum over A2), and Q^2 contributes x^(2 theta)."""
    u = tuple(F(x) for x in u)
    outcome.verify(u)
    s = 2 * F(theta)  # exponent of Q^2
    m1 = sum(u[j] for j in outcome.A1)
    m2 = sum(u[j] for j in outcome.A2)
    ui = F(0) if outcome.i is None else u[outcome.i]
    b = len(outcome.A2)
    return [
        CaseBound(f.case_id,
                  f.const + f.s * s + f.m1 * m1 + f.m2 * m2 + f.ui * ui
                  + f.mx * max(m1, m2),
                  f.T, CASE_LOG_POWERS[f.case_id](b)
                  if f.case_id in CASE_LOG_POWERS else None,
                  claim_x=f.claim_x, claim_T=f.claim_T)
        for f in _FORMS[outcome.variant]
    ]


def test_case_bounds_all_rational():
    u = tuple([F(1, 8)] * 8)
    for bound in case_bounds(u, partition_exponents(u)):
        assert isinstance(bound.x_exponent, F)
        assert isinstance(bound.T_exponent, F)
        assert bound.admissible()


def test_variant_b_worked_bound():
    # group sums at the 11/20 cap: theta + tau/2 + 11/40 target
    bound = CaseBound("B-generic", THETA_MAX + F(11, 40), F(1, 2), F(20),
                      claim_x=F(1, 2), claim_T=F(1, 2))
    assert bound.x_exponent == F(1, 2)
    assert bound.admissible()


def test_mirror_symmetry():
    u = _u(24, 20, 20, 12, 8, 6, 5, 5, den=100)
    outcome = partition_exponents(u)
    assert outcome.variant == "A"
    mirrored = PartitionOutcome(outcome.variant, outcome.A2, outcome.A1,
                                i=outcome.i)
    # swapping the two group roles turns each Case-3 bound into the
    # corresponding mirror bound and vice versa
    direct = sorted((b.x_exponent, b.T_exponent)
                    for b in case_bounds(u, outcome)
                    if b.case_id.startswith("A-Case4"))
    swapped34 = sorted((b.x_exponent, b.T_exponent)
                       for b in case_bounds(u, mirrored)
                       if b.case_id.startswith("A-Case3"))
    assert direct == swapped34


def test_published_fractions_exact():
    fr = published_fractions()
    assert fr["case2-A1-x"] == F(319, 640)
    assert fr["case2-A1-T"] == F(31, 32)
    assert fr["case3-A2-x"] == F(157, 320)
    assert fr["case3-A2-T"] == F(7, 16)
    assert fr["case3-B2-x"] == F(119, 240)
    assert fr["case3-B2-T"] == F(1, 2)
    assert fr["caseB-Q2T-T"] == F(19, 20)


def test_claims_inside_global_budget():
    # every per-case claimed exponent pair sits inside the certified
    # global budget (39/40) tau + 1/2, checked at tau in {0, 1}
    assert all(f.claim_x + f.claim_T * tau <= TARGET_X + TARGET_T * tau
               for forms in _FORMS.values() for f in forms
               for tau in (F(0), F(1)))


# ---------------------------------------------------------------- ledger


def test_logpower_arithmetic():
    for b in (2, 3, 4, 5):
        assert case2_log_main(b) == case2_log_main_termwise(b)
        assert case2_log_alt(b) == case2_log_alt_termwise(b)
        assert case2_log_main(b) <= 22
        assert case2_log_alt(b) <= 22 - F(1, 4)
    assert case2_log_main(2) == 22
    assert case2_log_main(5) == 22
    assert case2_log_main(4) == 20


def test_ledger_summary():
    led = logpower_ledger()
    assert led["ok"]
    assert led["tight_at"] == [2, 5]
    assert led["interpolated_log"] == str(22 - F(3, 40))
    assert led["chain_total"] == str(34 - F(1, 20))


# ------------------------------------------------------------------ scan


def test_scan_eighth_grid_passes():
    result = polytope_scan(F(1, 8))
    assert result.passed
    assert result.worst_slack <= 0
    assert result.tuple_count == 67


def test_scan_grid_step_guard():
    with pytest.raises(ValueError):
        polytope_scan(F(1, 7))
    assert F(1, 40) in ALLOWED_GRID_STEPS


def test_probe_above_range_violates():
    result = polytope_scan(F(1, 8), theta=THETA_MAX + F(1, 80))
    assert not result.passed
    assert result.violations >= 1
    assert result.worst_slack > 0


def test_certificate_json(tmp_path):
    result = polytope_scan(F(1, 8))
    path = tmp_path / "cert.json"
    write_json(result.to_json(), str(path))
    data = json.loads(path.read_text())
    assert data["grid_step"] == "1/8"
    assert data["theta"] == "9/40"
    assert data["slack_rational_as_string"] == "0"
    assert data["passed"] is True


def test_grid_enumeration_is_ordered_and_bounded():
    for u in grid_tuples(F(1, 8)):
        assert all(a >= b for a, b in zip(u, u[1:]))
        assert sum(u) <= 1


# ------------------------------------------------ Fraction reference scan
#
# The scan and the partition run on integers over a common denominator.
# These are the Fraction implementations they replaced, kept as oracles.


def _fraction_partition(u):
    """The constructive split in Fraction arithmetic (inputs are valid)."""
    u = tuple(F(x) for x in u)
    cert = []
    head5 = sum(u[:5])
    if head5 <= F(11, 20):
        cert.append(("u1+..+u5 <= 11/20", str(head5)))
        return PartitionOutcome("B", frozenset(range(5)), frozenset({5, 6, 7}),
                                certificate=tuple(cert))
    cert.append(("u1+..+u5 > 11/20", str(head5)))
    partial = F(0)
    k = None
    for idx in range(8):
        partial += u[idx]
        if partial >= F(9, 20):
            k = idx + 1
            break
    cert.append(("least k with u1+..+uk >= 9/20", str(k)))
    if not F(9, 40) < u[0] < F(1, 4):
        alt = u[1] + u[3] + u[5] + u[7]
        if alt > F(9, 20):
            cert.append(("u2+u4+u6+u8 > 9/20", str(alt)))
            return PartitionOutcome("B", frozenset({1, 3, 5, 7}),
                                    frozenset({0, 2, 4, 6}),
                                    certificate=tuple(cert))
        cert.append(("u2+u4+u6+u8 <= 9/20", str(alt)))
        return PartitionOutcome("A", frozenset({2, 4, 6}),
                                frozenset({1, 3, 5, 7}), i=0,
                                certificate=tuple(cert))
    head_k = sum(u[:k])
    if head_k <= F(11, 20):
        cert.append(("u1+..+uk <= 11/20", str(head_k)))
        return PartitionOutcome("B", frozenset(range(k)),
                                frozenset(range(k, 8)), certificate=tuple(cert))
    cert.append(("u1+..+uk > 11/20", str(head_k)))
    return PartitionOutcome("A", frozenset({0} | set(range(2, k))),
                            frozenset(range(k, 8)), i=1,
                            certificate=tuple(cert))


def _fraction_case_bounds(u, outcome, theta=THETA_MAX):
    """The eleven case bounds written out as Fraction expressions."""
    u = tuple(F(x) for x in u)
    s = 2 * F(theta)
    m1 = sum(u[j] for j in outcome.A1)
    m2 = sum(u[j] for j in outcome.A2)
    b = len(outcome.A2)
    if outcome.variant == "B":
        logp = F((8 - b) ** 2 + b * b, 2)
        return [
            CaseBound("B-generic", s, F(1), logp, claim_x=F(1, 2), claim_T=F(19, 20)),
            CaseBound("B-generic", F(1, 2), F(0), logp, claim_x=F(1, 2), claim_T=F(0)),
            CaseBound("B-generic", theta + max(m1, m2) / 2, F(1, 2), logp,
                      claim_x=F(1, 2), claim_T=F(1, 2)),
        ]
    ui = u[outcome.i]
    bounds = [
        CaseBound("A-trim", s, F(1), F(25) - F(1, 20),
                  claim_x=F(1, 2), claim_T=F(39, 40)),
        CaseBound("A-Case1", ui / 2 + (m1 + m2) / 2, F(0),
                  F((7 - b) ** 2 + b * b + 10, 2), claim_x=F(1, 2), claim_T=F(0)),
        CaseBound("A-Case2-A1", F(31, 32) * s + (m1 + m2 + ui) / 16, F(31, 32),
                  None, claim_x=F(319, 640), claim_T=F(31, 32)),
        CaseBound("A-Case2-B1", s + (m1 + m2 + ui) / 20, F(33, 40),
                  F(22) - F(3, 40), claim_x=F(1, 2), claim_T=F(39, 40)),
    ]
    for a2, b2, big, small in (("A-Case3-A2", "A-Case3-B2", m2, m1),
                               ("A-Case4-mirror", "A-Case4-mirror", m1, m2)):
        bounds.append(CaseBound(a2, F(7, 16) * s + big / 2 + (small + ui) / 8,
                                F(7, 16), None,
                                claim_x=F(157, 320), claim_T=F(7, 16)))
        bounds.append(CaseBound(b2, s / 2 + big / 2 + (small + ui) / 12,
                                F(1, 2), None,
                                claim_x=F(119, 240), claim_T=F(1, 2)))
    return bounds


def _fraction_scan(grid_step, theta=THETA_MAX):
    """The grid scan in Fractions: every slack at tau in {0, 1}, the first
    strict maximum kept."""
    worst_slack = None
    worst = (None, None, None)
    count = violations = 0
    for u in grid_tuples(grid_step):
        count += 1
        tuple_bad = False
        for bound in _fraction_case_bounds(u, _fraction_partition(u), theta):
            for tau in (F(0), F(1)):
                slack = bound.slack(tau)
                if worst_slack is None or slack > worst_slack:
                    worst_slack = slack
                    worst = (u, bound.case_id, tau)
                tuple_bad |= slack > 0
        violations += tuple_bad
    return ScanResult(grid_step=F(grid_step), theta=F(theta), tuple_count=count,
                      worst_slack=worst_slack, worst_tuple=worst[0],
                      worst_case_id=worst[1], worst_tau=worst[2],
                      passed=violations == 0, violations=violations)


# theta = 19/80 = 9/40 + 1/80 is the probe above the range: every slack
# there is compared, violations included
@pytest.mark.parametrize("theta", [THETA_MAX, F(1, 5), THETA_MAX + F(1, 80)], ids=str)
@pytest.mark.parametrize("grid_step", [F(1, 8), F(1, 16)], ids=str)
def test_integer_scan_matches_fraction_scan(grid_step, theta):
    assert polytope_scan(grid_step, theta=theta) == _fraction_scan(grid_step, theta)


def _one_fortieth_sample(n, seed):
    picks = set(random.Random(seed).sample(range(73056), n))
    return [u for j, u in enumerate(grid_tuples(F(1, 40))) if j in picks]


def test_integer_partition_matches_fraction_partition():
    rng = random.Random(2024)
    randoms = [random_exponent_tuple(rng) for _ in range(3000)]
    for u in [*grid_tuples(F(1, 8)), *randoms, *_one_fortieth_sample(3000, 7)]:
        assert partition_exponents(u) == _fraction_partition(u), u


def test_case_bounds_match_fraction_forms():
    for theta in (THETA_MAX, F(19, 80)):
        for u in grid_tuples(F(1, 8)):
            out = partition_exponents(u)
            assert case_bounds(u, out, theta) == _fraction_case_bounds(u, out, theta)
    # the mirrored split of a variant-A tuple
    u = _u(24, 20, 20, 12, 8, 6, 5, 5, den=100)
    out = partition_exponents(u)
    mirrored = PartitionOutcome("A", out.A2, out.A1, i=out.i)
    assert case_bounds(u, mirrored) == _fraction_case_bounds(u, mirrored)


def test_validate_exponents_returns_common_denominator():
    assert validate_exponents((F(1, 4), F(1, 6)) + (F(0),) * 6) == \
        (12, (3, 2, 0, 0, 0, 0, 0, 0))
    assert validate_exponents((1,) + (0,) * 7) == (1, (1, 0, 0, 0, 0, 0, 0, 0))
