import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from bvlab.exponents import (
    ALLOWED_GRID_STEPS,
    THETA_MAX,
    CaseBound,
    PartitionOutcome,
    case2_log_alt,
    case2_log_alt_termwise,
    case2_log_main,
    case2_log_main_termwise,
    case_bounds,
    claims_within_global_budget,
    grid_tuples,
    logpower_ledger,
    partition_bruteforce,
    partition_exponents,
    polytope_scan,
    published_fractions,
    random_exponent_tuple,
)
from bvlab.reports import write_json


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


@given(st.integers(min_value=0, max_value=2**63 - 1))
@settings(max_examples=200, deadline=None)
def test_partition_total_on_random_streams(seed):
    rng = random.Random(seed)
    u = random_exponent_tuple(rng)
    out = partition_exponents(u)
    out.verify(u)  # exact rational invariant checks


# ------------------------------------------------------------ case bounds


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
    assert claims_within_global_budget()


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
