"""Phase policies: exact thresholds, neighbor-count rules, step caps."""

from fractions import Fraction

import numpy as np
import pytest
from oracles import (
    count_conflicts,
    index_conflict_vector,
    oracle_schedule,
    oracle_trial,
    step_sign_tables,
)

from qlsat.engine import run_trial
from qlsat.generate import EnsembleSpec, generate
from qlsat.phases import (
    KIND_NEIGHBORHOOD,
    KIND_SIMPLE,
    PolicySpec,
    ResolvedPolicy,
    phase_schedule,
    resolve_policy,
    sign_tables,
)
from qlsat.sat import (
    ConflictPattern,
    SatProblem,
    clause_from_literals,
    conflict_vector,
)


def test_policy_spec_validation():
    with pytest.raises(ValueError):
        PolicySpec("majority-vote")
    with pytest.raises(ValueError):
        PolicySpec(KIND_SIMPLE, c_start=Fraction(-1, 2))
    with pytest.raises(ValueError):
        PolicySpec(KIND_NEIGHBORHOOD, n_start=-1)
    # plain numbers are accepted and stored exactly
    assert PolicySpec(KIND_SIMPLE, c_start=3).c_start == Fraction(3)


def test_policy_spec_refuses_the_start_of_the_other_policy():
    with pytest.raises(ValueError, match="c_start only applies"):
        PolicySpec(KIND_NEIGHBORHOOD, c_start=Fraction(3))
    with pytest.raises(ValueError, match="n_start only applies"):
        PolicySpec(KIND_SIMPLE, n_start=2)


def simple_tables(c_start, m):
    """Sign tables over 0..m conflicts of the simple threshold from c_start."""
    policy = resolve_policy(PolicySpec(KIND_SIMPLE, c_start=c_start), n=m, m=m, k=1)
    return list(sign_tables(policy, n=m, m=m))


def neighborhood_tables(n_start, n):
    """Sign tables over 0..n better neighbors of the neighborhood rule."""
    policy = resolve_policy(PolicySpec(KIND_NEIGHBORHOOD, n_start=n_start), n=n, m=n, k=1)
    return list(sign_tables(policy, n=n, m=n))


def test_simple_threshold_fractional_boundary():
    # threshold 13/4 at step 1: only counts of 4 and above invert
    tables = simple_tables(Fraction(13, 4), 6)
    np.testing.assert_array_equal(tables[0], [1, 1, 1, 1, -1, -1, -1])
    # step 2 lowers the threshold to 9/4
    np.testing.assert_array_equal(tables[1], [1, 1, 1, -1, -1, -1, -1])


def test_simple_threshold_integer_boundary_is_strict():
    np.testing.assert_array_equal(simple_tables(Fraction(3), 4)[0][2:], [1, 1, -1])


def test_neighborhood_first_step_distance_rule():
    # n_start = 5: invert where |5 - nb| mod 4 lands in {2, 3}
    nb = np.arange(11)
    signs = neighborhood_tables(5, 10)[0]
    expected = [-1.0 if abs(5 - v) % 4 in (2, 3) else 1.0 for v in nb]
    np.testing.assert_array_equal(signs, expected)
    assert [v for v in nb if signs[v] < 0] == [2, 3, 7, 8]


@pytest.mark.parametrize("j", [2, 3, 4])
def test_neighborhood_later_steps_keep_a_moving_window(j):
    signs = neighborhood_tables(4, 8)[j - 1]
    for v in range(9):
        keep = (4 - v) in (j - 1, j - 2)
        assert signs[v] == (1.0 if keep else -1.0)


def test_neighborhood_signs_match_the_set_membership_rule():
    nb = np.arange(13)
    for n_start in range(13):
        tables = neighborhood_tables(n_start, 12)
        assert len(tables) == n_start + 1
        first = np.isin(np.abs(n_start - nb) % 4, (2, 3))
        np.testing.assert_array_equal(tables[0], np.where(first, -1.0, 1.0))
        for j in range(2, n_start + 2):
            keep = np.isin(n_start - nb, (j - 1, j - 2))
            np.testing.assert_array_equal(tables[j - 1], np.where(keep, 1.0, -1.0))


def test_step_cap_values():
    def step_cap(kind, c_start, n_start):
        return resolve_policy(PolicySpec(kind, c_start, n_start), n=10, m=40, k=3).max_steps

    assert step_cap(KIND_SIMPLE, Fraction(13, 4), None) == 4
    assert step_cap(KIND_SIMPLE, Fraction(3), None) == 4
    assert step_cap(KIND_SIMPLE, Fraction(1, 2), None) == 1
    assert step_cap(KIND_NEIGHBORHOOD, None, 5) == 6
    assert step_cap(KIND_NEIGHBORHOOD, None, 0) == 1


def test_resolve_policy_defaults():
    simple = resolve_policy(PolicySpec(KIND_SIMPLE), n=10, m=40, k=3)
    assert simple.c_start == Fraction(40, 8) == Fraction(5)
    assert simple.max_steps == 6
    assert simple.n_start is None

    nbr = resolve_policy(PolicySpec(KIND_NEIGHBORHOOD), n=9, m=40, k=3)
    assert nbr.n_start == 4
    assert nbr.max_steps == 5
    assert nbr.c_start is None


def test_resolve_policy_overrides_and_cap_check():
    spec = PolicySpec(KIND_SIMPLE, c_start=Fraction(7, 2))
    resolved = resolve_policy(spec, n=6, m=100, k=3)
    assert resolved.c_start == Fraction(7, 2)
    assert resolved.max_steps == 4
    nbr = resolve_policy(PolicySpec(KIND_NEIGHBORHOOD, n_start=3), 10, 40, 3)
    assert nbr.max_steps == 4


def test_sign_tables_span_the_count_range_of_the_policy():
    # simple-threshold signs are indexed by conflicts (0..m), neighborhood
    # signs by better neighbors (0..n); j_max truncates the cap
    simple = ResolvedPolicy(KIND_SIMPLE, 3, c_start=Fraction(2))
    nbr = ResolvedPolicy(KIND_NEIGHBORHOOD, 3, n_start=2)
    tables = list(sign_tables(simple, n=3, m=5))
    assert [len(t) for t in tables] == [6, 6, 6]
    np.testing.assert_array_equal(tables[0], [1, 1, 1, -1, -1, -1])
    tables = list(sign_tables(nbr, n=3, m=5, j_max=2))
    assert [len(t) for t in tables] == [4, 4]
    # step 2 keeps n_start - v in {1, 0}, so v in {1, 2}
    np.testing.assert_array_equal(tables[1], [-1, 1, 1, -1])
    assert all(t.dtype == np.float64 for t in tables)


SIMPLE, NEIGHBORHOOD = PolicySpec(KIND_SIMPLE), PolicySpec(KIND_NEIGHBORHOOD)


@pytest.mark.parametrize(
    "spec, n, m, k, j_max",
    [
        # 3921 count values: two steps per block, 491 steps over 246 blocks
        pytest.param(SIMPLE, 16, 3920, 3, None, id="blocks-of-two-steps"),
        # 27 steps per block: j_max ends the second block early, or yields nothing
        pytest.param(SIMPLE, 300, 300, 1, 40, id="j_max-inside-a-block"),
        pytest.param(NEIGHBORHOOD, 300, 300, 1, 40, id="nbr-j_max-inside"),
        pytest.param(SIMPLE, 300, 300, 1, 0, id="j_max-zero"),
        pytest.param(NEIGHBORHOOD, 300, 300, 1, 0, id="nbr-j_max-zero"),
        pytest.param(
            PolicySpec(KIND_SIMPLE, c_start=Fraction(9, 2)), 10, 40, 3, None,
            id="c_start-nine-halves",
        ),
        # floor(c_start) is past int64; j_max keeps the run short
        pytest.param(
            PolicySpec(KIND_SIMPLE, c_start=Fraction(10**30 + 1, 3)), 10, 40, 3, 5,
            id="c_start-past-int64",
        ),
        pytest.param(
            PolicySpec(KIND_NEIGHBORHOOD, n_start=3), 10, 40, 3, None, id="n_start-3"
        ),
        pytest.param(
            PolicySpec(KIND_NEIGHBORHOOD, n_start=300), 10, 40, 3, None, id="n_start-above-n"
        ),
        # the compact engine's shapes: k = 1 with m < n constrained variables
        pytest.param(SIMPLE, 300, 120, 1, None, id="compact-simple-m-below-n"),
        pytest.param(NEIGHBORHOOD, 300, 120, 1, None, id="compact-nbr-m-below-n"),
    ],
)
def test_block_sign_tables_equal_the_step_by_step_rule(spec, n, m, k, j_max):
    policy = resolve_policy(spec, n=n, m=m, k=k)
    got = list(sign_tables(policy, n, m, j_max))
    want = step_sign_tables(policy, n, m, j_max)
    assert len(got) == len(want)
    for step, (a, b) in enumerate(zip(got, want), start=1):
        assert a.dtype == np.float64, step
        np.testing.assert_array_equal(a, b, err_msg=f"step {step}")


def two_negated_units() -> SatProblem:
    clauses = (clause_from_literals([-1]), clause_from_literals([-2]))
    return SatProblem(n=2, k=1, clauses=clauses)


def test_phase_schedule_length_and_truncation():
    problem = two_negated_units()
    spec = PolicySpec(KIND_SIMPLE)
    # c_start = 2 / 2 = 1, so the cap is 2 steps
    full = phase_schedule(problem, spec)
    assert len(full) == 2
    assert len(phase_schedule(problem, spec, j_max=1)) == 1
    assert len(phase_schedule(problem, spec, j_max=10)) == 2


def test_phase_schedule_matches_conflict_counts():
    problem = two_negated_units()
    conflicts = conflict_vector(problem)
    np.testing.assert_array_equal(conflicts, [0, 1, 1, 2])
    sched = phase_schedule(problem, PolicySpec(KIND_SIMPLE))
    # step 1 threshold 1: only the two-conflict assignment flips
    np.testing.assert_array_equal(sched[0], [1, 1, 1, -1])
    # step 2 threshold 0: everything with a conflict flips
    np.testing.assert_array_equal(sched[1], [1, -1, -1, -1])


def assert_schedules_equal(problem, spec):
    got = phase_schedule(problem, spec)
    want = oracle_schedule(problem, spec)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)


def test_signs_over_a_table_wider_than_uint8():
    # 286 clauses all falsified by the all-false assignment: its count
    # does not fit uint8, and the simple threshold starts at 286 / 8.
    masks = [m for m in range(1 << 13) if m.bit_count() == 3]
    problem = SatProblem(n=13, k=3, clauses=tuple(ConflictPattern(m, 0) for m in masks))
    conflicts = conflict_vector(problem)
    assert conflicts.dtype == np.uint16
    assert conflicts[0] == count_conflicts(problem, 0) == 286
    np.testing.assert_array_equal(conflicts, index_conflict_vector(problem))
    assert_schedules_equal(problem, PolicySpec(KIND_SIMPLE))
    random = generate(EnsembleSpec(n=9, k=3, m=300, kind="random", seed=4)).problem
    assert_schedules_equal(random, PolicySpec(KIND_SIMPLE))


def test_neighborhood_start_far_above_n():
    # n_start - n_better on a uint8 table would wrap (or refuse 300)
    problem = generate(EnsembleSpec(n=10, k=3, m=40, kind="random-soluble", seed=2)).problem
    spec = PolicySpec(KIND_NEIGHBORHOOD, n_start=300)
    assert_schedules_equal(problem, spec)
    probs, best_j = oracle_trial(problem, spec)
    result = run_trial(problem, spec)
    np.testing.assert_allclose(result.p_soln_by_step, probs, rtol=0, atol=1e-12)
    assert result.best_j == best_j


def test_simple_threshold_with_a_large_denominator():
    # conflicts * 10**11 overflows uint8 and uint16 tables
    problem = generate(EnsembleSpec(n=10, k=3, m=40, kind="random-soluble", seed=3)).problem
    spec = PolicySpec(KIND_SIMPLE, c_start=Fraction(10**12 + 1, 10**11))
    assert_schedules_equal(problem, spec)
    probs, best_j = oracle_trial(problem, spec)
    result = run_trial(problem, spec)
    np.testing.assert_allclose(result.p_soln_by_step, probs, rtol=0, atol=1e-12)
    assert result.best_j == best_j
