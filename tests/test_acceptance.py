"""Acceptance checks: one test per shipped claim, at fixed tolerances.

These run the same entry points a user would call and pin down worked
examples, reference coefficients, large-instance profiles, cross-engine
agreement, invariants, and the cost-versus-size trends.  Criteria that
``qlsat verify`` also reports assert the entries of its check table and
add only what is stricter than the table: larger n, more vectors, and
the worked example's state.  The ensemble measurements use frozen seed
schedules so every run sees the same instances.
"""

import math

import numpy as np
import pytest

import qlsat.engine
from qlsat.checks import CHECKS, DENSE_LIMIT
from qlsat.compact import compact_run
from qlsat.engine import run_trial
from qlsat.generate import (
    EnsembleSpec,
    backtrack_count,
    generate,
    instance_seed_sequence,
)
from qlsat.mixer import MixerSpec, apply_u, dense_u
from qlsat.phases import KIND_NEIGHBORHOOD, KIND_SIMPLE, PolicySpec
from qlsat.sat import SatProblem, clause_from_literals

from oracles import count_conflicts


def two_negated_units() -> SatProblem:
    clauses = (clause_from_literals([-1]), clause_from_literals([-2]))
    return SatProblem(n=2, k=1, clauses=clauses)


def assert_check_passes(name: str) -> None:
    """Every row of the named ``qlsat verify`` check passes at the default split."""
    rows = list(CHECKS[name](None, DENSE_LIMIT))
    assert rows and all(passed for _, passed, _ in rows), rows


def test_criterion_1_two_variable_worked_example(monkeypatch):
    assert_check_passes("two-variable-example")
    # one simple-threshold step puts the whole amplitude on the solution;
    # a histogram readout that copies the state records the states
    monkeypatch.setattr(qlsat.engine, "conflict_histogram", lambda x, conflicts, m: x.copy())
    simple = run_trial(two_negated_units(), PolicySpec(KIND_SIMPLE), record_histograms=True)
    np.testing.assert_allclose(simple.histograms[1], [1.0, 0.0, 0.0, 0.0], atol=1e-10)


def test_criterion_2_four_state_mixing_matrix():
    assert_check_passes("mixing-table-n2")


def test_criterion_3_adjacent_shell_coefficient():
    assert_check_passes("first-shell-coefficient-n8")


def test_criterion_4_hundred_variable_concentration():
    result = compact_run(100, PolicySpec(KIND_NEIGHBORHOOD), record_histograms=True)
    assert result.steps == 51
    assert 0.25 < result.p_soln_by_step[51] < 0.35
    assert result.best_j == 51
    assert 150.0 < result.best_cost < 190.0
    # after one step, over a third of the probability sits one flip away
    assert 0.37 < result.histograms[1][50] < 0.41
    assert result.histograms[0][50] == pytest.approx(0.08, abs=5e-3)


def test_criterion_5_near_linear_cost_growth_planted_1sat():
    sizes = np.arange(20, 501, 20)
    for kind, lo, hi in (
        (KIND_NEIGHBORHOOD, 0.9, 1.4),
        (KIND_SIMPLE, 0.9, 1.4),
    ):
        costs = []
        for n in sizes:
            result = compact_run(int(n), PolicySpec(kind))
            assert result.best_j is not None
            if kind == KIND_SIMPLE:
                assert 2 <= result.best_j <= 4
            costs.append(result.best_cost)
        exponent = np.polyfit(np.log(sizes), np.log(costs), 1)[0]
        assert lo < exponent < hi


def test_criterion_6_dual_route_agreement():
    # route one: fast transform against the dense matrix product, with
    # 15 vectors per size where the check takes 5
    assert_check_passes("fast-vs-dense")
    rng = np.random.default_rng(606)
    for n in range(2, 9):
        spec = MixerSpec(n)
        dense = dense_u(spec)
        for _ in range(15):
            x = rng.standard_normal(1 << n)
            assert np.max(np.abs(apply_u(spec, x) - dense @ x)) < 1e-10

    # route two: shell-space engine against full enumeration
    assert_check_passes("compact-vs-full")

    # route three: backtracking counter against brute-force enumeration,
    # one variable more than the check
    assert_check_passes("backtrack-vs-enumeration")
    for seed in range(5):
        spec = EnsembleSpec(n=7, k=3, m=21, kind="random", seed=600 + seed)
        problem = generate(spec).problem
        brute = sum(
            1 for s in range(1 << 7) if count_conflicts(problem, s) == 0
        )
        assert backtrack_count(problem) == brute


def test_criterion_7_structural_invariants():
    # the mixing operator is orthogonal, checked to n = 6 and here to 8
    assert_check_passes("unitarity")
    for n in (7, 8):
        u = dense_u(MixerSpec(n))
        assert np.max(np.abs(u.T @ u - np.eye(1 << n))) < 1e-10

    # both engines preserve total probability at every step; the check
    # covers n = 10 and 12 and the compact neighborhood run
    assert_check_passes("norm-drift")
    spec = EnsembleSpec(n=14, k=3, m=56, kind="random-soluble", seed=84)
    problem = generate(spec).problem
    for kind in (KIND_SIMPLE, KIND_NEIGHBORHOOD):
        result = run_trial(problem, PolicySpec(kind), record_histograms=True)
        for hist in result.histograms:
            assert abs(float(np.sum(hist)) - 1.0) < 1e-10
    result = compact_run(300, PolicySpec(KIND_SIMPLE), record_histograms=True)
    for hist in result.histograms:
        assert abs(float(np.sum(hist)) - 1.0) < 1e-10

    # mixing coefficient signs follow the distance mod 4 pattern
    assert_check_passes("shell-coefficient-signs")


def _ensemble_fixed_step_cost(n: int, m: int, kind: str, base_seed: int,
                              policy: str, trials: int) -> tuple[int, float]:
    """Steps run and ensemble cost steps / mean(final solution probability)."""
    finals = []
    steps = None
    for i in range(trials):
        spec = EnsembleSpec(
            n=n, k=3, m=m, kind=kind, seed=instance_seed_sequence(base_seed, i)
        )
        result = run_trial(generate(spec).problem, PolicySpec(policy))
        steps = result.steps
        finals.append(result.p_soln_by_step[-1])
    return steps, steps / float(np.mean(finals))


def test_criterion_8a_exponential_cost_trend_at_high_ratio():
    """Soluble random 3-SAT at m = 4n: cost grows faster than any power law.

    A two-parameter exponential fit (log cost linear in n) must beat a
    two-parameter power-law fit (log cost linear in log n) in residual
    error over n = 8..16 with 500 instances per size.
    """
    sizes = np.arange(8, 17)
    log_costs = []
    for n in sizes:
        steps, cost = _ensemble_fixed_step_cost(
            int(n), 4 * int(n), "random-soluble", 8100 + int(n), KIND_SIMPLE, 500
        )
        assert steps == n // 2 + 1
        log_costs.append(math.log(cost))
    log_costs = np.array(log_costs)
    _, exp_residual, *_ = np.polyfit(sizes, log_costs, 1, full=True)
    _, poly_residual, *_ = np.polyfit(np.log(sizes), log_costs, 1, full=True)
    assert exp_residual[0] < poly_residual[0]


def test_criterion_8b_cost_peak_below_very_high_ratio():
    """Mean best cost at m/n = 13 stays under the peak over m/n in 3..6.

    Planted-solution 3-SAT at n = 10 with 500 instances per ratio and the
    neighborhood policy: heavily constrained instances are easier than
    the hardest mid-ratio ensemble.
    """
    mean_costs = {}
    for ratio in (3, 4, 5, 6, 13):
        costs = []
        for i in range(500):
            spec = EnsembleSpec(
                n=10,
                k=3,
                m=10 * ratio,
                kind="prespecified-solution",
                seed=instance_seed_sequence(7000 + ratio, i),
            )
            result = run_trial(generate(spec).problem, PolicySpec(KIND_NEIGHBORHOOD))
            assert result.best_j is not None
            costs.append(result.best_cost)
        mean_costs[ratio] = float(np.mean(costs))
    peak = max(mean_costs[r] for r in (3, 4, 5, 6))
    assert mean_costs[13] < peak
