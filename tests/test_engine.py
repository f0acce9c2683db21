"""Full-state evolution: worked examples, norm drift, best-step selection."""

import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from oracles import oracle_trial, relabel

import qlsat.engine
import qlsat.mixer
from qlsat.engine import (
    RunResult,
    conflict_histogram,
    evolve,
    run_trial,
    select_best,
    solution_readout,
)
from qlsat.generate import EnsembleSpec, generate, instance_seed_sequence
from qlsat.mixer import MixerSpec, apply_u, dense_u
from qlsat.phases import (
    KIND_NEIGHBORHOOD,
    KIND_SIMPLE,
    PolicySpec,
    phase_schedule,
    policy_table,
    resolve_policy,
    sign_blocks,
)
from qlsat.sat import TABLE_PIECE, CapacityError, SatProblem, clause_from_literals, conflict_vector


def uniform(n: int) -> np.ndarray:
    """The start state, formed as run_trial forms it: every amplitude 1/sqrt(2**n)."""
    return np.full(1 << n, 1.0 / math.sqrt(1 << n))


def step_signs(policy, n: int, m: int):
    """The sign table of each step in turn, as run_trial hands them to evolve."""
    return itertools.chain.from_iterable(sign_blocks(policy, n, m))


def two_negated_units() -> SatProblem:
    """Two 1-clauses forbidding each variable to be true; solution is 00."""
    clauses = (clause_from_literals([-1]), clause_from_literals([-2]))
    return SatProblem(n=2, k=1, clauses=clauses)


def test_two_variable_example_simple_policy(monkeypatch):
    # a histogram readout that copies the state records every state of the trial
    monkeypatch.setattr(qlsat.engine, "conflict_histogram", lambda x, conflicts, m: x.copy())
    result = run_trial(two_negated_units(), PolicySpec(KIND_SIMPLE), record_histograms=True)
    assert result.engine == "full"
    assert result.p_soln_by_step[0] == pytest.approx(0.25, abs=1e-15)
    # one step concentrates the full amplitude on the solution
    np.testing.assert_allclose(result.histograms[1], [1.0, 0.0, 0.0, 0.0], atol=1e-15)
    assert result.p_soln_by_step[1] == pytest.approx(1.0, abs=1e-12)
    assert result.best_j == 1
    assert result.best_cost == pytest.approx(1.0, abs=1e-12)


def test_two_variable_example_neighborhood_policy():
    result = run_trial(two_negated_units(), PolicySpec(KIND_NEIGHBORHOOD))
    assert result.steps == 2
    assert result.p_soln_by_step[2] == pytest.approx(1.0, abs=1e-12)
    assert result.best_j == 2
    assert result.best_cost == pytest.approx(2.0, abs=1e-12)


def test_step_matches_dense_operator():
    problem = generate(EnsembleSpec(n=4, k=2, m=8, kind="random", seed=11)).problem
    spec = MixerSpec(4)
    u = dense_u(spec)
    schedule = phase_schedule(problem, PolicySpec(KIND_SIMPLE))
    result = evolve(
        "full",
        uniform(4),
        schedule,
        lambda x, signs: apply_u(spec, signs * x),
        lambda x: 0.0,
        histogram_of=np.copy,
    )
    assert len(result.histograms) == len(schedule) + 1
    for signs, x, nxt in zip(schedule, result.histograms, result.histograms[1:]):
        np.testing.assert_allclose(nxt, u @ (signs * x), atol=1e-12)


@pytest.mark.parametrize("kind", [KIND_SIMPLE, KIND_NEIGHBORHOOD])
@pytest.mark.parametrize("n", [6, 9, 12])
def test_norm_is_preserved(kind, n):
    spec = EnsembleSpec(n=n, k=3, m=3 * n, kind="random-soluble", seed=500 + n)
    problem = generate(spec).problem
    result = run_trial(problem, PolicySpec(kind), record_histograms=True)
    for hist in result.histograms:
        assert np.sum(hist) == pytest.approx(1.0, abs=1e-10)


def test_select_best_prefers_smaller_step_on_tie():
    assert select_best([0.0, 0.5, 0.5]) == (1, 2.0)
    # 1/0.1 = 10 beats 2/0.4 = 5 only in reverse; later step wins here
    assert select_best([0.0, 0.1, 0.4]) == (2, 5.0)
    assert select_best([0.3]) == (None, math.inf)
    assert select_best([0.0, 0.0, 0.0]) == (None, math.inf)


def test_insoluble_instance_reports_no_best_step():
    # all four conflict patterns on two variables: unsatisfiable
    clauses = tuple(
        clause_from_literals(lits)
        for lits in ([1, 2], [1, -2], [-1, 2], [-1, -2])
    )
    problem = SatProblem(n=3, k=2, clauses=clauses)
    result = run_trial(problem, PolicySpec(KIND_SIMPLE))
    assert result.best_j is None
    assert result.best_cost == math.inf
    assert all(p == 0.0 for p in result.p_soln_by_step)


def test_conflict_histogram_totals():
    problem = generate(EnsembleSpec(n=5, k=3, m=10, kind="random", seed=3)).problem
    conflicts = conflict_vector(problem)
    x = uniform(5)
    hist = conflict_histogram(x, conflicts, problem.m)
    assert hist.shape == (problem.m + 1,)
    assert hist.sum() == pytest.approx(1.0, abs=1e-12)
    for c in range(problem.m + 1):
        expected = np.sum(conflicts == c) / 32
        assert hist[c] == pytest.approx(expected, abs=1e-12)
    assert solution_readout(conflicts)(x) == pytest.approx(hist[0], abs=1e-15)


def conflicts_with_solutions(n: int, count: int, seed: int) -> np.ndarray:
    """A conflict table over 2**n assignments with ``count`` zeros."""
    rng = np.random.default_rng(seed)
    conflicts = rng.integers(1, 40, 1 << n).astype(np.uint8)
    conflicts[rng.choice(1 << n, count, replace=False)] = 0
    return conflicts


@pytest.mark.parametrize("count", [0, 1, 300, TABLE_PIECE])
def test_p_soln_is_the_one_sum_up_to_one_piece_of_solutions(count):
    n = 16
    conflicts = conflicts_with_solutions(n, count, seed=count)
    x = np.random.default_rng(1).standard_normal(1 << n)
    # held solution indices: the same bits as one sum over all solutions
    assert solution_readout(conflicts)(x) == np.sum(x[np.flatnonzero(conflicts == 0)] ** 2)


def test_p_soln_over_many_pieces_of_solutions():
    n = 16
    conflicts = np.zeros(1 << n, dtype=np.uint8)  # m = 0: every assignment solves
    x = np.random.default_rng(2).standard_normal(1 << n)
    assert solution_readout(conflicts)(x) == pytest.approx(np.sum(x**2), rel=1e-15, abs=0)
    # solutions spread unevenly over the pieces of the scan are each taken once
    odd = conflicts_with_solutions(n, 3 * TABLE_PIECE + 5, seed=3)
    assert solution_readout(odd)(x) == pytest.approx(np.sum(x[odd == 0] ** 2), rel=1e-15, abs=0)
    # the piece sums are added exactly: seven pieces of a quarter ulp each
    # would round away one by one against a first piece of 1.0
    y = np.zeros(1 << n)
    y[0], y[TABLE_PIECE::TABLE_PIECE] = 1.0, 2.0**-27
    assert solution_readout(conflicts)(y) == math.fsum(y**2) == 1 + 2.0**-51


def test_conflict_histogram_is_one_bincount_bit_for_bit():
    n, m = 16, 39
    conflicts = conflicts_with_solutions(n, 100, seed=4)
    x = np.random.default_rng(5).standard_normal(1 << n)
    expected = np.bincount(conflicts, weights=x**2, minlength=m + 1)
    np.testing.assert_array_equal(conflict_histogram(x, conflicts, m), expected)


def test_histogram_recording_through_run():
    problem = two_negated_units()
    result = run_trial(problem, PolicySpec(KIND_SIMPLE), record_histograms=True)
    assert len(result.histograms) == result.steps + 1
    np.testing.assert_allclose(result.histograms[0], [0.25, 0.5, 0.25], atol=1e-15)
    np.testing.assert_allclose(result.histograms[1], [1.0, 0.0, 0.0], atol=1e-12)


def test_trials_without_a_mixer_build_the_mixing_weights_once_per_n(monkeypatch):
    built = []  # (n, weak reference to the rows) per build of the weights
    held = []  # the n of each earlier build's rows still alive at a build
    build = qlsat.mixer._tau_rows

    def counted(n, alpha):
        held.extend(n for n, ref in built if ref() is not None)
        rows = build(n, alpha)
        built.append((n, weakref.ref(rows)))
        return rows

    monkeypatch.setattr(qlsat.mixer, "_tau_rows", counted)
    monkeypatch.setattr(qlsat.mixer, "_TAU_ROWS", {})
    problems = {
        n: [generate(EnsembleSpec(n=n, k=3, m=2 * n, kind="random", seed=s)).problem
            for s in range(3)]
        for n in (6, 7, 8)
    }
    run_trial(problems[6][0], PolicySpec(KIND_SIMPLE))
    for problem in problems[7]:
        run_trial(problem, PolicySpec(KIND_NEIGHBORHOOD))
    assert [n for n, _ in built] == [6, 7]
    run_trial(problems[8][0], PolicySpec(KIND_SIMPLE))
    assert [n for n, _ in built] == [6, 7, 8]
    assert held == []  # the n = 6 rows were gone before the n = 8 rows were built
    assert built[1][1]() is None  # and the n = 7 rows once they were


def test_j_max_truncates_and_cap_applies():
    problem = generate(EnsembleSpec(n=6, k=3, m=24, kind="random", seed=9)).problem
    # c_start = 3 gives a cap of 4 steps
    full = run_trial(problem, PolicySpec(KIND_SIMPLE))
    assert full.steps == 4
    short = run_trial(problem, PolicySpec(KIND_SIMPLE), j_max=2)
    assert short.steps == 2
    assert short.p_soln_by_step == full.p_soln_by_step[:3]
    assert run_trial(problem, PolicySpec(KIND_SIMPLE), j_max=99).steps == 4


def test_alpha_sets_the_mixer_at_the_problem_size():
    n = 8
    problem = generate(EnsembleSpec(n=n, k=3, m=4 * n, kind="random-soluble", seed=8)).problem
    conflicts = conflict_vector(problem)
    policy = resolve_policy(PolicySpec(KIND_SIMPLE), n, problem.m, problem.k)
    for alpha in (0, 2, n):
        mixer = MixerSpec(n, alpha)
        want = evolve(
            "full",
            uniform(n),
            step_signs(policy, n, problem.m),
            lambda x, signs: apply_u(mixer, x * signs[conflicts]),
            solution_readout(conflicts),
        )
        got = run_trial(problem, PolicySpec(KIND_SIMPLE), alpha=alpha)
        assert got.p_soln_by_step == want.p_soln_by_step
    with pytest.raises(ValueError, match="need 0 <= alpha <= n, got alpha=9"):
        run_trial(problem, PolicySpec(KIND_SIMPLE), alpha=n + 1)


def test_a_neighborhood_start_past_int64_runs_as_its_cut():
    # two steps at n = 6 read a start from the cut, 9, on only mod 4: 2**63 runs as 12
    problem = generate(EnsembleSpec(n=6, k=3, m=24, kind="random", seed=9)).problem
    cut = problem.n + 1 + 2
    start = cut + (2**63 - cut) % 4
    want = run_trial(problem, PolicySpec(KIND_NEIGHBORHOOD, n_start=start), j_max=2)
    got = run_trial(problem, PolicySpec(KIND_NEIGHBORHOOD, n_start=2**63), j_max=2)
    assert (got.p_soln_by_step, got.best_j) == (want.p_soln_by_step, want.best_j)


def test_a_negative_j_max_is_refused_before_the_conflict_table(monkeypatch):
    problem = generate(EnsembleSpec(n=6, k=3, m=24, kind="random", seed=9)).problem

    def no_table(*args, **kwargs):
        raise AssertionError("the conflict table was built")

    monkeypatch.setattr(qlsat.engine, "conflict_vector", no_table)
    for kind in (KIND_SIMPLE, KIND_NEIGHBORHOOD):
        with pytest.raises(ValueError, match="j_max must be 0 or more, got -1"):
            run_trial(problem, PolicySpec(kind), j_max=-1)


@pytest.mark.parametrize(
    "spec",
    [PolicySpec(KIND_SIMPLE, c_start=2**63), PolicySpec(KIND_NEIGHBORHOOD, n_start=2**63)],
)
def test_more_than_2_63_steps_are_refused_before_the_conflict_table(spec, monkeypatch):
    problem = generate(EnsembleSpec(n=6, k=3, m=24, kind="random", seed=9)).problem

    def no_table(*args, **kwargs):
        raise AssertionError("the conflict table was built")

    monkeypatch.setattr(qlsat.engine, "conflict_vector", no_table)
    with pytest.raises(ValueError, match=r"^9223372036854775809 steps exceed"):
        run_trial(problem, spec)


def test_capacity_guard():
    policy = PolicySpec(KIND_SIMPLE)
    with pytest.raises(CapacityError):
        run_trial(SatProblem(n=30, k=1, clauses=(clause_from_literals([-1]),)), policy)
    problem = generate(EnsembleSpec(n=14, k=3, m=56, kind="random", seed=14)).problem
    with pytest.raises(CapacityError):
        run_trial(problem, policy, limit=12)
    assert run_trial(problem, policy, j_max=1, limit=None).steps == 1


def test_run_result_steps_property():
    result = RunResult("full", [0.1, 0.2, 0.3], best_j=2, best_cost=2 / 0.3)
    assert result.steps == 2


def test_soluble_ensemble_amplified_well_above_uniform():
    """Mean final-step solution probability over a frozen random ensemble.

    50 soluble instances at n=12, m=48: the uniform baseline would put
    far less mass on solutions than the evolved state does after the
    five-step simple-threshold schedule.  The band is wide but excludes
    both no-op behavior and overclaiming.
    """
    finals = []
    for i in range(50):
        seed = instance_seed_sequence(4800, i)
        spec = EnsembleSpec(n=12, k=3, m=48, kind="random-soluble", seed=seed)
        problem = generate(spec).problem
        result = run_trial(problem, PolicySpec(KIND_SIMPLE), j_max=5)
        assert result.steps == 5
        finals.append(result.p_soln_by_step[5])
    mean_p = float(np.mean(finals))
    assert 0.003 < mean_p < 0.03


@pytest.mark.parametrize("kind", [KIND_SIMPLE, KIND_NEIGHBORHOOD])
@pytest.mark.parametrize("n", [12, 14])
def test_run_trial_matches_the_oracle_loop(kind, n):
    spec = EnsembleSpec(n=n, k=3, m=4 * n, kind="random-soluble", seed=700 + n)
    problem = generate(spec).problem
    probs, best_j = oracle_trial(problem, PolicySpec(kind))
    result = run_trial(problem, PolicySpec(kind))
    np.testing.assert_allclose(result.p_soln_by_step, probs, rtol=0, atol=1e-12)
    assert result.best_j == best_j


@pytest.mark.parametrize(
    "kind,n",
    # n = 15: four pieces of TABLE_PIECE assignments in one transform block;
    # n = 18: two blocks of the low transform passes, each flipped just before
    [
        pytest.param(kind, n, id=kind if n == 15 else f"{kind}-{n}")
        for n in (15, 18)
        for kind in (KIND_SIMPLE, KIND_NEIGHBORHOOD)
    ],
)
def test_signs_applied_piece_by_piece_equal_one_whole_vector_gather(kind, n):
    pieces, blocks = (1 << n) // TABLE_PIECE, -(-(1 << n) // qlsat.mixer.BLOCK)
    assert (pieces, blocks) == ((4, 1) if n == 15 else (32, 2))
    spec = EnsembleSpec(n=n, k=3, m=4 * n, kind="random-soluble", seed=15)
    problem = generate(spec).problem
    policy = resolve_policy(PolicySpec(kind), n, problem.m, problem.k)
    conflicts = conflict_vector(problem)
    table = policy_table(policy, conflicts)
    mixer = MixerSpec(n)
    whole = evolve(
        "full",
        uniform(n),
        step_signs(policy, n, problem.m),
        lambda x, signs: apply_u(mixer, x * signs[table], inplace=True),
        solution_readout(conflicts),
    )
    result = run_trial(problem, PolicySpec(kind))
    assert result.steps == whole.steps > 1 and result.best_j is not None
    assert result.p_soln_by_step == whole.p_soln_by_step


@pytest.mark.parametrize("kind", [KIND_SIMPLE, KIND_NEIGHBORHOOD])
@pytest.mark.parametrize("case", ["random", "no-clauses", "histograms"])
def test_run_trial_peak_is_at_most_2_5_state_vectors(case, kind):
    n = 16
    if case == "no-clauses":  # every assignment is a solution
        problem = SatProblem(n=n, k=3, clauses=())
    else:
        spec = EnsembleSpec(n=n, k=3, m=4 * n, kind="random", seed=16)
        problem = generate(spec).problem
    histograms = case == "histograms"
    # warm-up: lazily built shared tables
    run_trial(problem, PolicySpec(kind), record_histograms=histograms)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run_trial(problem, PolicySpec(kind), record_histograms=histograms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the state, one-byte tables and fixed-size transform, readout and
    # conflict-table blocks: 1.63-1.77 measured over these cases, the
    # mixing weights (0.25) being those of the spec the warm-up left for
    # this n; with a new spec per trial 1.88-2.02, and one more state held
    # for the whole trial reads 2.63-2.77
    assert (peak - base) / (8 << n) <= 2.5


@pytest.mark.parametrize("kind", [KIND_SIMPLE, KIND_NEIGHBORHOOD])
def test_run_trial_peak_at_n_20_is_the_state_and_one_count_table(kind):
    n = 20
    problem = generate(EnsembleSpec(n=n, k=3, m=4 * n, kind="random", seed=20)).problem
    run_trial(problem, PolicySpec(kind))  # warm-up: lazily built shared tables
    # the mixing weights, shared by every spec of this n, are rows of one
    # piece, not a 2**n table
    assert MixerSpec(n).tau_rows.nbytes <= (n - 12) * (64 << 10)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run_trial(problem, PolicySpec(kind))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the state, the one-byte count table the policy reads and fixed-size
    # blocks: 1.19 measured for both policies; a 2**n float32 weight table
    # or a conflict table held beside the n_better table reads 1.75-1.88
    assert (peak - base) / (8 << n) <= 1.5


@pytest.mark.parametrize(
    "kind,clauses,histograms,held",
    [
        (KIND_NEIGHBORHOOD, True, False, False),
        (KIND_NEIGHBORHOOD, True, True, True),  # the histogram readout reads it
        (KIND_NEIGHBORHOOD, False, False, True),  # 2**14 solutions: read by pieces
        (KIND_SIMPLE, True, False, True),  # it is the policy's count table
    ],
)
def test_the_conflict_table_lives_only_while_something_reads_it(
    monkeypatch, kind, clauses, histograms, held
):
    n = 14
    if clauses:
        problem = generate(EnsembleSpec(n=n, k=3, m=4 * n, kind="random", seed=14)).problem
    else:
        problem = SatProblem(n=n, k=3, clauses=())
    tables, alive = [], []

    def recorded(problem, limit):
        table = conflict_vector(problem, limit)
        tables.append(weakref.ref(table))
        return table

    def watched(*args, **kwargs):
        alive.append(tables[0]() is not None)
        return evolve(*args, **kwargs)

    monkeypatch.setattr(qlsat.engine, "conflict_vector", recorded)
    monkeypatch.setattr(qlsat.engine, "evolve", watched)
    run_trial(problem, PolicySpec(kind), record_histograms=histograms)
    assert alive == [held]


def test_peak_stays_at_2_5_state_vectors_over_many_steps_of_wide_sign_tables():
    # m = 3920 gives 3921 count values and 491 simple-threshold steps: the
    # signs of all steps at once would be 15 MB, 30 state vectors at n = 16
    n = 16
    problem = generate(EnsembleSpec(n=n, k=3, m=3920, kind="random", seed=16)).problem
    policy = PolicySpec(KIND_SIMPLE)
    assert resolve_policy(policy, n, problem.m, problem.k).max_steps == 491
    run_trial(problem, policy, j_max=1)  # warm-up: lazily built shared tables
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = run_trial(problem, policy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.steps == 491
    # 1.98 measured (2.23 with a new spec per trial): the bound of the test
    # above, neared here by the two-byte conflict table and one 64 KiB block
    # of signs held in a step
    assert (peak - base) / (8 << n) <= 2.5


@pytest.mark.parametrize("n", [16, 18])
@pytest.mark.parametrize("kind", [KIND_SIMPLE, KIND_NEIGHBORHOOD])
def test_hypercube_symmetries_keep_every_result(n, kind):
    # no exact oracle reaches n = 16, so each instance is checked against
    # itself moved by a permutation and polarity flip of its variables, and
    # against its clauses in another order, which the exact integer
    # conflict table makes bit-identical
    rng = np.random.default_rng(n)
    for seed in range(3):
        problem = generate(EnsembleSpec(n=n, k=3, m=4 * n, kind="random-soluble", seed=seed)).problem
        want = run_trial(problem, PolicySpec(kind), record_histograms=True)
        moved = relabel(problem, rng.permutation(n).tolist(), int(rng.integers(1 << n)))
        got = run_trial(moved, PolicySpec(kind), record_histograms=True)
        assert (got.steps, got.best_j) == (want.steps, want.best_j)
        np.testing.assert_allclose(got.p_soln_by_step, want.p_soln_by_step, rtol=0, atol=1e-13)
        np.testing.assert_allclose(got.histograms, want.histograms, rtol=0, atol=1e-13)
        order = rng.permutation(problem.m).tolist()
        shuffled = SatProblem(n, 3, tuple(problem.clauses[i] for i in order))
        same = run_trial(shuffled, PolicySpec(kind), record_histograms=True)
        assert same.p_soln_by_step == want.p_soln_by_step
        assert same.best_j == want.best_j
        assert np.array_equal(same.histograms, want.histograms)
