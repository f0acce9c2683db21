"""Instance ensembles, combinatorial unranking, and the backtracking solver."""

import hashlib
import importlib
import itertools
from math import comb

import numpy as np
import pytest

from qlsat.generate import (
    DEFAULT_REJECTION_BUDGET,
    GENERATOR_NAME,
    EnsembleSpec,
    HopelessSpecError,
    _sample_distinct,
    backtrack_count,
    backtrack_solve,
    clause_universe_size,
    draw_planted,
    gen_max_constrained_1sat,
    gen_random,
    gen_random_soluble,
    generate,
    instance_metadata,
    instance_seed_sequence,
    max_clauses,
    soluble_bound,
    unrank_clause,
)
from qlsat.sat import ConflictPattern, SatProblem

from oracles import (
    conflicts_with,
    count_conflicts,
    first_solution,
    floyd_sample,
    spread_bits,
    unrank_subset_by_items,
)

# the package re-exports the function generate() under the submodule's name
generate_mod = importlib.import_module("qlsat.generate")


def unrank_subset(n: int, k: int, rank: int) -> int:
    """The mask of the rank-th k-subset, read off the clause unranking."""
    return unrank_clause(n, k, rank << k).mask


def test_unrank_subset_is_a_lexicographic_bijection():
    assert [unrank_subset(4, 2, r) for r in range(6)] == [
        0b0011,
        0b0101,
        0b1001,
        0b0110,
        0b1010,
        0b1100,
    ]
    for n, k in ((5, 1), (5, 3), (7, 4), (6, 6)):
        masks = [unrank_subset(n, k, r) for r in range(comb(n, k))]
        assert len(set(masks)) == comb(n, k)
        assert all(m.bit_count() == k for m in masks)
    with pytest.raises(ValueError):
        unrank_subset(4, 2, 6)


def test_unrank_clause_covers_the_universe_once():
    size = clause_universe_size(4, 2)
    assert size == comb(4, 2) * 4
    clauses = {unrank_clause(4, 2, i) for i in range(size)}
    assert len(clauses) == size


@pytest.mark.parametrize("planted", [0, 0b10110, 0b01001])
def test_unrank_nonconflicting_skips_exactly_the_planted_pattern(planted):
    n, k = 5, 2
    size = max_clauses(n, k)
    assert size == comb(n, k) * (2**k - 1)
    clauses = set()
    for i in range(size):
        c = unrank_clause(n, k, i, planted)
        assert not conflicts_with(c, planted)
        clauses.add(c)
    assert len(clauses) == size


def test_same_seed_reproduces_and_seeds_differ():
    spec = EnsembleSpec(n=8, k=3, m=20, kind="random", seed=7)
    a = gen_random(spec).problem
    b = gen_random(spec).problem
    assert a.clauses == b.clauses
    other = gen_random(EnsembleSpec(n=8, k=3, m=20, kind="random", seed=8)).problem
    assert other.clauses != a.clauses


@pytest.mark.parametrize("kind", ["random", "prespecified-solution"])
def test_generated_instances_are_distinct_uniform_width(kind):
    spec = EnsembleSpec(n=9, k=3, m=30, kind=kind, seed=3)
    problem = generate(spec).problem
    assert problem.m == 30
    assert len(set(problem.clauses)) == 30
    assert all(c.k == 3 for c in problem.clauses)


@pytest.mark.parametrize("seed", range(4))
def test_prespecified_solution_satisfies_instance(seed):
    spec = EnsembleSpec(n=10, k=3, m=60, kind="prespecified-solution", seed=seed)
    inst = generate(spec)
    assert inst.planted is not None
    assert count_conflicts(inst.problem, inst.planted) == 0


def test_max_constrained_conflicts_count_distance_to_planted():
    spec = EnsembleSpec(n=7, k=1, m=7, kind="max-constrained-1sat", seed=5, planted=0b1011001)
    inst = gen_max_constrained_1sat(spec)
    assert inst.planted == 0b1011001
    assert inst.solution_count == 1
    for s in range(1 << 7):
        assert count_conflicts(inst.problem, s) == (s ^ 0b1011001).bit_count()


@pytest.mark.parametrize("n", [64, 80, 200])
def test_wide_planted_draws(n):
    draws = []
    for seed in range(3):
        inst = generate(EnsembleSpec(n=n, k=1, m=n, kind="max-constrained-1sat", seed=seed))
        assert 0 <= inst.planted < 1 << n
        assert count_conflicts(inst.problem, inst.planted) == 0
        assert inst == generate(inst.spec)
        draws.append(inst.planted)
    assert len(set(draws)) == 3
    assert max(draws).bit_length() > 63


def test_wide_prespecified_solution_satisfies_instance():
    inst = generate(EnsembleSpec(n=80, k=3, m=320, kind="prespecified-solution", seed=4))
    assert 0 <= inst.planted < 1 << 80
    assert count_conflicts(inst.problem, inst.planted) == 0


def test_narrow_planted_draws_are_unchanged():
    # values pinned from the single-integer draw that every n < 64 still uses
    def planted(n, seed):
        return generate(EnsembleSpec(n=n, k=1, m=n, kind="max-constrained-1sat", seed=seed)).planted

    assert [planted(10, s) for s in range(3)] == [871, 484, 857]
    assert [planted(63, s) for s in range(3)] == [
        5874934615388537135,
        4720721261117928063,
        2412946043537042528,
    ]


def test_random_soluble_delivers_a_solution_and_respects_budget(monkeypatch):
    spec = EnsembleSpec(n=9, k=3, m=36, kind="random-soluble", seed=11)
    inst = gen_random_soluble(spec)
    witness = backtrack_solve(inst.problem)
    assert witness is not None and count_conflicts(inst.problem, witness) == 0
    assert DEFAULT_REJECTION_BUDGET == 10_000
    # the budget is read when a draw starts
    monkeypatch.setattr(generate_mod, "DEFAULT_REJECTION_BUDGET", 0)
    with pytest.raises(HopelessSpecError):  # refused before its first attempt
        gen_random_soluble(spec)
    # a spec that is not hopeless, but whose one attempt is insoluble
    monkeypatch.setattr(generate_mod, "DEFAULT_REJECTION_BUDGET", 1)
    spec = EnsembleSpec(n=5, k=3, m=40, kind="random-soluble", seed=0)
    with pytest.raises(RuntimeError, match="no soluble instance within 1 attempts") as info:
        gen_random_soluble(spec)
    assert type(info.value) is RuntimeError


def test_fully_constrained_prespecified_collapses_to_the_unit_clause_family():
    # With every admissible clause present, the two generation routes must
    # describe the same instance for each planted assignment.
    for planted in range(4):
        full = generate(
            EnsembleSpec(n=2, k=1, m=2, kind="prespecified-solution", seed=1, planted=planted)
        )
        direct = gen_max_constrained_1sat(
            EnsembleSpec(n=2, k=1, m=2, kind="max-constrained-1sat", seed=1, planted=planted)
        )
        assert set(full.problem.clauses) == set(direct.problem.clauses)


def test_fully_constrained_two_sat_has_a_unique_solution():
    m = max_clauses(6, 2)
    inst = generate(
        EnsembleSpec(n=6, k=2, m=m, kind="prespecified-solution", seed=2, planted=0b010110)
    )
    assert inst.problem.m == m == 45
    assert count_conflicts(inst.problem, 0b010110) == 0
    assert backtrack_count(inst.problem) == 1


def test_single_clause_draws_are_uniform_over_the_universe():
    # Fixed-seed chi-square against the 40-clause universe for n=5, k=2;
    # 62.43 is the 99th percentile of chi-square with 39 degrees of freedom.
    universe = clause_universe_size(5, 2)
    lookup = {unrank_clause(5, 2, i): i for i in range(universe)}
    counts = np.zeros(universe)
    draws = 4000
    for i in range(draws):
        spec = EnsembleSpec(n=5, k=2, m=1, kind="random", seed=instance_seed_sequence(99, i))
        counts[lookup[gen_random(spec).problem.clauses[0]]] += 1
    expected = draws / universe
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 62.43


def test_seed_sequence_split_is_deterministic():
    assert instance_seed_sequence(0, 0) == instance_seed_sequence(0, 0)
    assert instance_seed_sequence(0, 0) != instance_seed_sequence(0, 1)
    assert instance_seed_sequence(1, 0) != instance_seed_sequence(0, 0)


def test_metadata_sidecar_fields():
    spec = EnsembleSpec(n=6, k=2, m=9, kind="prespecified-solution", seed=4)
    meta = instance_metadata(generate(spec))
    assert meta["n"] == 6 and meta["k"] == 2 and meta["m"] == 9
    assert meta["kind"] == "prespecified-solution"
    assert meta["generator"] == GENERATOR_NAME == "numpy-pcg64"
    assert 0 <= meta["planted"] < 64


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=4, k=2, m=3, kind="no-such-kind", seed=0),
        dict(n=4, k=5, m=3, kind="random", seed=0),
        dict(n=4, k=2, m=-1, kind="random", seed=0),
        dict(n=4, k=2, m=25, kind="random", seed=0),  # universe is 24
        dict(n=4, k=2, m=19, kind="prespecified-solution", seed=0),  # admissible max is 18
        dict(n=4, k=2, m=4, kind="max-constrained-1sat", seed=0),
        dict(n=4, k=1, m=3, kind="max-constrained-1sat", seed=0),
        dict(n=4, k=2, m=3, kind="prespecified-solution", seed=0, planted=16),
        # only the planted kinds read a planted assignment
        dict(n=4, k=2, m=3, kind="random", seed=0, planted=5),
        dict(n=4, k=2, m=3, kind="random-soluble", seed=0, planted=5),
    ],
)
def test_ensemble_spec_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        EnsembleSpec(**kwargs)


def brute_count(problem):
    return sum(1 for s in range(1 << problem.n) if count_conflicts(problem, s) == 0)


@pytest.mark.parametrize("seed", range(5))
def test_backtrack_count_matches_enumeration(seed):
    spec = EnsembleSpec(n=7, k=3, m=25, kind="random", seed=seed)
    problem = gen_random(spec).problem
    assert backtrack_count(problem) == brute_count(problem)


def test_backtrack_solve_finds_nothing_in_a_contradiction():
    clauses = tuple(ConflictPattern(0b11, v) for v in range(4))
    problem = SatProblem(n=3, k=2, clauses=clauses)
    assert backtrack_solve(problem) is None
    assert backtrack_count(problem) == 0


def test_backtrack_count_handles_unconstrained_tail_variables():
    # Clauses touch only the first two of five variables, so each surviving
    # prefix carries 2**3 completions.
    problem = SatProblem(n=5, k=2, clauses=(ConflictPattern(0b11, 0b00),))
    assert backtrack_count(problem) == brute_count(problem) == 24


# --- generation pinned bit for bit ---------------------------------------------


def test_unrank_subset_matches_the_item_by_item_reference_exhaustively():
    for n in range(13):
        for k in range(n + 1):
            for rank in range(comb(n, k)):
                mask = unrank_subset_by_items(n, k, rank)
                assert unrank_subset(n, k, rank) == mask
                for packed in {0, (1 << k) - 1, rank % (1 << k)}:
                    clause = unrank_clause(n, k, (rank << k) | packed)
                    assert clause == ConflictPattern(mask, spread_bits(packed, mask))


def reference_clauses(n: int, k: int) -> list[ConflictPattern]:
    """The clause universe in index order, from the item-by-item subset reference."""
    masks = [unrank_subset_by_items(n, k, rank) for rank in range(comb(n, k))]
    return [ConflictPattern(mask, spread_bits(p, mask)) for mask in masks for p in range(1 << k)]


@pytest.mark.parametrize("n", range(1, 8))
def test_unrank_clause_is_an_ordered_bijection_in_both_modes(n):
    # plain: every index of the universe, in order; planted: the same order
    # with the clauses the planted assignment falsifies taken out
    for k in range(1, n + 1):
        want = reference_clauses(n, k)
        size = clause_universe_size(n, k)
        assert [unrank_clause(n, k, i) for i in range(size)] == want
        for planted in range(1 << n):
            admissible = [c for c in want if not conflicts_with(c, planted)]
            assert [unrank_clause(n, k, i, planted) for i in range(max_clauses(n, k))] == admissible
        for index, planted in ((-1, None), (size, None), (-1, 0), (max_clauses(n, k), 0)):
            with pytest.raises(ValueError, match="out of range"):
                unrank_clause(n, k, index, planted)


@pytest.mark.parametrize("n", range(66, 71))
def test_unrank_clause_matches_the_reference_past_64_bits(n):
    planted = (1 << n) // 3  # every other variable set
    for k in (1, 2, 3, 5):
        total = comb(n, k)
        assert unrank_subset_by_items(n, k, total - 1).bit_length() == n  # the top items
        for rank in (0, 1, total // 3, total - 1):
            mask = unrank_subset_by_items(n, k, rank)
            for packed in {0, (1 << k) - 1, rank % (1 << k)}:
                got = unrank_clause(n, k, (rank << k) | packed)
                assert got == ConflictPattern(mask, spread_bits(packed, mask))
            admissible = [spread_bits(p, mask) for p in range(1 << k)]
            admissible.remove(planted & mask)
            per_mask = (1 << k) - 1
            for r in {0, per_mask - 1, rank % per_mask}:
                got = unrank_clause(n, k, rank * per_mask + r, planted)
                assert got == ConflictPattern(mask, admissible[r])


@pytest.mark.parametrize("kind", ["prespecified-solution", "max-constrained-1sat"])
@pytest.mark.parametrize("n", [6, 63, 64, 70, 200])
def test_draw_planted_is_the_planted_value_of_the_instance(kind, n):
    # the compact engine's records carry draw_planted, never a generated instance
    k, m = (1, n) if kind == "max-constrained-1sat" else (3, 12)
    for seed in range(3):
        spec = EnsembleSpec(n=n, k=k, m=m, kind=kind, seed=seed)
        assert draw_planted(spec) == generate(spec).planted
    fixed = EnsembleSpec(n=n, k=k, m=m, kind=kind, seed=0, planted=(1 << n) - 2)
    assert draw_planted(fixed) == generate(fixed).planted == (1 << n) - 2


@pytest.mark.parametrize("n,k", [(200, 3), (70, 35)])
def test_unrank_subset_matches_the_reference_at_wide_masks(n, k):
    total = comb(n, k)
    for rank in (0, 1, total // 3, total // 2, total - 2, total - 1):
        assert unrank_subset(n, k, rank) == unrank_subset_by_items(n, k, rank)
    for rank in (-1, total):
        with pytest.raises(ValueError):
            unrank_subset(n, k, rank)


@pytest.mark.parametrize(
    "universe,m",
    [(1, 1), (7, 0), (7, 7), (40, 13), (2**32 - 2, 9), (2**32 + 3, 9), (2**62 + 5, 6),
     (2**63 - 1, 4), (2**63, 4)],
)
def test_one_call_draw_consumes_the_stream_as_scalar_draws(universe, m):
    # the bounds of (2**32 + 3, 9) lie on both sides of 2**32
    for seed in range(20):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert _sample_distinct(rng, universe, m) == floyd_sample(ref, universe, m)
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("universe", [2**63 + 1, 2**64 + 5])
def test_one_call_draw_past_int64_raises_as_a_scalar_draw(universe):
    with pytest.raises(ValueError, match="high is out of bounds for int64"):
        floyd_sample(np.random.default_rng(0), universe, 3)
    with pytest.raises(ValueError, match="high is out of bounds for int64"):
        _sample_distinct(np.random.default_rng(0), universe, 3)


@pytest.mark.parametrize("n,k", [(70, 35), (42, 26)])
def test_an_oversized_universe_fails_the_draw(n, k):
    # (42, 26) has a universe in [2**63, 2**64), (70, 35) one past 2**64
    with pytest.raises(ValueError, match="high is out of bounds for int64"):
        generate(EnsembleSpec(n=n, k=k, m=3, kind="random", seed=0))


# sha256 prefixes of four seeds' clauses, planted values and counts per spec
GENERATE_DIGESTS = [
    ("random", 12, 3, 48, "476d6e3f7b484af9"),
    ("random", 5, 2, 40, "68b9ec86b8f71583"),  # the whole universe
    ("random", 6, 2, 0, "08688a74603f0b96"),
    ("random", 40, 8, 20, "b149833c75d68e7a"),  # bounds past 2**32
    ("random", 41, 27, 3, "be8990e562b90a5d"),  # k > n/2, bounds past 2**62
    ("random-soluble", 10, 3, 40, "0c6d127d028bd525"),
    ("random-soluble", 14, 3, 56, "f8fb15790e0f8d0a"),
    ("random-soluble", 9, 6, 30, "f5e99ee69affd415"),  # k > n/2
    ("random-soluble", 7, 3, 0, "08688a74603f0b96"),
    ("prespecified-solution", 10, 3, 40, "412e6af0a22e6653"),
    ("prespecified-solution", 70, 3, 300, "d913c921e18d7713"),  # masks past 64 bits
    ("prespecified-solution", 5, 2, 30, "238fb32f24d23a11"),  # every admissible clause
    ("prespecified-solution", 9, 6, 30, "28df9aa9d9355589"),  # k > n/2
    ("prespecified-solution", 8, 3, 0, "e470259788c5efc4"),
    ("max-constrained-1sat", 10, 1, 10, "e1ae3c03a4b60787"),
    ("max-constrained-1sat", 80, 1, 80, "072737bf2b8995e0"),
]


@pytest.mark.parametrize("kind,n,k,m,expected", GENERATE_DIGESTS)
def test_generated_instances_are_pinned_bit_for_bit(kind, n, k, m, expected):
    h = hashlib.sha256()
    for seed in range(4):
        inst = generate(EnsembleSpec(n=n, k=k, m=m, kind=kind, seed=seed))
        h.update(repr([(c.mask, c.value) for c in inst.problem.clauses]).encode())
        h.update(repr((inst.planted, inst.solution_count)).encode())
    assert h.hexdigest()[:16] == expected


def oracle_instances():
    """Random instances with n <= 10 over every width, soluble or not."""
    rng = np.random.default_rng(2024)
    for n in range(1, 11):
        for k in range(1, min(n, 4) + 1):
            universe = clause_universe_size(n, k)
            for _ in range(6):
                m = int(rng.integers(0, min(universe, 6 * n) + 1))
                spec = EnsembleSpec(n=n, k=k, m=m, kind="random", seed=int(rng.integers(1 << 30)))
                yield gen_random(spec).problem
    yield SatProblem(n=4, k=0, clauses=(ConflictPattern(0, 0),))  # a zero-width clause


def test_backtracking_matches_brute_force_search_order_and_count():
    problems = list(oracle_instances())
    assert len(problems) >= 200
    assert any(backtrack_solve(p) is None for p in problems[:-1])
    for problem in problems:
        assert backtrack_solve(problem) == first_solution(problem)
        assert backtrack_count(problem) == brute_count(problem)


# --- hopeless random-soluble specs ----------------------------------------------


def test_soluble_bound_is_the_exact_mean_solution_count():
    for n, k, m in ((3, 1, 2), (3, 2, 5), (4, 2, 3), (4, 3, 3)):
        universe = [unrank_clause(n, k, i) for i in range(clause_universe_size(n, k))]
        total = draws = 0
        for clauses in itertools.combinations(universe, m):
            total += brute_count(SatProblem(n, k, clauses))
            draws += 1
        num, den = soluble_bound(n, k, m)
        assert total * den == num * draws


@pytest.mark.parametrize(
    "n,m,refused",
    [(5, 70, True), (6, 100, True), (5, 60, False), (12, 120, False), (10, 40, False)],
)
def test_hopeless_random_soluble_specs_are_refused_before_any_draw(monkeypatch, n, m, refused):
    # budget * bound: 1.9e-7 and 1.9e-4 are refused; 0.036, 2.4 and 4.4e4 are not
    class Drew(Exception):
        pass

    def first_draw(*args, **kwargs):
        raise Drew

    monkeypatch.setattr(generate_mod, "gen_random", first_draw)
    spec = EnsembleSpec(n=n, k=3, m=m, kind="random-soluble", seed=0)
    assert issubclass(HopelessSpecError, RuntimeError)  # as an exhausted budget raises
    if refused:
        with pytest.raises(HopelessSpecError, match=r"at most 10\*\*-.*fewer than 1e-3"):
            gen_random_soluble(spec)
    else:
        with pytest.raises(Drew):
            gen_random_soluble(spec)
