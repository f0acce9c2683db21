"""Clause representation, conflict statistics, and DIMACS interchange."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from oracles import (
    conflicts_with,
    count_conflicts,
    index_conflict_vector,
    index_n_better_vector,
    n_better,
)

from qlsat.generate import max_clauses
from qlsat.sat import (
    CapacityError,
    ConflictPattern,
    SatProblem,
    check_full_capacity,
    clause_from_literals,
    clause_to_literals,
    conflict_vector,
    from_dimacs,
    n_better_vector,
    to_dimacs,
)


def random_problem(n, k, m, seed):
    """Distinct random clauses drawn directly, for oracle comparisons."""
    rng = np.random.default_rng(seed)
    clauses = set()
    while len(clauses) < m:
        mask = 0
        for v in rng.choice(n, size=k, replace=False):
            mask |= 1 << int(v)
        value = 0
        for bit in range(n):
            if mask >> bit & 1 and rng.integers(2):
                value |= 1 << bit
        clauses.add(ConflictPattern(mask, value))
    return SatProblem(n=n, k=k, clauses=tuple(sorted(clauses, key=lambda c: (c.mask, c.value))))


def test_ones_and_hamming():
    # one unit literal per variable, true where the solution has a 1 bit:
    # an assignment's conflict count is its Hamming distance to the solution
    solution = 0b0110
    literals = [i + 1 if solution >> i & 1 else -(i + 1) for i in range(4)]
    problem = SatProblem(n=4, k=1, clauses=tuple(clause_from_literals([lit]) for lit in literals))
    for s in range(16):
        assert count_conflicts(problem, s) == (s ^ solution).bit_count()


def test_negated_unit_pair_pins_the_all_false_assignment():
    c1 = clause_from_literals([-1])
    c2 = clause_from_literals([-2])
    problem = SatProblem(n=2, k=1, clauses=(c1, c2))
    assert [count_conflicts(problem, s) for s in range(4)] == [0, 1, 1, 2]
    assert count_conflicts(problem, 0) == 0
    assert to_dimacs(problem) == "p cnf 2 2\n-1 0\n-2 0\n"


def test_clause_pattern_semantics():
    # x1 OR NOT x3 is falsified only by x1=0, x3=1 (bit 0 clear, bit 2 set)
    clause = clause_from_literals([1, -3])
    assert clause.mask == 0b101
    assert clause.value == 0b100
    assert conflicts_with(clause, 0b100)
    assert conflicts_with(clause, 0b110)
    assert not conflicts_with(clause, 0b101)
    assert clause.k == 2


@pytest.mark.parametrize("literals", [[1, -3], [-2], [4, 2, -1]])
def test_literal_round_trip(literals):
    clause = clause_from_literals(literals)
    assert clause_from_literals(clause_to_literals(clause)) == clause
    assert clause_to_literals(clause) == sorted(literals, key=abs)


def test_clause_from_literals_rejects_bad_input():
    with pytest.raises(ValueError):
        clause_from_literals([0])
    with pytest.raises(ValueError):
        clause_from_literals([2, -2])


def test_conflict_pattern_validation():
    with pytest.raises(ValueError):
        ConflictPattern(mask=0b01, value=0b10)
    with pytest.raises(ValueError):
        ConflictPattern(mask=-1, value=0)


def test_problem_validation():
    c = ConflictPattern(0b11, 0b01)
    with pytest.raises(ValueError):
        SatProblem(n=2, k=2, clauses=(c, c))
    with pytest.raises(ValueError):
        SatProblem(n=1, k=2, clauses=(c,))
    with pytest.raises(ValueError):
        SatProblem(n=2, k=1, clauses=(c,))
    with pytest.raises(ValueError):  # a clause on a variable beyond n
        SatProblem(n=2, k=1, clauses=(ConflictPattern(4, 0),))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n,k,m", [(4, 2, 6), (6, 3, 15), (8, 3, 24)])
def test_conflict_vector_matches_per_assignment_count(n, k, m, seed):
    problem = random_problem(n, k, m, seed)
    vec = conflict_vector(problem)
    assert vec.shape == (1 << n,)
    for s in range(1 << n):
        assert vec[s] == count_conflicts(problem, s)
    assert float(vec.mean()) == pytest.approx(float(Fraction(m, 2**k)))


def test_n_better_vector_refuses_a_table_that_is_not_a_power_of_two_long():
    with pytest.raises(ValueError, match="power of two"):
        n_better_vector(np.zeros(6, dtype=np.uint8))


@pytest.mark.parametrize("seed", [3, 4])
def test_better_neighbor_counts(seed):
    problem = random_problem(6, 3, 12, seed)
    vec = n_better_vector(conflict_vector(problem))
    for s in range(1 << 6):
        assert vec[s] == n_better(problem, s)


@pytest.mark.parametrize(
    "n,k,m",
    [
        (1, 1, 1), (5, 2, 20), (10, 3, 40), (13, 3, 52), (16, 3, 64),
        # odd n: the high half of the index has one bit more than the low half
        (7, 3, 28), (17, 3, 68),
        (9, 3, 0), (12, 1, 20),
        # uint16 tables, the second with the most clauses a soluble instance has
        (9, 3, 300), (10, 3, max_clauses(10, 3)),
    ],
)
def test_strided_tables_equal_the_index_vector_builds(n, k, m):
    problem = random_problem(n, k, m, seed=n)
    conflicts = conflict_vector(problem)
    assert conflicts.dtype == (np.uint8 if m < 256 else np.uint16)
    np.testing.assert_array_equal(conflicts, index_conflict_vector(problem))
    better = n_better_vector(conflicts)
    assert better.dtype == np.uint8
    np.testing.assert_array_equal(better, index_n_better_vector(problem))


@pytest.mark.parametrize(
    "n,k,m",
    # bits 0-2 permute the columns of one (-1, 8) view, fewer below n = 3;
    # the strided passes take the bits above
    [(0, 0, 0), (0, 0, 1), (1, 1, 2), (2, 1, 3), (2, 2, 4), (3, 2, 7), (3, 3, 8), (14, 3, 56)],
)
def test_low_bit_flips_equal_the_index_vector_build(n, k, m):
    problem = random_problem(n, k, m, seed=40 + n)
    better = n_better_vector(conflict_vector(problem))
    assert better.dtype == np.uint8 and better.shape == (1 << n,)
    np.testing.assert_array_equal(better, index_n_better_vector(problem))


@pytest.mark.parametrize("m", [64, max_clauses(16, 3)])
def test_conflict_table_build_holds_at_most_half_a_state_vector(m):
    n = 16
    problem = random_problem(n, 3, m, seed=m)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        table = conflict_vector(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # clause indicators and one piece of their product: 0.26 measured for
    # both m; one indicator matrix of all 3920 clauses would be 8 vectors
    assert (peak - base - table.nbytes) / (8 << n) <= 0.5


def test_conflict_table_widens_past_255_clauses():
    problem = random_problem(9, 3, 300, seed=5)
    conflicts = conflict_vector(problem)
    assert conflicts.dtype == np.uint16
    assert conflicts.max() > 1
    for s in range(1 << 9):
        assert conflicts[s] == count_conflicts(problem, s)


def test_capacity_guard():
    check_full_capacity(26)
    check_full_capacity(40, limit=None)
    with pytest.raises(CapacityError):
        check_full_capacity(27)
    big = SatProblem(n=30, k=1, clauses=(ConflictPattern(1, 1),))
    with pytest.raises(CapacityError):
        conflict_vector(big)


def test_dimacs_round_trip():
    problem = random_problem(7, 3, 12, seed=9)
    again = from_dimacs(to_dimacs(problem))
    assert again.n == problem.n and again.k == problem.k
    assert set(again.clauses) == set(problem.clauses)


def test_dimacs_accepts_comments_and_multiline_clauses():
    text = "c header comment\np cnf 3 2\n1 -2\n0\n-3 1 0\n"
    problem = from_dimacs(text)
    assert problem.n == 3 and problem.m == 2 and problem.k == 2


def satlib_text(problem: SatProblem) -> str:
    """The problem laid out as SATLIB's random 3-SAT files (uf20-91) are: a
    two-space header, clause lines with a leading space, and a trailer of
    "%", "0" and a blank line."""
    lines = ["c This Formular is generated by mcnf", "c", "c    horn? no ",
             f"p cnf {problem.n}  {problem.m} "]
    lines += [" " + " ".join(map(str, clause_to_literals(c))) + " 0" for c in problem.clauses]
    return "\n".join(lines) + "\n%\n0\n\n"


def test_dimacs_stops_at_the_satlib_trailer():
    problem = random_problem(20, 3, 91, seed=20)
    text = satlib_text(problem)
    assert "\np cnf 20  91 \n " in text and text.endswith("\n%\n0\n\n")
    body = text[: text.index("%")]
    assert from_dimacs(text) == from_dimacs(body) == problem


@pytest.mark.parametrize(
    "text",
    [
        "p cnf 2 2\n-1 0\n",  # header declares more clauses than present
        "p cnf 2 1\n-1 0\n-2 0\n",  # fewer
        "p cnf 3 2\n1 2 0\n-3 0\n",  # mixed clause widths
        "p cnf 2 1\n1 4 0\n",  # literal out of range
        "p cnf 2 1\n1 -1 0\n",  # repeated variable
        "p cnf 2 2\n-1 0\n-1 0\n",  # duplicate clause
        "p cnf 2 1\n1\n",  # unterminated clause
        "-1 0\n",  # clause before header
        "",  # missing header
        "p dnf 2 1\n1 0\n",  # wrong format tag
    ],
)
def test_dimacs_rejects_malformed_input(text):
    with pytest.raises(ValueError):
        from_dimacs(text)
