"""Bit-level k-SAT representation and conflict statistics.

An assignment of n boolean variables is an integer in [0, 2**n): variable
V_i lives in bit i-1, so V_1 is the least significant bit.  A clause is
stored as the unique bit pattern that falsifies it, which makes conflict
tests single AND/compare operations and keeps instances compact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Full-state operations allocate 2**n vectors; refuse past this point
# unless the caller raises the limit explicitly.
DEFAULT_FULL_LIMIT = 26

# Entries (float32) a conflict-table build may hold in its clause
# indicators, and in one piece of their product, below n = 16; from there
# up the bound is 2**n / 8 entries, 1/16 of a float64 state.  Also the
# assignments per piece of a readout or a sign flip (64 KiB of float64):
# the solution and histogram readouts and the per-step sign gather make
# temporaries of a few pieces, not of the state.
TABLE_PIECE = 1 << 13


class CapacityError(Exception):
    """Raised when a dense or full-state operation exceeds its size limit."""


def check_full_capacity(n: int, limit: int | None = DEFAULT_FULL_LIMIT) -> None:
    """Raise CapacityError if a 2**n-sized computation is over the limit."""
    if limit is not None and n > limit:
        raise CapacityError(
            f"full-state operation needs 2**{n} entries; limit is n <= {limit}"
        )


@dataclass(frozen=True)
class ConflictPattern:
    """A clause, stored as the single assignment pattern it forbids.

    ``mask`` selects the k variables in the clause and ``value`` gives the
    bit values (within the mask) that falsify it.  An assignment s
    conflicts with the clause exactly when (s & mask) == value.
    """

    mask: int
    value: int

    def __post_init__(self) -> None:
        if self.mask < 0 or self.value < 0:
            raise ValueError("mask and value must be non-negative")
        if self.value & ~self.mask:
            raise ValueError("value has bits outside the mask")

    @property
    def k(self) -> int:
        return self.mask.bit_count()


@dataclass(frozen=True)
class SatProblem:
    """A k-SAT instance over n variables with m distinct clauses."""

    n: int
    k: int
    clauses: tuple[ConflictPattern, ...]

    def __post_init__(self) -> None:
        if not 0 <= self.k <= self.n:
            raise ValueError(f"need 0 <= k <= n, got k={self.k}, n={self.n}")
        pairs = [(c.mask, c.value) for c in self.clauses]
        if len(set(pairs)) != len(pairs):
            raise ValueError("duplicate clauses")
        for c, (mask, _) in zip(self.clauses, pairs):
            if mask >> self.n:
                raise ValueError(f"clause {c} uses variables beyond n={self.n}")
            if mask.bit_count() != self.k:
                raise ValueError(f"clause {c} has {c.k} variables, expected k={self.k}")

    @property
    def m(self) -> int:
        return len(self.clauses)


def conflict_vector(
    problem: SatProblem, limit: int | None = DEFAULT_FULL_LIMIT
) -> np.ndarray:
    """Conflict counts for all 2**n assignments, indexed by assignment.

    Returns a vector of length 2**n in the narrowest unsigned dtype that
    holds m.  Assignment s splits into its high n - n//2 bits and its low
    n//2 bits, and clause c falsifies s exactly when it is falsified on
    both halves, so the table, as a (2**(n - n//2), 2**(n//2)) grid, is the
    product of two 0/1 matrices: ``hi[s_hi, c] @ lo[c, s_lo]``.  Clauses go
    in groups and each group's product is added one piece of rows at a
    time, so the temporaries stay within TABLE_PIECE or 2**n / 8 entries
    for any m.  The float32 product is exact: its entries are integers no
    larger than the group size, far below 2**24.  Raises CapacityError when
    n exceeds ``limit`` (pass None to disable the guard).
    """
    check_full_capacity(problem.n, limit)
    n = problem.n
    low = n // 2
    counts = np.zeros(1 << n, dtype=np.min_scalar_type(problem.m))
    grid = counts.reshape(-1, 1 << low)
    budget = max(TABLE_PIECE, counts.size >> 3)
    group = max(1, budget // (len(grid) + grid.shape[1]))
    rows = max(1, budget >> low)
    his = np.arange(len(grid), dtype=np.uint64)[:, None]
    los = np.arange(grid.shape[1], dtype=np.uint64)
    for first in range(0, problem.m, group):
        part = problem.clauses[first : first + group]
        mask = np.array([c.mask for c in part], dtype=np.uint64)
        value = np.array([c.value for c in part], dtype=np.uint64)
        # hi[s_hi, c] and lo[c, s_lo]: clause c is falsified on that half
        hi = ((his & (mask >> low)) == (value >> low)).astype(np.float32)
        low_value = value[:, None] & (grid.shape[1] - 1)
        lo = ((los & mask[:, None]) == low_value).astype(np.float32)
        for r in range(0, len(grid), rows):
            grid[r : r + rows] += (hi[r : r + rows] @ lo).astype(counts.dtype)
    return counts


def n_better_vector(counts: np.ndarray) -> np.ndarray:
    """n_better for all 2**n assignments, from their conflict table.

    The flip of bit i pairs each entry of ``counts.reshape(-1, 2, 2**i)``
    with the entry the axis-reversed view ``[:, ::-1, :]`` puts in its
    place, so no neighbor index is gathered.  For bits 0-2 those views have
    inner runs of 1-4 entries, so those bits permute the columns of one
    ``(-1, 8)`` view instead, by ``idx ^ 2**i``.  The result uses the
    narrowest unsigned dtype that holds n.
    """
    size = len(counts)
    if size == 0 or size & (size - 1):
        raise ValueError("conflict table length must be a power of two")
    n = size.bit_length() - 1
    better = np.zeros(size, dtype=np.min_scalar_type(n))
    low = min(n, 3)
    rows, view = counts.reshape(-1, 1 << low), better.reshape(-1, 1 << low)
    for flip in np.arange(1 << low) ^ (1 << np.arange(low))[:, None]:
        view += rows.take(flip, axis=1) < rows
    for i in range(low, n):
        pairs = counts.reshape(-1, 2, 1 << i)
        view = better.reshape(-1, 2, 1 << i)
        view += pairs[:, ::-1, :] < pairs
    return better


# --- DIMACS CNF interchange -------------------------------------------------
#
# Literal +i means V_i true, -i means V_i false.  A clause is falsified by
# the assignment that sets every literal false, so +i contributes a 0 bit
# and -i a 1 bit to the falsifying pattern.


def clause_from_literals(literals: list[int]) -> ConflictPattern:
    """Build the falsifying pattern for a DIMACS-style literal list."""
    mask = 0
    value = 0
    for lit in literals:
        if lit == 0:
            raise ValueError("literal 0 is reserved as the clause terminator")
        bit = 1 << (abs(lit) - 1)
        if mask & bit:
            raise ValueError(f"variable {abs(lit)} repeats within a clause")
        mask |= bit
        if lit < 0:
            value |= bit
    return ConflictPattern(mask, value)


def clause_to_literals(clause: ConflictPattern) -> list[int]:
    """Inverse of clause_from_literals, variables in increasing order."""
    literals = []
    mask = clause.mask
    while mask:
        bit = mask & -mask
        i = bit.bit_length()
        literals.append(-i if clause.value & bit else i)
        mask ^= bit
    return literals


def to_dimacs(problem: SatProblem) -> str:
    lines = [f"p cnf {problem.n} {problem.m}"]
    for c in problem.clauses:
        lines.append(" ".join(str(lit) for lit in clause_to_literals(c)) + " 0")
    return "\n".join(lines) + "\n"


def from_dimacs(text: str) -> SatProblem:
    """Parse DIMACS CNF into a SatProblem.

    All clauses must have the same width k, with no repeated variables in
    a clause and no duplicate clauses; anything else is rejected because
    the simulator's statistics assume a uniform-k instance.
    """
    n = None
    declared_m = None
    clauses: list[ConflictPattern] = []
    pending: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            fields = line.split()
            if len(fields) != 4 or fields[1] != "cnf":
                raise ValueError(f"bad problem line: {line!r}")
            n, declared_m = int(fields[2]), int(fields[3])
            continue
        if n is None:
            raise ValueError("clause before 'p cnf' header")
        for tok in line.split():
            lit = int(tok)
            if lit == 0:
                clauses.append(clause_from_literals(pending))
                pending = []
            else:
                if abs(lit) > n:
                    raise ValueError(f"literal {lit} out of range for n={n}")
                pending.append(lit)
    if pending:
        raise ValueError("unterminated clause at end of file")
    if n is None:
        raise ValueError("missing 'p cnf' header")
    if declared_m is not None and declared_m != len(clauses):
        raise ValueError(f"header declares {declared_m} clauses, found {len(clauses)}")
    widths = {c.k for c in clauses}
    if len(widths) > 1:
        raise ValueError(f"mixed clause widths {sorted(widths)}; need uniform k")
    k = widths.pop() if widths else 0
    return SatProblem(n=n, k=k, clauses=tuple(clauses))
