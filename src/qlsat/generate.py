"""Seeded k-SAT instance ensembles and an exhaustive backtracking solver.

Four ensembles are supported:

* ``random``: m distinct clauses drawn uniformly from the full clause
  universe (no solubility guarantee).
* ``random-soluble``: rejection-sampled ``random`` instances, keeping the
  first soluble one.
* ``prespecified-solution``: m distinct clauses drawn uniformly from the
  clauses that do not conflict with a planted assignment.
* ``max-constrained-1sat``: every 1-variable clause consistent with the
  planted assignment (m = n), the fully constrained case with a unique
  solution.

Clauses are addressed by integer index into the (lexicographic) clause
universe and unranked on demand, so no universe is ever materialized.
Unranking walks the combinatorial number system: one bisect per variable
of the clause into cached columns of binomials gives its mask and value
bits together.  Sampling uses numpy's PCG64 generator; per-attempt and
per-instance sub-streams come from ``SeedSequence(seed, spawn_key=(i,))``.
Floyd's algorithm draws all m of an instance's bounds in one call, the
same stream as one scalar draw per bound.  A ``random-soluble`` spec
whose rejection budget expects under 1e-3 soluble draws is refused
before its first attempt.
"""

from __future__ import annotations

import functools
from bisect import bisect_right
from dataclasses import dataclass
from math import comb, log10

import numpy as np

from .sat import ConflictPattern, SatProblem

GENERATOR_NAME = "numpy-pcg64"
ENSEMBLE_KINDS = (
    "random",
    "random-soluble",
    "prespecified-solution",
    "max-constrained-1sat",
)
DEFAULT_REJECTION_BUDGET = 10_000


def max_clauses(n: int, k: int) -> int:
    """Largest m for which a soluble instance exists: comb(n,k)*(2**k - 1)."""
    return comb(n, k) * ((1 << k) - 1)


def clause_universe_size(n: int, k: int) -> int:
    return comb(n, k) << k


@dataclass(frozen=True)
class EnsembleSpec:
    """Parameters identifying one instance distribution."""

    n: int
    k: int
    m: int
    kind: str
    seed: int
    planted: int | None = None  # fixed planted solution (planted kinds); None draws one

    def __post_init__(self) -> None:
        if self.kind not in ENSEMBLE_KINDS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if self.m < 0:
            raise ValueError("m must be non-negative")
        if self.kind == "max-constrained-1sat":
            if self.k != 1 or self.m != self.n:
                raise ValueError("max-constrained-1sat requires k=1 and m=n")
        elif self.kind == "random":
            if self.m > clause_universe_size(self.n, self.k):
                raise ValueError(f"m={self.m} exceeds the clause universe")
        elif self.m > max_clauses(self.n, self.k):
            raise ValueError(f"m={self.m} exceeds max_clauses={max_clauses(self.n, self.k)}")
        if self.planted is not None:
            if self.kind in ("random", "random-soluble"):
                raise ValueError(f"{self.kind} instances have no planted assignment")
            if not 0 <= self.planted < (1 << self.n):
                raise ValueError("planted assignment out of range")


@dataclass(frozen=True)
class GeneratedInstance:
    problem: SatProblem
    spec: EnsembleSpec
    planted: int | None = None
    solution_count: int | None = None


@functools.lru_cache(maxsize=64)
def _columns(n: int, k: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """comb(n, k) and the columns (comb(c, kk) for c < n), for kk = k down to 1."""
    return comb(n, k), tuple(tuple(comb(c, kk) for c in range(n)) for kk in range(k, 0, -1))


def _unrank(n: int, k: int, rank: int, packed: int) -> tuple[int, int]:
    """Mask of the rank-th k-subset of n items, and ``packed`` spread onto it.

    The co-rank comb(n, k) - 1 - rank is the colex rank of the mirrored
    subset {n - 1 - i}, which the combinatorial number system reads off
    greedily: one bisect per item, smallest item first.  Bit j of
    ``packed`` goes to the j-th lowest item.
    """
    total, columns = _columns(n, k)
    if not 0 <= rank < total:
        raise ValueError(f"rank {rank} out of range for comb({n},{k})")
    corank = total - 1 - rank
    mask = value = 0
    top = n
    for column in columns:
        top = bisect_right(column, corank, 0, top) - 1
        corank -= column[top]
        bit = 1 << (n - 1 - top)
        mask |= bit
        if packed & 1:
            value |= bit
        packed >>= 1
    return mask, value


def unrank_clause(n: int, k: int, index: int) -> ConflictPattern:
    """The index-th clause of the universe, ordered (mask rank, value bits)."""
    return ConflictPattern(*_unrank(n, k, index >> k, index & ((1 << k) - 1)))


def unrank_nonconflicting_clause(
    n: int, k: int, index: int, planted: int
) -> ConflictPattern:
    """The index-th clause among those not falsified by ``planted``.

    Per mask there are 2**k - 1 admissible falsifying patterns; the one
    matching the planted assignment on the mask is skipped.  Spreading
    keeps order, so the patterns from the planted one up move to their
    successor submask, ``(value - mask) & mask``.
    """
    per_mask = (1 << k) - 1
    mask, value = _unrank(n, k, index // per_mask, index % per_mask)
    if value >= planted & mask:
        value = (value - mask) & mask
    return ConflictPattern(mask, value)


def _sample_distinct(rng: np.random.Generator, universe: int, m: int) -> list[int]:
    """m distinct integers from [0, universe), sorted (Floyd's algorithm).

    The m bounds j + 1 are drawn in one call, which consumes the stream
    as m scalar draws would.  Past int64 the bounds stay Python ints (a
    plain arange would round them to float), so numpy raises the
    out-of-bounds error that a scalar draw raises.
    """
    if m > universe:
        raise ValueError(f"cannot draw {m} distinct items from {universe}")
    dtype = np.int64 if universe < 1 << 63 else object
    draws = rng.integers(0, np.arange(universe - m + 1, universe + 1, dtype=dtype))
    chosen: set[int] = set()
    for j, t in zip(range(universe - m, universe), draws.tolist()):
        chosen.add(j if t in chosen else t)
    return sorted(chosen)


def _rng_for(seed: int, attempt: int | None = None) -> np.random.Generator:
    spawn_key = () if attempt is None else (attempt,)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=spawn_key))


def _draw_planted(spec: EnsembleSpec, rng: np.random.Generator) -> int:
    if spec.planted is not None:
        return spec.planted
    if spec.n < 64:
        return int(rng.integers(0, 1 << spec.n))
    # rng.integers stops at int64: draw wide assignments as random bytes
    wide = int.from_bytes(rng.bytes((spec.n + 7) // 8), "little")
    return wide & ((1 << spec.n) - 1)


def draw_planted(spec: EnsembleSpec) -> int:
    """The planted assignment an instance of ``spec`` gets: its seed's first draw."""
    return _draw_planted(spec, _rng_for(spec.seed))


def gen_random(spec: EnsembleSpec, attempt: int | None = None) -> GeneratedInstance:
    rng = _rng_for(spec.seed, attempt)
    indices = _sample_distinct(rng, clause_universe_size(spec.n, spec.k), spec.m)
    clauses = tuple(unrank_clause(spec.n, spec.k, i) for i in indices)
    return GeneratedInstance(SatProblem(spec.n, spec.k, clauses), spec)


def gen_prespecified(spec: EnsembleSpec) -> GeneratedInstance:
    rng = _rng_for(spec.seed)
    planted = _draw_planted(spec, rng)
    indices = _sample_distinct(rng, max_clauses(spec.n, spec.k), spec.m)
    clauses = tuple(
        unrank_nonconflicting_clause(spec.n, spec.k, i, planted) for i in indices
    )
    return GeneratedInstance(SatProblem(spec.n, spec.k, clauses), spec, planted=planted)


def gen_max_constrained_1sat(spec: EnsembleSpec) -> GeneratedInstance:
    rng = _rng_for(spec.seed)
    planted = _draw_planted(spec, rng)
    # One clause per variable, falsified by flipping that variable's
    # planted value, so conflicts(s) equals hamming(s, planted).
    clauses = tuple(
        ConflictPattern(1 << i, (planted ^ (1 << i)) & (1 << i))
        for i in range(spec.n)
    )
    return GeneratedInstance(
        SatProblem(spec.n, 1, clauses), spec, planted=planted, solution_count=1
    )


class HopelessSpecError(RuntimeError):
    """A random-soluble spec whose whole budget expects under 1e-3 soluble draws."""


@functools.lru_cache(maxsize=64)
def soluble_bound(n: int, k: int, m: int) -> tuple[int, int]:
    """Numerator and denominator of E[#solutions] of a ``random`` draw.

    An assignment satisfies the draw when none of its m clauses is among
    the comb(n, k) that it falsifies, so the mean solution count is
    2**n * comb(U - comb(n, k), m) / comb(U, m) for a universe of U
    clauses; it bounds the chance that a draw is soluble.
    """
    universe = clause_universe_size(n, k)
    return comb(universe - comb(n, k), m) << n, comb(universe, m)


def gen_random_soluble(
    spec: EnsembleSpec, budget: int = DEFAULT_REJECTION_BUDGET
) -> GeneratedInstance:
    """First soluble ``random`` draw, trying sub-seeded attempts in order.

    A spec whose budget times ``soluble_bound`` is below 1e-3 is refused
    before the first attempt, in exact integers.
    """
    num, den = soluble_bound(spec.n, spec.k, spec.m)
    if budget * num * 1000 < den:
        raise HopelessSpecError(
            f"refusing {spec}: a draw is soluble with probability at most "
            f"10**{log10(num) - log10(den):.1f}, so {budget} attempts expect "
            f"fewer than 1e-3 soluble draws"
        )
    for attempt in range(budget):
        candidate = gen_random(spec, attempt=attempt)
        if backtrack_solve(candidate.problem) is not None:
            return GeneratedInstance(candidate.problem, spec)
    raise RuntimeError(
        f"no soluble instance within {budget} attempts for {spec}"
    )


def generate(spec: EnsembleSpec) -> GeneratedInstance:
    """Dispatch on spec.kind."""
    if spec.kind == "random":
        return gen_random(spec)
    if spec.kind == "random-soluble":
        return gen_random_soluble(spec)
    if spec.kind == "prespecified-solution":
        return gen_prespecified(spec)
    return gen_max_constrained_1sat(spec)


def instance_seed_sequence(base_seed: int, index: int) -> int:
    """Derived seed for the index-th instance of a batch (documented split)."""
    return int(
        np.random.SeedSequence(base_seed, spawn_key=(index,)).generate_state(1)[0]
    )


# --- backtracking solver ------------------------------------------------------


def _search(problem: SatProblem, first: bool) -> int | None:
    """Pruned depth-first search: the first satisfying assignment, or the count.

    Variables are assigned in index order, 0 before 1, and variables past
    the last constrained one stay 0; a branch is pruned as soon as some
    clause has all its variables set to the falsifying pattern.  Clauses
    are filed by their highest variable d as (low mask, low value,
    branch): such a clause forbids the value of variable d that
    ``branch`` names (1 for 0, 2 for 1) once the prefix matches its low
    pattern, so one pass over a depth's clauses settles both branches.
    ``first`` is read only at a leaf, so solving does no extra work at a node.
    """
    table: list[list[tuple[int, int, int]]] = [[] for _ in range(problem.n)]
    for c in problem.clauses:
        if not c.mask:  # a zero-width clause forbids everything
            return None if first else 0
        d = c.mask.bit_length() - 1
        table[d].append((c.mask ^ (1 << d), c.value & ~(1 << d), 1 + (c.value >> d)))
    last = max((d + 1 for d, row in enumerate(table) if row), default=0)
    leaves = 0
    stack = [(0, 0)]
    while stack:
        depth, prefix = stack.pop()
        if depth == last:
            if first:
                return prefix
            leaves += 1
            continue
        blocked = 0
        for low_mask, low_value, branch in table[depth]:
            if prefix & low_mask == low_value:
                blocked |= branch
        if not blocked & 2:
            stack.append((depth + 1, prefix | 1 << depth))
        if not blocked & 1:
            stack.append((depth + 1, prefix))
    return None if first else leaves << (problem.n - last)  # unconstrained tail variables


def backtrack_solve(problem: SatProblem) -> int | None:
    """First satisfying assignment by pruned depth-first search, or None."""
    return _search(problem, first=True)


def backtrack_count(problem: SatProblem) -> int:
    """Exact number of satisfying assignments, by pruned enumeration."""
    return _search(problem, first=False)


def instance_metadata(instance: GeneratedInstance) -> dict:
    """Sidecar record describing how an instance was produced."""
    spec = instance.spec
    return {
        "n": spec.n,
        "k": spec.k,
        "m": instance.problem.m,
        "kind": spec.kind,
        "seed": spec.seed,
        "planted": instance.planted,
        "solution_count": instance.solution_count,
        "generator": GENERATOR_NAME,
    }
