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
Sampling uses numpy's PCG64 generator; per-attempt and per-instance
sub-streams come from ``SeedSequence(seed, spawn_key=(i,))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

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


def unrank_subset(n: int, k: int, rank: int) -> int:
    """Bitmask of the rank-th k-subset of n items, lexicographic by item index."""
    if not 0 <= rank < comb(n, k):
        raise ValueError(f"rank {rank} out of range for comb({n},{k})")
    mask = 0
    for i in range(n):
        if k == 0:
            break
        with_i = comb(n - i - 1, k - 1)  # subsets that include item i
        if rank < with_i:
            mask |= 1 << i
            k -= 1
        else:
            rank -= with_i
    return mask


def _spread_bits(packed: int, mask: int) -> int:
    """Place the low bits of ``packed`` onto the set bits of ``mask``."""
    out = 0
    while mask:
        bit = mask & -mask
        if packed & 1:
            out |= bit
        packed >>= 1
        mask ^= bit
    return out


def _extract_bits(value: int, mask: int) -> int:
    """Inverse of _spread_bits: pack the masked bits of ``value``."""
    out = 0
    pos = 0
    while mask:
        bit = mask & -mask
        if value & bit:
            out |= 1 << pos
        pos += 1
        mask ^= bit
    return out


def unrank_clause(n: int, k: int, index: int) -> ConflictPattern:
    """The index-th clause of the universe, ordered (mask rank, value bits)."""
    mask = unrank_subset(n, k, index >> k)
    return ConflictPattern(mask, _spread_bits(index & ((1 << k) - 1), mask))


def unrank_nonconflicting_clause(
    n: int, k: int, index: int, planted: int
) -> ConflictPattern:
    """The index-th clause among those not falsified by ``planted``.

    Per mask there are 2**k - 1 admissible falsifying patterns; the one
    matching the planted assignment on the mask is skipped.
    """
    per_mask = (1 << k) - 1
    mask = unrank_subset(n, k, index // per_mask)
    banned = _extract_bits(planted & mask, mask)
    local = index % per_mask
    if local >= banned:
        local += 1
    return ConflictPattern(mask, _spread_bits(local, mask))


def _sample_distinct(rng: np.random.Generator, universe: int, m: int) -> list[int]:
    """m distinct integers from [0, universe), sorted (Floyd's algorithm)."""
    if m > universe:
        raise ValueError(f"cannot draw {m} distinct items from {universe}")
    chosen: set[int] = set()
    for j in range(universe - m, universe):
        t = int(rng.integers(0, j + 1))
        chosen.add(j if t in chosen else t)
    return sorted(chosen)


def _rng_for(seed: int, attempt: int | None = None) -> np.random.Generator:
    if attempt is None:
        return np.random.default_rng(np.random.SeedSequence(seed))
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(attempt,)))


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


def gen_random_soluble(
    spec: EnsembleSpec, budget: int = DEFAULT_REJECTION_BUDGET
) -> GeneratedInstance:
    """First soluble ``random`` draw, trying sub-seeded attempts in order."""
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


def _clauses_by_depth(problem: SatProblem) -> list[list[ConflictPattern]]:
    """Group clauses by their highest variable, for incremental checking."""
    groups: list[list[ConflictPattern]] = [[] for _ in range(problem.n + 1)]
    for c in problem.clauses:
        groups[c.mask.bit_length()].append(c)
    return groups


def backtrack_solve(problem: SatProblem) -> int | None:
    """First satisfying assignment by depth-first search, or None.

    Variables are assigned in index order; a branch is pruned as soon as
    some clause has all its variables set to the falsifying pattern.
    """
    groups = _clauses_by_depth(problem)
    if groups[0]:  # a zero-width clause forbids everything
        return None
    last = max((i for i in range(problem.n + 1) if groups[i]), default=0)

    def descend(depth: int, prefix: int) -> int | None:
        if depth == last:
            return prefix
        for bit in (0, 1 << depth):
            s = prefix | bit
            if any(c.conflicts_with(s) for c in groups[depth + 1]):
                continue
            found = descend(depth + 1, s)
            if found is not None:
                return found
        return None

    return descend(0, 0)


def backtrack_count(problem: SatProblem) -> int:
    """Exact number of satisfying assignments, by pruned enumeration."""
    groups = _clauses_by_depth(problem)
    if groups[0]:
        return 0
    last = max((i for i in range(problem.n + 1) if groups[i]), default=0)

    def descend(depth: int, prefix: int) -> int:
        if depth == last:
            return 1 << (problem.n - last)  # unconstrained tail variables
        total = 0
        for bit in (0, 1 << depth):
            s = prefix | bit
            if not any(c.conflicts_with(s) for c in groups[depth + 1]):
                total += descend(depth + 1, s)
        return total

    return descend(0, 0)


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
