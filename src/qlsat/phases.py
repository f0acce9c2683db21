"""Step-dependent phase choices that steer amplitude toward solutions.

A phase vector holds the factor (+1 or -1) applied to each assignment's
amplitude before mixing.  Two policies are provided:

* ``simple-threshold``: at step j, invert assignments with strictly more
  than c_start - (j - 1) conflicts.  c_start defaults to the exact mean
  conflict count m / 2**k, and since counts are integers the threshold is
  compared exactly as v > floor(c_start) - (j - 1).  After
  floor(c_start) + 1 steps the threshold is negative, every assignment is
  inverted, and relative amplitudes freeze, so that is the step cap.
* ``neighborhood``: phases depend on how many single-flip neighbors
  improve an assignment.  At step 1, invert when |n_start - n_better|
  mod 4 is 2 or 3 (matching the sign of the mixing coefficient at that
  distance); at step j > 1, keep +1 only when n_start - n_better is
  j - 1 or j - 2.  n_start defaults to floor(n/2) and the cap is
  n_start + 1 steps.  Validated against reference dynamics for even n;
  odd n runs the same literal rule.

Phases are functions of the instance and the step index only, never of
the evolving amplitudes.  Signs are formed a block of steps at a time, as
the steps run: the rule is evaluated in int64 on every value a count can
take (0..m conflicts or 0..n better neighbors) for every step of the
block at once, and each step's row is gathered by each assignment's
count.  So no schedule of 2**n-entry vectors is held, a block holds at
most sat.TABLE_PIECE signs (or one step's, where that is wider), and a
narrow unsigned count table never enters the rule's arithmetic.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from math import floor

import numpy as np

from .sat import (
    DEFAULT_FULL_LIMIT,
    TABLE_PIECE,
    SatProblem,
    conflict_vector,
    n_better_vector,
)

KIND_SIMPLE = "simple-threshold"
KIND_NEIGHBORHOOD = "neighborhood"
POLICY_KINDS = (KIND_SIMPLE, KIND_NEIGHBORHOOD)


@dataclass(frozen=True)
class PolicySpec:
    """Policy kind plus optional overrides of its instance-derived defaults."""

    kind: str
    c_start: Fraction | None = None
    n_start: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if self.c_start is not None:
            object.__setattr__(self, "c_start", Fraction(self.c_start))
            if self.c_start < 0:
                raise ValueError("c_start must be non-negative")
        if self.n_start is not None and self.n_start < 0:
            raise ValueError("n_start must be non-negative")
        if self.kind == KIND_SIMPLE and self.n_start is not None:
            raise ValueError("n_start only applies to the neighborhood policy")
        if self.kind == KIND_NEIGHBORHOOD and self.c_start is not None:
            raise ValueError("c_start only applies to the simple-threshold policy")


@dataclass(frozen=True)
class ResolvedPolicy:
    """A PolicySpec bound to instance parameters, with the step cap fixed."""

    kind: str
    max_steps: int
    c_start: Fraction | None = None
    n_start: int | None = None


def resolve_policy(spec: PolicySpec, n: int, m: int, k: int) -> ResolvedPolicy:
    """Fill in instance-derived defaults and the step cap."""
    if spec.kind == KIND_SIMPLE:
        c_start = spec.c_start if spec.c_start is not None else Fraction(m, 1 << k)
        return ResolvedPolicy(spec.kind, floor(c_start) + 1, c_start=c_start)
    n_start = spec.n_start if spec.n_start is not None else n // 2
    return ResolvedPolicy(spec.kind, n_start + 1, n_start=n_start)


def check_j_max(j_max: int | None) -> None:
    """Refuse a negative step limit, before a trial builds anything."""
    if j_max is not None and j_max < 0:
        raise ValueError(f"j_max must be 0 or more, got {j_max}")


def policy_table(policy: ResolvedPolicy, conflicts: np.ndarray) -> np.ndarray:
    """Per-assignment counts the policy's signs depend on.

    The conflict table itself for simple-threshold, its n_better table for
    neighborhood.
    """
    if policy.kind == KIND_SIMPLE:
        return conflicts
    return n_better_vector(conflicts)


def sign_blocks(
    policy: ResolvedPolicy, n: int, m: int, j_max: int | None = None
) -> Iterator[np.ndarray]:
    """Yield the sign tables of steps 1..min(j_max, cap), a block of steps at a time.

    Row i of a block is the table of one step (see ``sign_tables``), the
    rows of a block are consecutive steps, and a block holds at most
    TABLE_PIECE entries (one step when a step is wider).  The rules are
    those of the module docstring, evaluated in int64 for every row of the
    block at once.  For integer v the simple threshold v > c_start - (j - 1)
    is the same as v > floor(c_start) - (j - 1).
    """
    steps = policy.max_steps if j_max is None else min(j_max, policy.max_steps)
    values = np.arange((m if policy.kind == KIND_SIMPLE else n) + 1, dtype=np.int64)
    block = max(1, TABLE_PIECE // values.size)
    if policy.kind == KIND_SIMPLE:
        # a start past values.size + steps inverts nothing at any step, and
        # neither does that cut, which keeps every threshold in int64
        top = min(floor(policy.c_start), values.size + steps)
    else:
        d = policy.n_start - values
    for lo in range(0, steps, block):
        lag = np.arange(lo, min(lo + block, steps), dtype=np.int64)[:, None]  # j - 1
        if policy.kind == KIND_SIMPLE:
            invert = values > top - lag
        else:
            invert = (d != lag) & (d != lag - 1)
            if lo == 0:
                invert[0] = np.abs(d) % 4 >= 2
        yield np.where(invert, -1.0, 1.0)


def sign_tables(
    policy: ResolvedPolicy, n: int, m: int, j_max: int | None = None
) -> Iterator[np.ndarray]:
    """Yield, for steps 1..min(j_max, cap), the sign of every count value.

    Entry v of step j's table is the sign of an assignment whose count
    (conflicts, 0..m, or better neighbors, 0..n) is v; indexing it by
    ``policy_table`` gives that step's phase vector.  The yielded rows are
    views of the blocks of ``sign_blocks``.
    """
    for block in sign_blocks(policy, n, m, j_max):
        yield from block


def phase_schedule(
    problem: SatProblem,
    spec: PolicySpec,
    j_max: int | None = None,
    limit: int | None = DEFAULT_FULL_LIMIT,
) -> list[np.ndarray]:
    """Phase vectors for steps 1..min(j_max, cap) over all 2**n assignments."""
    policy = resolve_policy(spec, problem.n, problem.m, problem.k)
    table = policy_table(policy, conflict_vector(problem, limit))
    return [signs[table] for signs in sign_tables(policy, problem.n, problem.m, j_max)]
