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

``resolve_policy`` binds a spec to an instance and fixes the steps a
trial runs: the policy's cap, cut to a user's j_max when one is given.
A trial of more than 2**63 steps is refused there.

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

from .sat import TABLE_PIECE, SatProblem, conflict_vector, n_better_vector

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
    """A PolicySpec bound to instance parameters, with the steps to run fixed."""

    kind: str
    max_steps: int
    c_start: Fraction | None = None
    n_start: int | None = None


def resolve_policy(
    spec: PolicySpec, n: int, m: int, k: int, j_max: int | None = None
) -> ResolvedPolicy:
    """Fill in instance-derived defaults and the steps to run, min(j_max, cap)."""
    if j_max is not None and j_max < 0:
        raise ValueError(f"j_max must be 0 or more, got {j_max}")
    if spec.kind == KIND_SIMPLE:
        c_start = spec.c_start if spec.c_start is not None else Fraction(m, 1 << k)
        n_start, cap = None, floor(c_start) + 1
    else:
        n_start = spec.n_start if spec.n_start is not None else n // 2
        c_start, cap = None, n_start + 1
    steps = cap if j_max is None else min(j_max, cap)
    if steps > 1 << 63:  # the sign rule counts steps j - 1 in int64
        raise ValueError(f"{steps} steps exceed the 2**63 the sign rule counts (j_max={j_max})")
    return ResolvedPolicy(spec.kind, steps, c_start=c_start, n_start=n_start)


def policy_table(policy: ResolvedPolicy, conflicts: np.ndarray) -> np.ndarray:
    """Per-assignment counts the policy's signs depend on.

    The conflict table itself for simple-threshold, its n_better table for
    neighborhood.
    """
    if policy.kind == KIND_SIMPLE:
        return conflicts
    return n_better_vector(conflicts)


def sign_blocks(policy: ResolvedPolicy, n: int, m: int) -> Iterator[np.ndarray]:
    """Yield the sign tables of steps 1..max_steps, a block of steps at a time.

    Entry v of step j's table is the sign of an assignment whose count
    (conflicts, 0..m, or better neighbors, 0..n) is v; indexing it by
    ``policy_table`` gives that step's phase vector.  Row i of a block is
    the table of one step, the rows of a block are consecutive steps, and
    a block holds at most TABLE_PIECE entries (one step when a step is
    wider).  The rules are those of the module docstring, evaluated in
    int64 for every row of the block at once.  For integer v the simple
    threshold v > c_start - (j - 1) is the same as v > floor(c_start) - (j - 1).
    """
    steps = policy.max_steps
    values = np.arange((m if policy.kind == KIND_SIMPLE else n) + 1, dtype=np.int64)
    block = max(1, TABLE_PIECE // values.size)
    # a start at or past cut inverts nothing (simple), or everything after step 1
    # (neighborhood), as the cut does, which keeps the rule in int64; step 1
    # reads a neighborhood start only mod 4, which the cut keeps
    cut = values.size + steps
    if policy.kind == KIND_SIMPLE:
        top = min(floor(policy.c_start), cut)
    else:
        n_start = policy.n_start
        d = (n_start if n_start < cut else cut + (n_start - cut) % 4) - values
    for lo in range(0, steps, block):
        lag = np.arange(lo, min(lo + block, steps), dtype=np.int64)[:, None]  # j - 1
        if policy.kind == KIND_SIMPLE:
            invert = values > top - lag
        else:
            invert = (d != lag) & (d != lag - 1)
            if lo == 0:
                invert[0] = np.abs(d) % 4 >= 2
        yield np.where(invert, -1.0, 1.0)


def phase_schedule(problem: SatProblem, spec: PolicySpec) -> list[np.ndarray]:
    """Phase vectors for every step of the policy's cap over all 2**n assignments."""
    policy = resolve_policy(spec, problem.n, problem.m, problem.k)
    table = policy_table(policy, conflict_vector(problem))
    return [signs[table] for block in sign_blocks(policy, problem.n, problem.m) for signs in block]
