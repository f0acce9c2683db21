"""Slow exact constructions that the tests use as references.

``butterfly_fwht`` is the radix-2 butterfly Walsh-Hadamard transform, and
``index_conflict_vector`` and ``index_n_better_vector`` build the conflict
and better-neighbor tables from a full index vector, one gather per bit;
the package computes the same by radix-16 matmul passes and strided views.
``oracle_schedule`` applies the phase rule to the int64 tables for every
step up front, and ``oracle_trial`` evolves a trial from these.

``exact_scaled_shell_transform`` builds the orthogonal shell transform from
exact big-integer Krawtchouk rows, one correctly rounded square root per
entry.  It is O(m**2) Python big-integer work and converts integers of
size 2**m to float, so it overflows once m passes about 1020; the package
builds the same matrix by a float recurrence instead.
"""

import math
from math import comb

import numpy as np

from qlsat.engine import select_best
from qlsat.mixer import MixerSpec, kernel_rows, popcounts
from qlsat.phases import PolicySpec, resolve_policy, signs_for_counts
from qlsat.sat import DEFAULT_FULL_LIMIT, SatProblem, check_full_capacity


def _int_ratio_sqrt(num: int, den: int) -> float:
    """sqrt(num/den) for non-negative exact integers, one rounding each."""
    return math.sqrt(num / den)


def exact_scaled_shell_transform(m: int) -> np.ndarray:
    """Orthogonal form of the shell transform over m constrained variables.

    T[b, c] = S(m, c, b) * sqrt(comb(m, b) / (comb(m, c) * 2**m)); entries
    are bounded by one, so the exact integer ratio under the square root
    is representable at any m.
    """
    t = np.empty((m + 1, m + 1))
    binom = [comb(m, b) for b in range(m + 1)]
    scale = 1 << m
    for c, row in enumerate(kernel_rows(m)):
        den = binom[c] * scale
        for b in range(m + 1):
            k = row[b]
            t[b, c] = math.copysign(_int_ratio_sqrt(k * k * binom[b], den), k)
    return t


def butterfly_fwht(x: np.ndarray, inplace: bool = False) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform, iterative butterflies.

    Satisfies fwht(fwht(x)) == len(x) * x.  O(n * 2**n) time.
    """
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 1 or a.size == 0 or a.size & (a.size - 1):
        raise ValueError("length must be a power of two")
    if not inplace:
        a = a.copy()
    h = 1
    while h < a.size:
        pairs = a.reshape(-1, 2 * h)
        top = pairs[:, :h] + pairs[:, h:]
        bot = pairs[:, :h] - pairs[:, h:]
        pairs[:, :h] = top
        pairs[:, h:] = bot
        h *= 2
    return a


def index_conflict_vector(
    problem: SatProblem, limit: int | None = DEFAULT_FULL_LIMIT
) -> np.ndarray:
    """Conflict counts for all 2**n assignments, indexed by assignment.

    Returns an int64 vector of length 2**n.  Raises CapacityError when n
    exceeds ``limit`` (pass None to disable the guard).
    """
    check_full_capacity(problem.n, limit)
    idx = np.arange(1 << problem.n, dtype=np.int64)
    counts = np.zeros(1 << problem.n, dtype=np.int64)
    for c in problem.clauses:
        counts += (idx & c.mask) == c.value
    return counts


def index_n_better_vector(
    problem: SatProblem, limit: int | None = DEFAULT_FULL_LIMIT
) -> np.ndarray:
    """n_better for all 2**n assignments, indexed by assignment."""
    counts = index_conflict_vector(problem, limit)
    idx = np.arange(1 << problem.n, dtype=np.int64)
    better = np.zeros(1 << problem.n, dtype=np.int64)
    for i in range(problem.n):
        better += counts[idx ^ (1 << i)] < counts
    return better


def oracle_schedule(problem: SatProblem, spec: PolicySpec) -> list[np.ndarray]:
    """Phase vectors for every step, the rule applied to the int64 tables."""
    policy = resolve_policy(spec, problem.n, problem.m, problem.k)
    conflicts = index_conflict_vector(problem)
    better = index_n_better_vector(problem)
    return [
        signs_for_counts(policy, conflicts, better, j)
        for j in range(1, policy.max_steps + 1)
    ]


def oracle_trial(problem: SatProblem, spec: PolicySpec) -> tuple[list[float], int | None]:
    """p_soln_by_step and best_j from the oracle tables and the butterfly."""
    n, size = problem.n, 1 << problem.n
    solutions = np.flatnonzero(index_conflict_vector(problem) == 0)
    tau = MixerSpec(n).tau_vector()[popcounts(n)]
    x = np.full(size, 1.0 / math.sqrt(size))
    probs = [float(np.sum(x[solutions] ** 2))]
    for signs in oracle_schedule(problem, spec):
        y = butterfly_fwht(signs * x)
        y *= tau
        x = butterfly_fwht(y, inplace=True) / size
        probs.append(float(np.sum(x[solutions] ** 2)))
    return probs, select_best(probs)[0]
