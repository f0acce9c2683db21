"""Slow exact constructions that the tests use as references.

``butterfly_fwht`` is the radix-2 butterfly Walsh-Hadamard transform, and
``blocked_fwht`` the radix-16 matmul passes over blocks of 2**15 entries,
pass by pass and block by block, whose bits the package's planned
transform keeps;
``index_conflict_vector`` and ``index_n_better_vector`` build the conflict
and better-neighbor tables from a full index vector, one gather per bit;
the package computes the same by radix-16 matmul passes and strided views.
``step_sign_tables`` evaluates the phase rule one step at a time, with the
simple threshold compared in exact rational arithmetic as v * q > p and
the neighborhood rule in Python integers, so any start is exact;
``oracle_schedule`` gathers its tables by the int64 tables for every step
up front, ``tau_vector`` gives the mixing weight's sign by Hamming weight,
``whole_table_u`` mixes with one 2**n table of weights between two
``blocked_fwht``, and
``oracle_trial`` evolves a trial from these.

``conflicts_with`` tests one assignment against one clause and
``count_conflicts`` counts the clauses one assignment falsifies, by direct
evaluation; ``n_better`` counts its improving single flips the same way.
``s_coefficient`` sums the transform kernel term by term, and
``dense_w_hat`` writes the transform out as a dense matrix.
``build_w_max``, ``build_d_max`` and ``build_v_max`` build the raw shell
transform and shell mixing matrix of maximal 1-SAT from exact integers.
``CompactState`` holds the raw per-assignment amplitude of each shell and
``shell_weights`` the number of assignments in it; ``initial_compact`` and
``compact_histogram`` give the uniform shell state and a state's
probability by shell.

``start_vector`` is the shell start sqrt(comb(m, b) / 2**m) from one
big-integer square root per shell, b = 0..m, with no mirror.
``exact_scaled_shell_transform`` builds the orthogonal shell transform from
exact big-integer Krawtchouk rows, one correctly rounded square root per
entry.  It is O(m**2) Python big-integer work and converts integers of
size 2**m to float, so it overflows once m passes about 1020; the package
builds the same matrix by a float recurrence instead.
``all_shells_scaled_shell_transform`` is that float recurrence run on
every shell, each column scaled back by its own ``ldexp``; the package
runs it on shells 0..m/2 only and mirrors the rest, with the same bits.
``plain_compact_run`` is ``compact_run`` with one product by the whole
shell mixing matrix per step, where the package reads only the rows of
each step's smaller sign set from step 2 on.

``unrank_subset_by_items`` unranks a lexicographic k-subset one item at a
time and ``spread_bits`` places packed value bits onto a mask one bit at
a time; ``floyd_sample`` draws Floyd's sample one scalar bound at a
time; the package unranks by bisects and draws all bounds in one call.
``first_solution`` is the first satisfying assignment in the backtracking
search order, found by scanning every assignment.

``relabel`` moves an instance by a symmetry of the hypercube, a
permutation of the variables and a flip of their polarities.  The mixer
depends only on Hamming distance, so every solution probability and
histogram survives the move, to rounding.
"""

import itertools
import math
from dataclasses import dataclass
from math import comb

import numpy as np

import qlsat.compact
from qlsat.engine import RunResult, evolve, select_best
from qlsat.mixer import (
    DEFAULT_DENSE_LIMIT,
    MixerSpec,
    kernel_rows,
    popcounts,
    u_numerators,
)
from qlsat.phases import KIND_SIMPLE, PolicySpec, ResolvedPolicy, resolve_policy, sign_blocks
from qlsat.sat import (
    DEFAULT_FULL_LIMIT,
    CapacityError,
    ConflictPattern,
    SatProblem,
    check_full_capacity,
)


def conflicts_with(clause: ConflictPattern, s: int) -> bool:
    """Whether assignment s falsifies the clause: (s & mask) == value."""
    return (s & clause.mask) == clause.value


def count_conflicts(problem: SatProblem, s: int) -> int:
    """Number of clauses the assignment falsifies."""
    return sum(1 for c in problem.clauses if conflicts_with(c, s))


def n_better(problem: SatProblem, s: int) -> int:
    """Number of single-bit-flip neighbors with strictly fewer conflicts."""
    base = count_conflicts(problem, s)
    return sum(
        1 for i in range(problem.n) if count_conflicts(problem, s ^ (1 << i)) < base
    )


def s_coefficient(n: int, h: int, d: int) -> int:
    """Exact transform kernel S(n, h, d)."""
    if not (0 <= h <= n and 0 <= d <= n):
        raise ValueError(f"need 0 <= h, d <= n, got h={h}, d={d}, n={n}")
    lo = max(0, h - (n - d))
    hi = min(d, h)
    return sum(
        (-1) ** z * comb(d, z) * comb(n - d, h - z) for z in range(lo, hi + 1)
    )


def dense_w_hat(n: int, limit: int | None = DEFAULT_DENSE_LIMIT) -> np.ndarray:
    """Dense unnormalized transform matrix, (-1)**|r & s|.  Oracle use only."""
    if limit is not None and n > limit:
        raise CapacityError(f"dense matrix needs 4**{n} entries; limit is n <= {limit}")
    idx = np.arange(1 << n)
    overlap = popcounts(n)[idx[:, None] & idx[None, :]]
    return np.where(overlap & 1, -1.0, 1.0)


@dataclass
class CompactState:
    """Per-assignment amplitudes by conflict count, for shells 0..m."""

    n: int
    m: int
    amps: np.ndarray

    def shell_norm(self) -> float:
        """Total probability: sum over shells of w_c * amps[c]**2."""
        return float(np.sum(shell_weights(self.n, self.m) * self.amps**2))


def shell_weights(n: int, m: int) -> np.ndarray:
    """Number of assignments in each shell: comb(m, c) * 2**(n-m)."""
    return np.array([float(comb(m, c) << (n - m)) for c in range(m + 1)])


def initial_compact(n: int, m: int | None = None) -> CompactState:
    """Uniform superposition collapsed to shells."""
    m = n if m is None else m
    return CompactState(n, m, np.full(m + 1, math.sqrt(2.0**-n)))


def build_d_max(n: int) -> np.ndarray:
    """Transform-side signs: +1 for weights up to n/2, -1 above."""
    return np.where(np.arange(n + 1) <= n // 2, 1.0, -1.0)


def build_w_max(n: int) -> np.ndarray:
    """Shell transform matrix, W[b, c] = S(n, c, b) / sqrt(2**n).

    Entries are exact integers divided by the exact power of two, so each
    value is correctly rounded (odd n costs one extra rounding for the
    residual sqrt(2)).
    """
    w = np.empty((n + 1, n + 1))
    half = 1 << (n // 2)
    odd = math.sqrt(2.0) if n % 2 else 1.0
    for c, row in enumerate(kernel_rows(n)):
        for b in range(n + 1):
            w[b, c] = (row[b] / half) / odd
    return w


def build_v_max(n: int, u: np.ndarray | None = None) -> np.ndarray:
    """Shell mixing matrix from the distance-coefficient sum.

    With ``u`` omitted the default-threshold coefficients are used and the
    whole sum is exact integer arithmetic with a single final division.
    Passing an explicit coefficient vector falls back to float terms.
    """
    pascal = [[comb(r, x) for x in range(r + 1)] for r in range(n + 1)]
    numerators = None
    if u is None:
        numerators = u_numerators(MixerSpec(n))
    v = np.empty((n + 1, n + 1))
    for b in range(n + 1):
        row_b, row_nb = pascal[b], pascal[n - b]
        for c in range(n + 1):
            lo = abs(b - c)
            hi = min(b + c, 2 * n - b - c)
            acc = 0 if numerators is not None else 0.0
            for d in range(lo, hi + 1, 2):
                ways = row_b[(c + b - d) // 2] * row_nb[(c - b + d) // 2]
                acc += (numerators[d] if numerators is not None else u[d]) * ways
            v[b, c] = acc / (1 << n) if numerators is not None else acc
    return v


def compact_histogram(state: CompactState) -> np.ndarray:
    """Probability by conflict count: entry c is w_c * amps[c]**2."""
    return shell_weights(state.n, state.m) * state.amps**2


def _int_ratio_sqrt(num: int, den: int) -> float:
    """sqrt(num/den) for non-negative exact integers, one rounding each."""
    return math.sqrt(num / den)


def start_vector(m: int) -> tuple[np.ndarray, np.ndarray]:
    """sqrt(comb(m, b) / 2**m) for b = 0..m as mantissa * 2**exponent, per b."""
    mant = np.empty(m + 1)
    exp = np.empty(m + 1, dtype=np.int64)
    for b in range(m + 1):
        binom = comb(m, b)
        s = (162 + m - binom.bit_length()) // 2
        shift = 2 * s - m
        q = math.isqrt(binom << shift if shift >= 0 else binom >> -shift)
        top = q.bit_length()
        mant[b] = q / (1 << top)
        exp[b] = top - s
    return mant, exp


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


def all_shells_scaled_shell_transform(m: int) -> np.ndarray:
    """The package's shell transform with the recurrence run on every shell.

    Each shell runs on its start's mantissa and every column is scaled
    back by its own ``ldexp``.  Where a start lies below 2**-512, values
    past 2**512 are rescaled by an exact power of two.  The columns above
    m/2 come from T[b, m-c] = (-1)**b T[b, c].
    """
    rescale = qlsat.compact._RESCALE_BITS
    half = m // 2
    cur, exp = (a.copy() for a in qlsat.compact._start_vector(m))
    may_grow_large = exp.min() < -rescale
    x = m - 2.0 * np.arange(m + 1)
    c = np.arange(half, dtype=float)
    up = 1.0 / np.sqrt((c + 1) * (m - c))
    back = np.sqrt(c * (m - c + 1))
    rows = np.empty((m + 1, m + 1))  # rows[c] is column c of T
    np.ldexp(cur, exp, out=rows[0])
    prev = np.zeros(m + 1)
    for j in range(half):
        prev, cur = cur, (x * cur - back[j] * prev) * up[j]
        if may_grow_large:
            big = np.abs(cur) > 2.0**rescale
            prev[big] = np.ldexp(prev[big], -rescale)
            cur[big] = np.ldexp(cur[big], -rescale)
            exp[big] += rescale
        np.ldexp(cur, exp, out=rows[j + 1])
    parity = np.where(np.arange(m + 1) % 2, -1.0, 1.0)
    rows[half + 1 :] = rows[: m - half][::-1] * parity
    return rows.T


def plain_compact_run(
    n: int,
    policy: PolicySpec,
    j_max: int | None = None,
    m: int | None = None,
    record_histograms: bool = False,
) -> RunResult:
    """compact_run with phi = V @ (signs * phi) at every step, V the package's."""
    m = n if m is None else m
    resolved = resolve_policy(policy, n=n, m=m, k=1, j_max=j_max)
    v = qlsat.compact.build_v_scaled(n, m)
    return evolve(
        "compact",
        np.ldexp(*qlsat.compact._start_vector(m)),
        itertools.chain.from_iterable(sign_blocks(resolved, n, m)),
        lambda phi, signs: v @ (phi * signs[: m + 1]),
        lambda phi: float(phi[0] * phi[0]),
        histogram_of=np.square if record_histograms else None,
    )


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


# Index bits per pass and float64 entries per matmul of ``blocked_fwht``.
RADIX_BITS = 4
CHUNK = 1 << 15


def sylvester(bits: int) -> np.ndarray:
    """The 2**bits-point Hadamard matrix (-1)**|r & c|."""
    h = np.ones((1, 1))
    for _ in range(bits):
        h = np.block([[h, h], [h, -h]])
    return h


def _transform_pass(a: np.ndarray, done: int, bits: int) -> None:
    """Apply the 2**bits-point Hadamard along index bits done..done+bits-1.

    Works in place on the ``(-1, 2**bits, 2**done)`` view, one block of
    about CHUNK entries per matmul: whole leading slices while they fit,
    else column blocks of one slice.
    """
    h = sylvester(bits)
    r, s = 1 << bits, 1 << done
    if s == 1:  # one 2-D matmul per block; a stack of (r, 1) columns is slow
        flat = a.reshape(-1, r)
        for i in range(0, len(flat), CHUNK // r):
            blk = flat[i : i + CHUNK // r]
            blk[...] = blk @ h
        return
    view = a.reshape(-1, r, s)
    rows, cols = max(1, CHUNK // (r * s)), min(s, CHUNK // r)
    for i in range(0, len(view), rows):
        for c in range(0, s, cols):
            blk = view[i : i + rows, :, c : c + cols]
            blk[...] = h @ blk


def blocked_fwht(x: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of a copy of x, radix-16 passes block by block.

    Pass p multiplies the ``(-1, 16, 2**(4p))`` view by the 16x16
    Sylvester Hadamard; the last pass takes the n mod 4 bits left over.
    """
    a = np.array(x, dtype=np.float64)
    if a.ndim != 1 or a.size == 0 or a.size & (a.size - 1):
        raise ValueError("length must be a power of two")
    n = a.size.bit_length() - 1
    for done in range(0, n, RADIX_BITS):
        _transform_pass(a, done, min(RADIX_BITS, n - done))
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


def step_sign_tables(policy: ResolvedPolicy, n: int, m: int) -> list[np.ndarray]:
    """Sign of every count value for steps 1..max_steps, step by step."""
    values = np.arange((m if policy.kind == KIND_SIMPLE else n) + 1, dtype=np.int64)
    tables = []
    for j in range(1, policy.max_steps + 1):
        if policy.kind == KIND_SIMPLE:
            t = policy.c_start - (j - 1)
            invert = values * t.denominator > t.numerator
        elif j == 1:
            invert = np.abs(policy.n_start - values.astype(object)) % 4 >= 2
        else:
            d = policy.n_start - values.astype(object)
            invert = (d != j - 1) & (d != j - 2)
        tables.append(np.where(invert, -1.0, 1.0))
    return tables


def oracle_schedule(problem: SatProblem, spec: PolicySpec) -> list[np.ndarray]:
    """Phase vectors for every step: the step sign tables gathered by the int64 tables."""
    policy = resolve_policy(spec, problem.n, problem.m, problem.k)
    if policy.kind == KIND_SIMPLE:
        table = index_conflict_vector(problem)
    else:
        table = index_n_better_vector(problem)
    return [signs[table] for signs in step_sign_tables(policy, problem.n, problem.m)]


def tau_vector(spec: MixerSpec) -> np.ndarray:
    """Signs tau_h for h = 0..n: +1 up to alpha, -1 beyond."""
    return np.where(np.arange(spec.n + 1) <= spec.alpha, 1.0, -1.0)


def whole_table_u(spec: MixerSpec, x: np.ndarray) -> np.ndarray:
    """U @ x with every index's weight tau / 2**n in one 2**n table."""
    weights = tau_vector(spec)[popcounts(spec.n)] / (1 << spec.n)
    return blocked_fwht(blocked_fwht(x) * weights)


def oracle_trial(problem: SatProblem, spec: PolicySpec) -> tuple[list[float], int | None]:
    """p_soln_by_step and best_j from the oracle tables and the butterfly."""
    n, size = problem.n, 1 << problem.n
    solutions = np.flatnonzero(index_conflict_vector(problem) == 0)
    tau = tau_vector(MixerSpec(n))[popcounts(n)]
    x = np.full(size, 1.0 / math.sqrt(size))
    probs = [float(np.sum(x[solutions] ** 2))]
    for signs in oracle_schedule(problem, spec):
        y = butterfly_fwht(signs * x)
        y *= tau
        x = butterfly_fwht(y, inplace=True) / size
        probs.append(float(np.sum(x[solutions] ** 2)))
    return probs, select_best(probs)[0]


def unrank_subset_by_items(n: int, k: int, rank: int) -> int:
    """Bitmask of the rank-th k-subset of n items, deciding item 0, 1, ... in turn."""
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


def spread_bits(packed: int, mask: int) -> int:
    """Place the low bits of ``packed`` onto the set bits of ``mask``, lowest first."""
    out = 0
    while mask:
        bit = mask & -mask
        if packed & 1:
            out |= bit
        packed >>= 1
        mask ^= bit
    return out


def floyd_sample(rng: np.random.Generator, universe: int, m: int) -> list[int]:
    """m distinct integers from [0, universe), sorted, one scalar draw per bound."""
    chosen: set[int] = set()
    for j in range(universe - m, universe):
        t = int(rng.integers(0, j + 1))
        chosen.add(j if t in chosen else t)
    return sorted(chosen)


def first_solution(problem: SatProblem) -> int | None:
    """First satisfying assignment with variables in index order, 0 before 1.

    Sorting by the bits V_1, V_2, ... in turn puts the zero completion of
    a satisfying prefix first, which is the unconstrained tail left 0.
    """
    solutions = np.flatnonzero(index_conflict_vector(problem) == 0).tolist()
    return min(solutions, key=lambda s: [(s >> i) & 1 for i in range(problem.n)], default=None)


def relabel(problem: SatProblem, perm: list[int], flip: int) -> SatProblem:
    """The instance with variable i moved to perm[i], then the bits of flip negated.

    A clause forbidding (s & mask) == value becomes one forbidding
    (s & mask') == value' with mask' = perm(mask) and
    value' = perm(value) ^ (flip & mask').
    """

    def moved(x: int) -> int:
        return sum(((x >> i) & 1) << p for i, p in enumerate(perm))

    clauses = []
    for clause in problem.clauses:
        mask = moved(clause.mask)
        clauses.append(ConflictPattern(mask, moved(clause.value) ^ (flip & mask)))
    return SatProblem(n=problem.n, k=problem.k, clauses=tuple(clauses))
