"""Shell-space simulation of fully constrained 1-SAT on n + 1 amplitudes.

When every variable carries exactly one 1-SAT clause, an assignment's
conflict count is its Hamming distance from the unique solution, and both
phase policies depend only on that count.  Amplitudes therefore stay
constant on the "shells" of equal conflict count and the 2**n dynamics
collapses to n + 1 numbers.  The shell-space mixing matrix is

    V[b, c] = sum_d u_d * comb(b, (c+b-d)/2) * comb(n-b, (c-b+d)/2)

which factors as V = W @ diag(d_sign) @ W with W[b, c] = S(n, c, b)/sqrt(N)
and d_sign[b] = +1 for b <= n/2, else -1.

The same collapse works for 1-SAT with m < n constrained variables
(shells indexed 0..m); the diagonal then keeps the full problem's weight
threshold floor(n/2), which makes V the identity whenever m <= n/2.

The engine evolves scaled amplitudes phi_c = psi_c * sqrt(w_c), where
psi_c is the amplitude of each assignment in shell c and
w_c = comb(m, c) * 2**(n-m) counts them.  In those coordinates the mixing
matrix is orthogonal with entries bounded by one, so norms survive to n
in the thousands, and phi_c**2 is the probability of shell c.

The orthogonal shell transform is built in float64 by the three-term
recurrence of the orthonormal Krawtchouk functions, vectorised over
shells 0..m/2 and run only up to the middle column; the upper shells
follow by the mirror T[m-b, c] = (-1)**c T[b, c], exact in float64, and
the upper columns by reflection.  Each shell starts from a correctly
rounded sqrt(comb(m, b) / 2**m) held as mantissa and power-of-two
exponent, so no big integer is ever converted to float; up to m = 1026
the recurrence runs on the scaled starts.  Entries agree with the exact
big-integer construction to a few 1e-15 for m up to 1000, and the tests
gate them at 1e-14.

V is a reflection, so V @ V = I: T is symmetric and orthogonal, so
V @ V = T D T T D T = T D D T = T T = I (the shell form of U @ U = I for
the mixer U = H diag(tau) H / N with tau = +-1).  A step is
phi_j = V @ (s_j * phi_{j-1}), s_j the step's sign of each shell, and so
V @ phi_{j-1} = s_{j-1} * phi_{j-2} is known without a product from step 2
on.  Writing s_j = 1 - 2 [s_j = -1], or s_j = -1 + 2 [s_j = +1], and with
V[c] both row and column c of the symmetric V,

    V @ (s_j * phi_{j-1}) =  s_{j-1} * phi_{j-2} - 2 sum_{s_j[c] = -1} phi_{j-1}[c] V[c]
                          = -s_{j-1} * phi_{j-2} + 2 sum_{s_j[c] = +1} phi_{j-1}[c] V[c]

so a step reads only the rows of its smaller sign set, O(m) work per row,
in place of the (m + 1)**2 product that only the first step makes.  The
engine holds 2V, doubled once and exactly, so a step is one product by
rows of 2V and one subtraction.  Ties go to the +1 set, and after step 1
the set read is one run of shells, a slice of V's rows (an empty set is
an empty slice): the simple threshold inverts the shells above a count,
and the neighborhood policy keeps +1 on at most two adjacent shells, its
-1 set being the smaller only at m <= 2.
The identity holds for V as built only to its rounding, so the rounding
of V @ V - I enters each step: measured against the plain product per
step, p moves by at most a few 1e-13 up to n = 2000.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Iterator

import numpy as np

from .engine import RunResult, evolve
from .phases import PolicySpec, check_j_max, resolve_policy, sign_blocks

_RESCALE_BITS = 512

# what a compact step reads: its signs, the rows of its smaller sign set,
# and whether that set is the +1 shells
_StepSigns = tuple[np.ndarray, slice, bool]


@functools.lru_cache(maxsize=1)
def _start_vector(m: int) -> tuple[np.ndarray, np.ndarray]:
    """sqrt(comb(m, b) / 2**m) for b = 0..m as mantissa * 2**exponent.

    Each mantissa lies in [0.5, 1) and is the correctly rounded value of an
    80-bit integer square root.  The smallest starts, 2**(-m/2), leave the
    normal float range from m = 2046, so the exponent is kept apart.  Only
    b <= m/2 is computed; the rest mirrors it, as comb(m, b) = comb(m, m - b).
    The last m's arrays are kept, read-only, so a run computes them once.
    """
    mant = np.empty(m + 1)
    exp = np.empty(m + 1, dtype=np.int64)
    binom = 1
    for b in range(m // 2 + 1):
        # sqrt(binom / 2**m) = isqrt(binom * 2**(2s-m)) / 2**s with ~160 bits under the root
        s = (162 + m - binom.bit_length()) // 2
        shift = 2 * s - m
        q = math.isqrt(binom << shift if shift >= 0 else binom >> -shift)
        top = q.bit_length()
        mant[b] = q / (1 << top)
        exp[b] = top - s
        binom = binom * (m - b) // (b + 1)
    mant[m - m // 2 :] = mant[m // 2 :: -1]
    exp[m - m // 2 :] = exp[m // 2 :: -1]
    mant.flags.writeable = exp.flags.writeable = False
    return mant, exp


def _scaled_shell_transform(m: int) -> np.ndarray:
    """Orthogonal form of the shell transform over m constrained variables.

    T[b, c] = S(m, c, b) * sqrt(comb(m, b) / (comb(m, c) * 2**m)), built
    column by column on shells 0..m/2 from the orthonormal recurrence

        sqrt((c+1)(m-c)) t_{c+1} = (m - 2b) t_c - sqrt(c(m-c+1)) t_{c-1}

    for c up to m/2.  As m - 2b and the starts mirror, so do the shells:
    T[m-b, c] = (-1)**c T[b, c], exactly in float64, as rounding is
    symmetric under negation.  Forward recurrence is unstable where the
    functions decay, so the columns above m/2 come from
    T[b, m-c] = (-1)**b T[b, c].  T is symmetric.  With no start below
    2**-_RESCALE_BITS (m up to 1026) the recurrence runs on the starts, as
    scaling by 2**exp is exact there.  Past that each shell runs on its
    start's mantissa and keeps the exponent apart; entries are bounded by
    one, so a shell grows by at most 2**-exp from its start, and values
    past 2**_RESCALE_BITS are rescaled by an exact power of two.
    """
    half = m // 2
    mant, exp = _start_vector(m)
    x = m - 2.0 * np.arange(half + 1)
    c = np.arange(half, dtype=float)
    up = (1.0 / np.sqrt((c + 1) * (m - c))).tolist()
    back = np.sqrt(c * (m - c + 1)).tolist()
    rows = np.empty((m + 1, m + 1))  # rows[c] is column c of T
    cols = rows[: half + 1, : half + 1]  # columns 0..m/2 on shells 0..m/2
    np.ldexp(mant[: half + 1], exp[: half + 1], out=cols[0])
    prev = np.zeros(half + 1)
    if exp.min() >= -_RESCALE_BITS:
        for cur, out, up_j, back_j in zip(cols, cols[1:], up, back):
            np.multiply(x, cur, out=out)
            out -= back_j * prev
            out *= up_j
            prev = cur
    else:  # the rescale writes into prev and exp
        cur, exp = mant[: half + 1].copy(), exp[: half + 1].copy()
        for j in range(half):
            prev, cur = cur, (x * cur - back[j] * prev) * up[j]
            big = np.abs(cur) > 2.0**_RESCALE_BITS
            prev[big] = np.ldexp(prev[big], -_RESCALE_BITS)
            cur[big] = np.ldexp(cur[big], -_RESCALE_BITS)
            exp[big] += _RESCALE_BITS
            np.ldexp(cur, exp, out=cols[j + 1])
    parity = np.where(np.arange(m + 1) % 2, -1.0, 1.0)
    # the shells above m/2 of columns 0..m/2, then the columns above m/2
    rows[: half + 1, half + 1 :] = rows[: half + 1, m - half - 1 :: -1] * parity[: half + 1, None]
    rows[half + 1 :] = rows[: m - half][::-1] * parity
    return rows.T


def _shell_counts(n: int, m: int | None) -> tuple[int, int]:
    """n and m (default n) as Python ints, with 1 <= m <= n checked."""
    n, m = operator.index(n), operator.index(n if m is None else m)
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    return n, m


def build_v_scaled(n: int, m: int | None = None) -> np.ndarray:
    """Shell mixing matrix in scaled (orthonormal) coordinates.

    Equal to G @ V @ G^-1 with G = diag(sqrt(shell weights)); orthogonal,
    entries in [-1, 1].  For m < n the diagonal threshold still comes from
    the full problem size n.
    """
    n, m = _shell_counts(n, m)
    t = _scaled_shell_transform(m)
    # T symmetric and orthogonal: T D T = I - 2 F F^T, F the columns D negates
    flip = t[:, n // 2 + 1 :]
    # I - 2 F F^T in place, bit for bit: adding 0.0 turns -2 * 0.0 into the
    # +0.0 that 0.0 - 2 * 0.0 gives, and 1.0 is added to the diagonal
    v = flip @ flip.T
    v *= -2.0
    v += 0.0
    v.flat[:: m + 2] += 1.0
    return v


def _sign_sets(blocks: Iterator[np.ndarray], m: int) -> Iterator[_StepSigns]:
    """Per step: its signs on shells 0..m, the slice of its smaller sign set, and which set.

    Blocks arrive m + 1 wide.  The set is the -1 shells, or the +1 shells
    when they are no more (then the flag is True).  After step 1 it is one
    run of shells, the slice from its first shell; step 1's set need not
    be, and its slice is never read.  The sets of every step of a block
    are found in one pass over the block.
    """
    for block in blocks:
        neg = block < 0
        count = np.count_nonzero(neg, axis=1)
        plus = 2 * count >= m + 1
        lo = (neg != plus[:, None]).argmax(axis=1)
        hi = lo + np.where(plus, m + 1 - count, count)
        yield from zip(block, map(slice, lo.tolist(), hi.tolist()), plus.tolist())


def compact_run(
    n: int,
    policy: PolicySpec,
    j_max: int | None = None,
    m: int | None = None,
    record_histograms: bool = False,
) -> RunResult:
    """Shell-space trial on the planted 1-SAT instance with m constraints.

    Matches the full engine on the same instance step for step; solution
    probability is the squared scaled amplitude of the zero-conflict
    shell, and the histogram of a step is every shell's squared scaled
    amplitude.  m defaults to n (the fully constrained case).
    """
    n, m = _shell_counts(n, m)
    check_j_max(j_max)
    resolved = resolve_policy(policy, n=n, m=m, k=1)
    v2 = build_v_scaled(n, m)
    v2 *= 2.0  # 2V, exact, so no step after the first multiplies by two
    # scaled initial state phi_c = sqrt(w_c / 2**n) = sqrt(comb(m,c) / 2**m),
    # the start vector that column 0 of the shell transform was just built from
    phi = np.ldexp(*_start_vector(m))
    before = None  # s_{j-1} * phi_{j-2}, which is V @ phi_{j-1}

    def step(phi: np.ndarray, item: _StepSigns) -> np.ndarray:
        nonlocal before
        signs, rows, plus = item
        if before is None:  # step 1 multiplies by the whole of 2V, then halves
            before = phi * signs
            out = v2 @ before
            out *= 0.5
            return out
        out = np.dot(phi[rows], v2[rows])
        if plus:
            out -= before
        else:
            np.subtract(before, out, out=out)
        np.multiply(phi, signs, out=before)
        return out

    # shell c has c conflicts and c better neighbors, so its sign is entry c
    # of the step's sign table, and both policies read counts 0..m
    return evolve(
        "compact",
        phi,
        _sign_sets(sign_blocks(resolved, m, m, j_max), m),
        step,
        lambda phi: float(phi[0] * phi[0]),
        histogram_of=np.square if record_histograms else None,
    )
