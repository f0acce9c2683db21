"""Hamming-distance mixing operator and its fast transform implementation.

The mixing matrix U over 2**n assignments has entries that depend only on
the Hamming distance between assignments: U[r,s] = u_d with d = |r ^ s|.
It diagonalizes in the Walsh-Hadamard basis, U = (1/N) * Wh @ diag(tau) @ Wh
where Wh[r,s] = (-1)^{|r & s|} is the unnormalized transform, N = 2**n, and
tau depends only on the Hamming weight h of the index: +1 for h <= alpha,
-1 above.  The default threshold alpha = n // 2; alpha = 0 reduces U to the
diffusion operator of unstructured amplitude search.

Weight-h transform coefficients enter through the integer kernel

    S(n, h, d) = sum_z (-1)**z * comb(d, z) * comb(n - d, h - z)

with u_d = (1/N) * sum_h tau_h * S(n, h, d).  All integer work is exact;
the single division by N happens last.

The fast path applies U as transform, per-index multiply by tau_h / N
(read from a few rows of 2**13 weights, not a 2**n table), transform.  Wh
is the Kronecker product of n 2x2 Hadamards, so it factors into passes
that each apply the 16x16 Sylvester Hadamard along one group of four index
bits (Fino & Algazi, IEEE Trans. Computers C-25, 1976): ceil(n/4) matmul
passes, done in place over cache-sized blocks, planned once per size: up
to n = 15 the vector is one block, and a pass one reshape and one matmul.
The passes within a BLOCK run block by block, after the step's signs or
weights multiply it, so a step sweeps the state four times at n = 20.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .sat import TABLE_PIECE, CapacityError

# Dense 2**n x 2**n matrices are for oracle checks only.
DEFAULT_DENSE_LIMIT = 12

# Index bits per transform pass (16-point passes), the float64 entries one
# matmul of a pass reads and writes, sized to stay in L2 (one matmul over
# the whole vector per pass ran an n = 20 trial about 1.4x slower on a Xeon
# with 2 MB of L2), and the entries (1 MiB) of one block of the low passes.
RADIX_BITS = 4
CHUNK = 1 << 15
BLOCK = 1 << 17


@dataclass(frozen=True)
class MixerSpec:
    """Mixing operator parameters: problem size n and weight threshold alpha."""

    n: int
    alpha: int | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.alpha is None:
            object.__setattr__(self, "alpha", self.n // 2)
        if not 0 <= self.alpha <= self.n:
            raise ValueError(f"need 0 <= alpha <= n, got alpha={self.alpha}")

    @cached_property
    def tau_rows(self) -> np.ndarray:
        """tau / 2**n for one piece of 2**min(n, 13) indices, by high-bit weight.

        Row w serves a piece ``[lo, lo + piece)`` whose high bits ``lo >> 13``
        have Hamming weight w, since an index's weight is w plus that of its
        low bits: n - 12 rows of 32 KiB at most stand for all 2**n weights,
        read-only and shared by every spec of the last (n, alpha) built.
        +/-2**-n is exact in float32 and widened in the multiply, so the
        products are those of a whole float64 table.
        """
        key = (self.n, self.alpha)
        rows = _TAU_ROWS.get(key)
        if rows is None:
            _TAU_ROWS.clear()  # before the build: two (n, alpha)'s rows never coexist here
            rows = _TAU_ROWS[key] = _tau_rows(*key)
        return rows


_TAU_ROWS: dict[tuple[int, int], np.ndarray] = {}  # the rows of the last (n, alpha) built


def _tau_rows(n: int, alpha: int) -> np.ndarray:
    top = TABLE_PIECE.bit_length() - 1
    bits = min(n, top)  # one cached popcount table serves every n
    high = np.arange(n - bits + 1, dtype=np.uint8)[:, None]
    scale = np.float32(1.0 / (1 << n))
    rows = np.where(popcounts(top)[: 1 << bits] + high <= alpha, scale, -scale)
    rows.setflags(write=False)
    return rows


def kernel_rows(n: int):
    """Yield exact integer rows S(n, h, 0..n) for h = 0, 1, ..., n.

    Uses the three-term recurrence
        (h+1) S(n, h+1, d) = (n - 2d) S(n, h, d) - (n - h + 1) S(n, h-1, d)
    so the whole table streams in O(n) big-integer space.
    """
    prev = [1] * (n + 1)
    yield prev
    if n == 0:
        return
    cur = [n - 2 * d for d in range(n + 1)]
    yield cur
    for h in range(1, n):
        nxt = [
            ((n - 2 * d) * cur[d] - (n - h + 1) * prev[d]) // (h + 1)
            for d in range(n + 1)
        ]
        prev, cur = cur, nxt
        yield cur


def u_numerators(spec: MixerSpec) -> list[int]:
    """Exact integers 2**n * u_d for d = 0..n."""
    n = spec.n
    totals = [0] * (n + 1)
    for h, row in enumerate(kernel_rows(n)):
        sign = 1 if h <= spec.alpha else -1
        for d in range(n + 1):
            totals[d] += sign * row[d]
    return totals


def u_coefficients(spec: MixerSpec) -> np.ndarray:
    """Mixing coefficients u_d for d = 0..n as float64."""
    scale = 1 << spec.n
    return np.array([t / scale for t in u_numerators(spec)])


@lru_cache(maxsize=4)
def popcounts(n: int) -> np.ndarray:
    """Hamming weights of 0..2**n-1 (read-only uint8 table)."""
    pc = np.zeros(1 << n, dtype=np.uint8)
    for i in range(n):
        half = 1 << i
        pc[half : 2 * half] = pc[:half] + 1
    pc.setflags(write=False)
    return pc


def sylvester(bits: int) -> np.ndarray:
    """The 2**bits-point Hadamard matrix (-1)**|r & c| (read-only)."""
    h = np.ones((1, 1))
    for _ in range(bits):
        h = np.block([[h, h], [h, -h]])
    h.setflags(write=False)
    return h


@lru_cache(maxsize=None)
def _plan(n: int) -> tuple:
    """The n-bit transform's parts (lo, hi, first, passes): one per BLOCK with
    the passes whose 16 slices lie in one, then the rest over all entries.
    Per pass: view shape, Sylvester matrix, whether it multiplies from the
    right (a stack of (16, 1) columns is slow), CHUNK extents or None."""
    low, high = [], []
    for done in range(0, n, RADIX_BITS):
        bits = min(RADIX_BITS, n - done)
        r, s = 1 << bits, 1 << done
        shape = (-1, r) if s == 1 else (-1, r, s)
        extents = (CHUNK // r, r) if s == 1 else (max(1, CHUNK // (r * s)), min(s, CHUNK // r))
        passes = low if r * s <= BLOCK else high
        passes.append((shape, sylvester(bits), s == 1, None if 1 << n <= CHUNK else extents))
    size = min(1 << n, BLOCK)
    parts = [(lo, lo + size, True, tuple(low)) for lo in range(0, 1 << n, size)]
    if high:
        parts.append((0, 1 << n, False, tuple(high)))
    return tuple(parts)


def _transform(a: np.ndarray, signs=None, table=None, weights=None) -> np.ndarray:
    """Transform the contiguous float64 vector a by its plan, in place; returns a.

    A ``first`` part is first multiplied by ``signs[table]``, else by
    ``weights``: piece p (a TABLE_PIECE) by row p.bit_count() (see apply_u)."""
    for lo, hi, first, passes in _plan(a.size.bit_length() - 1):
        block = a[lo:hi] if hi - lo < a.size else a
        if not first or table is None and weights is None:
            pass
        elif a.size <= TABLE_PIECE:  # one piece: the whole vector
            a *= weights[0] if table is None else signs.take(table)
        else:
            for p in range(lo, hi, TABLE_PIECE):
                q = p + TABLE_PIECE
                a[p:q] *= weights[p.bit_count()] if table is None else signs.take(table[p:q])
        for shape, h, right, extents in passes:
            view = block.reshape(shape)
            if extents is None:
                view[...] = view @ h if right else h @ view
                continue
            rows, cols = extents
            for i in range(0, len(view), rows):
                for c in range(0, view.shape[-1], cols):
                    blk = view[i : i + rows, ..., c : c + cols]
                    blk[...] = blk @ h if right else h @ blk
    return a


def _work_vector(x: np.ndarray, inplace: bool) -> np.ndarray:
    """x as the float64 vector a transform works on: x itself or a copy."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError(f"need a 1-D vector, got shape {a.shape}")
    if a.size == 0 or a.size & (a.size - 1):
        raise ValueError(f"length must be a power of two, got {a.size}")
    return a if inplace and a.flags.c_contiguous else a.copy()


def fwht(x: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of a copy of x, radix-16 matmul passes.

    Pass p multiplies the ``(-1, 16, 2**(4p))`` view by the 16x16
    Sylvester Hadamard; the last pass takes the n mod 4 bits left over.
    The passes are planned once per n: one matmul each up to CHUNK entries,
    one per block of about CHUNK above.  Satisfies fwht(fwht(x)) == len(x) * x
    up to rounding.  O(n * 2**n) time; the extra memory is the copy and one block.
    """
    return _transform(_work_vector(x, False))


def apply_u(
    spec: MixerSpec, x: np.ndarray, inplace: bool = False, signs=None, table=None
) -> np.ndarray:
    """U @ x via transform, multiply by ``spec.tau_rows``, transform.

    The sign flip on high-weight components and the 1/N normalization are
    one multiply between the transforms; scaling by a power of two is
    exact, so its place in the product does not change the result.  The
    multiply goes a piece at a time, each piece by the row of its high
    bits' weight, so no 2**n weight table is made.  Given ``signs`` and
    ``table``, which go together, it is U @ (signs[table] * x).  With
    ``inplace``, x itself is transformed and returned when it is a
    contiguous float64 array, so no second state vector is made, and a
    copy of any other x; by default x is left as it was.
    """
    if (signs is None) != (table is None):
        raise ValueError("signs and table must be given together")
    if len(x) != 1 << spec.n:
        raise ValueError(f"state length {len(x)} does not match n={spec.n}")
    y = _transform(_work_vector(x, inplace), signs, table)
    return _transform(y, weights=spec.tau_rows)


def dense_u(spec: MixerSpec) -> np.ndarray:
    """Dense mixing matrix U[r,s] = u_{|r ^ s|}.  Oracle use only, n <= DEFAULT_DENSE_LIMIT."""
    if spec.n > DEFAULT_DENSE_LIMIT:
        raise CapacityError(
            f"dense matrix needs 4**{spec.n} entries; limit is n <= {DEFAULT_DENSE_LIMIT}"
        )
    idx = np.arange(1 << spec.n)
    dist = popcounts(spec.n)[idx[:, None] ^ idx[None, :]]
    return u_coefficients(spec)[dist]
