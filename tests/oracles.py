"""Slow exact constructions that the tests use as references.

``exact_scaled_shell_transform`` builds the orthogonal shell transform from
exact big-integer Krawtchouk rows, one correctly rounded square root per
entry.  It is O(m**2) Python big-integer work and converts integers of
size 2**m to float, so it overflows once m passes about 1020; the package
builds the same matrix by a float recurrence instead.
"""

import math
from math import comb

import numpy as np

from qlsat.mixer import kernel_rows


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
