"""Named self-checks with fixed bounds, run by ``qlsat verify``.

``CHECKS[name](alpha, dense_limit)`` yields one or more rows (name,
passed, detail).  ``alpha`` injects a non-default mixing split; the checks
in ``DEFAULT_SPLIT_ONLY`` hold reference values of the default split and
are skipped under it.  The acceptance tests assert these same entries, so
the command and the tests cannot drift apart.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from . import compact as compact_mod
from . import engine as engine_mod
from . import mixer as mixer_mod
from .generate import (
    EnsembleSpec,
    backtrack_count,
    gen_max_constrained_1sat,
    gen_random,
    instance_seed_sequence,
)
from .mixer import DEFAULT_DENSE_LIMIT, MixerSpec
from .phases import POLICY_KINDS, PolicySpec
from .sat import CapacityError, conflict_vector

Row = tuple[str, bool | None, str]  # name, passed (None when skipped), detail

# largest n of the dense fast-versus-dense comparison unless asked otherwise
DENSE_LIMIT = 8

# Reference 4x4 mixing matrix for n=2 at the default split: +1/2 everywhere
# except -1/2 on the anti-diagonal (assignments at Hamming distance 2).
_REFERENCE_U2 = np.array(
    [
        [0.5, 0.5, 0.5, -0.5],
        [0.5, 0.5, -0.5, 0.5],
        [0.5, -0.5, 0.5, 0.5],
        [-0.5, 0.5, 0.5, 0.5],
    ]
)


def _unitarity(alpha, dense_limit):
    worst = 0.0
    for n in range(2, 7):
        u = mixer_mod.dense_u(MixerSpec(n, alpha))
        worst = max(worst, float(np.abs(u.T @ u - np.eye(1 << n)).max()))
    yield "unitarity", worst < 1e-12, f"max |U^T U - I| = {worst:.2e} over n=2..6 (bound 1e-12)"


def _mixing_table_n2(alpha, dense_limit):
    dev = float(np.abs(mixer_mod.dense_u(MixerSpec(2, alpha)) - _REFERENCE_U2).max())
    yield "mixing-table-n2", dev < 1e-12, f"max entry deviation {dev:.2e} (bound 1e-12)"


def _fast_vs_dense(alpha, dense_limit):
    rng = np.random.default_rng(np.random.SeedSequence(11))
    worst = 0.0
    for n in range(2, dense_limit + 1):
        spec = MixerSpec(n, alpha)
        dense = mixer_mod.dense_u(spec)
        for _ in range(5):
            x = rng.standard_normal(1 << n)
            worst = max(worst, float(np.abs(mixer_mod.apply_u(spec, x) - dense @ x).max()))
    yield "fast-vs-dense", worst < 1e-10, (
        f"max |fast - dense| = {worst:.2e} over n=2..{dense_limit} (bound 1e-10)"
    )


def _first_shell_coefficient(alpha, dense_limit):
    for n, target in ((8, 0.27), (20, 0.18)):
        u1 = mixer_mod.u_coefficients(MixerSpec(n))[1]
        ok = abs(u1 - target) < 5e-3
        yield f"first-shell-coefficient-n{n}", ok, f"u_1 = {u1:.6f} vs {target} (tol 5e-3)"
    exact = all(
        mixer_mod.u_numerators(MixerSpec(n))[1] == 2 * math.comb(n - 1, n // 2)
        for n in range(2, 31)
    )
    yield "first-shell-coefficient-exact", exact, "u_1 = 2*C(n-1, n//2)/2^n for n=2..30"


def _shell_coefficient_signs(alpha, dense_limit):
    ok = True
    for n in range(2, 21):
        u = mixer_mod.u_coefficients(MixerSpec(n))
        for d in range(1, n + 1):
            if n % 2 == 0:
                expect_neg = d % 4 in (2, 3)
                ok = ok and ((u[d] < 0) == expect_neg) and (u[d] != 0)
            elif d % 2 == 0:
                ok = ok and abs(u[d]) == 0.0
            else:
                ok = ok and ((u[d] > 0) == (d % 4 == 1))
    yield "shell-coefficient-signs", ok, "sign pattern by d mod 4 for n=2..20"


def _norm_drift(alpha, dense_limit):
    # a step's histogram, its probability by conflict count, sums to |x|**2
    hists = []
    for n, m in ((10, 40), (12, 48)):
        spec = EnsembleSpec(n=n, k=3, m=m, kind="random", seed=instance_seed_sequence(23, n))
        problem = gen_random(spec).problem
        for kind in POLICY_KINDS:
            result = engine_mod.run_trial(
                problem, PolicySpec(kind), alpha=alpha, record_histograms=True
            )
            hists += result.histograms
    comp = compact_mod.compact_run(300, PolicySpec("neighborhood"), record_histograms=True)
    hists += comp.histograms
    worst = max(abs(float(np.sum(hist)) - 1.0) for hist in hists)
    yield "norm-drift", worst < 1e-10, f"max per-step |norm - 1| = {worst:.2e} (bound 1e-10)"


def _compact_vs_full(alpha, dense_limit):
    worst = 0.0
    for n in (6, 8, 10):
        for kind in POLICY_KINDS:
            spec = EnsembleSpec(n=n, k=1, m=n, kind="max-constrained-1sat", seed=5)
            problem = gen_max_constrained_1sat(spec).problem
            full = engine_mod.run_trial(problem, PolicySpec(kind))
            shell = compact_mod.compact_run(n, PolicySpec(kind))
            diff = np.abs(np.array(full.p_soln_by_step) - np.array(shell.p_soln_by_step)).max()
            worst = max(worst, float(diff))
    yield "compact-vs-full", worst < 1e-10, (
        f"max per-step probability gap {worst:.2e} over n=6,8,10 (bound 1e-10)"
    )


def _two_variable_example(alpha, dense_limit):
    ok = True
    for seed in range(3):
        spec = EnsembleSpec(n=2, k=1, m=2, kind="max-constrained-1sat", seed=seed)
        problem = gen_max_constrained_1sat(spec).problem
        simple = engine_mod.run_trial(problem, PolicySpec("simple-threshold"))
        nbr = engine_mod.run_trial(problem, PolicySpec("neighborhood"))
        ok = ok and simple.best_j == 1 and abs(simple.best_cost - 1.0) < 1e-10
        ok = ok and nbr.best_j == 2 and abs(nbr.best_cost - 2.0) < 1e-10
    yield "two-variable-example", ok, "costs 1 (simple) and 2 (neighborhood)"


def _backtrack_vs_enumeration(alpha, dense_limit):
    ok = True
    for seed in range(5):
        spec = EnsembleSpec(n=6, k=3, m=20, kind="random", seed=1000 + seed)
        problem = gen_random(spec).problem
        enumerated = np.count_nonzero(conflict_vector(problem) == 0)
        ok = ok and backtrack_count(problem) == enumerated
    yield "backtrack-vs-enumeration", ok, "solution counts match over 5 random n=6 instances"


CHECKS = {
    "unitarity": _unitarity,
    "mixing-table-n2": _mixing_table_n2,
    "fast-vs-dense": _fast_vs_dense,
    # three rows; skipped, it reports one row under this name
    "first-shell-coefficient-n8": _first_shell_coefficient,
    "shell-coefficient-signs": _shell_coefficient_signs,
    "norm-drift": _norm_drift,
    "compact-vs-full": _compact_vs_full,
    "two-variable-example": _two_variable_example,
    "backtrack-vs-enumeration": _backtrack_vs_enumeration,
}
DEFAULT_SPLIT_ONLY = frozenset(
    (
        "first-shell-coefficient-n8",
        "shell-coefficient-signs",
        "compact-vs-full",
        "two-variable-example",
    )
)


def run_checks(alpha: int | None = None, dense_limit: int = DENSE_LIMIT) -> Iterator[Row]:
    """Rows of every check in table order.

    Raises, before any check runs, ValueError when ``dense_limit`` is below
    2 (the dense comparison would compare nothing) and CapacityError when
    it is above the dense-matrix limit DEFAULT_DENSE_LIMIT.
    """
    if dense_limit < 2:
        raise ValueError(f"dense comparisons start at n=2; got a dense limit of {dense_limit}")
    if dense_limit > DEFAULT_DENSE_LIMIT:
        raise CapacityError(
            f"dense comparisons up to n={dense_limit} need 4**n-entry matrices; "
            f"limit is n <= {DEFAULT_DENSE_LIMIT}"
        )
    for name, rows in CHECKS.items():
        if alpha is not None and name in DEFAULT_SPLIT_ONLY:
            yield name, None, "skipped (custom --alpha)"
        else:
            yield from rows(alpha, dense_limit)
