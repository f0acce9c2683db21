"""Full 2**n-state amplitude evolution and trial bookkeeping.

State vectors are real float64 throughout: the initial state is real and
both the mixing operator and the phase factors (+/-1) preserve realness,
so these amplitudes are the real slice of the complex state with no
imaginary part.  One step multiplies by the phase vector and mixes:

    x_next = U @ (signs_j * x)

Both happen in place on the one state a trial holds, in one
``mixer.apply_u`` call.  The phase vector is never formed: each piece of
TABLE_PIECE amplitudes is multiplied by the step's sign of each count
value, gathered by that piece of the count table, as the sweep of the
first transform reaches it.

Solution probability is read directly off the state (sum of squared
amplitudes over satisfying assignments), never estimated by sampling.
The search cost of stopping after j steps is j / p_soln(j); a trial
reports the best j, preferring smaller j on ties.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from typing import TypeVar

import numpy as np

from . import mixer as mixer_mod
from .phases import PolicySpec, policy_table, resolve_policy, sign_blocks
from .sat import DEFAULT_FULL_LIMIT, TABLE_PIECE, SatProblem, conflict_vector

_Signs = TypeVar("_Signs")  # what ``evolve`` hands each step, as its engine needs it


@dataclass
class RunResult:
    """Outcome of one trial.

    ``p_soln_by_step[j]`` is the solution probability after step j, with
    index 0 the uniform initial state.  ``best_cost`` is infinite when no
    step puts any amplitude on a solution.  ``histograms[j]``, when
    recorded, is the probability by conflict count after step j; it sums
    to the squared norm of the state.
    """

    engine: str
    p_soln_by_step: list[float]
    best_j: int | None
    best_cost: float
    histograms: list[np.ndarray] | None = None

    @property
    def steps(self) -> int:
        return len(self.p_soln_by_step) - 1


def solution_readout(conflicts: np.ndarray) -> Callable[[np.ndarray], float]:
    """Probability mass on the satisfying assignments, for every step of a trial.

    With at most TABLE_PIECE solutions their indices are held and each
    readout is np.sum(x[solutions] ** 2).  With more, each readout sums the
    solutions of each piece of TABLE_PIECE assignments and adds the piece
    sums exactly (math.fsum): its rounding error is that of one piece's
    np.sum, and its temporaries stay at a few pieces however many solutions
    there are.
    """
    solved = conflicts == 0
    if np.count_nonzero(solved) <= TABLE_PIECE:
        solutions = np.flatnonzero(solved)
        return lambda x: float((x[solutions] ** 2).sum())
    return lambda x: math.fsum(
        np.sum(x[lo : lo + TABLE_PIECE][conflicts[lo : lo + TABLE_PIECE] == 0] ** 2)
        for lo in range(0, len(x), TABLE_PIECE)
    )


def conflict_histogram(x: np.ndarray, conflicts: np.ndarray, m: int) -> np.ndarray:
    """Probability by conflict count: entry c sums |x_s|^2 with c conflicts.

    Accumulated piece by piece in index order, as one bincount over the
    whole state would, so the bits are the same but the squares and the
    index cast are never made for the whole state at once.
    """
    hist = np.zeros(m + 1)
    for lo in range(0, len(x), TABLE_PIECE):
        hi = lo + TABLE_PIECE
        np.add.at(hist, conflicts[lo:hi], np.asarray(x[lo:hi]) ** 2)
    return hist


def select_best(p_soln_by_step: list[float]) -> tuple[int | None, float]:
    """argmin over j >= 1 of j / p_j, ties to the smaller j."""
    best_j, best_cost = None, math.inf
    for j, p in enumerate(p_soln_by_step):
        if j == 0 or p <= 0.0:
            continue
        cost = j / p
        if cost < best_cost:
            best_j, best_cost = j, cost
    return best_j, best_cost


def evolve(
    engine: str,
    x: np.ndarray,
    signs: Iterable[_Signs],
    step: Callable[[np.ndarray, _Signs], np.ndarray],
    p_soln_of: Callable[[np.ndarray], float],
    histogram_of: Callable[[np.ndarray], np.ndarray] | None = None,
) -> RunResult:
    """The trial loop both engines run: per step j, x = step(x, signs_j).

    ``x`` is the start state.  ``signs`` yields, for each step, the sign of
    every count value (a row of ``phases.sign_blocks``; the compact engine
    adds the rows of the step's smaller sign set), and ``step`` multiplies
    the state by the signs of its entries' counts and mixes it.  A step may
    work in place, so a readout that keeps the state must copy it.  The
    readouts are taken after every step and once before the first; the
    histogram readout is recorded only when given.
    """
    probs = [p_soln_of(x)]
    hists = [histogram_of(x)] if histogram_of else None
    for signs_j in signs:
        x = step(x, signs_j)
        probs.append(p_soln_of(x))
        if histogram_of:
            hists.append(histogram_of(x))

    best_j, best_cost = select_best(probs)
    return RunResult(
        engine=engine,
        p_soln_by_step=probs,
        best_j=best_j,
        best_cost=best_cost,
        histograms=hists,
    )


def run_trial(
    problem: SatProblem,
    policy: PolicySpec,
    alpha: int | None = None,
    j_max: int | None = None,
    record_histograms: bool = False,
    limit: int | None = DEFAULT_FULL_LIMIT,
) -> RunResult:
    """Evolve an instance for the steps its resolved policy fixes, min(j_max, cap).

    Solutions and conflict counts come from exhaustive evaluation, so
    this engine is limited to moderate n (see ``limit``).  The mixer is
    ``MixerSpec(problem.n, alpha)``; alpha defaults to n // 2.
    """
    resolved = resolve_policy(policy, problem.n, problem.m, problem.k, j_max)
    spec = mixer_mod.MixerSpec(problem.n, alpha)
    conflicts = conflict_vector(problem, limit)
    table = policy_table(resolved, conflicts)
    p_soln_of = solution_readout(conflicts)
    histogram_of = None
    if record_histograms:
        histogram_of = functools.partial(conflict_histogram, conflicts=conflicts, m=problem.m)
    # the conflict table lives on only where a readout or the policy reads
    # it, and the uniform start state goes straight into the call: a local
    # holding either keeps one more 2**n table alive for the whole trial.
    # evolve owns the state, so its signs are flipped and it is mixed in place
    del conflicts
    return evolve(
        "full",
        np.full(1 << problem.n, 1.0 / math.sqrt(1 << problem.n)),
        itertools.chain.from_iterable(sign_blocks(resolved, problem.n, problem.m)),
        lambda x, signs: mixer_mod.apply_u(spec, x, inplace=True, signs=signs, table=table),
        p_soln_of,
        histogram_of=histogram_of,
    )
