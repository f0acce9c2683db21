"""Full 2**n-state amplitude evolution and trial bookkeeping.

State vectors are real float64 throughout: the initial state is real and
both the mixing operator and the phase factors (+/-1) preserve realness,
so these amplitudes are the real slice of the complex state with no
imaginary part.  One step multiplies by the phase vector and mixes:

    x_next = U @ (signs_j * x)

Solution probability is read directly off the state (sum of squared
amplitudes over satisfying assignments), never estimated by sampling.
The search cost of stopping after j steps is j / p_soln(j); a trial
reports the best j, preferring smaller j on ties.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

import numpy as np

from . import mixer as mixer_mod
from .mixer import MixerSpec
from .phases import PolicySpec, policy_table, resolve_policy, sign_tables
from .sat import DEFAULT_FULL_LIMIT, SatProblem, check_full_capacity, conflict_vector


@dataclass
class RunResult:
    """Outcome of one trial.

    ``p_soln_by_step[j]`` is the solution probability after step j, with
    index 0 the uniform initial state.  ``best_cost`` is infinite when no
    step puts any amplitude on a solution.
    """

    engine: str
    p_soln_by_step: list[float]
    best_j: int | None
    best_cost: float
    histograms: list[np.ndarray] | None = None
    states: list[np.ndarray] | None = field(default=None, repr=False)

    @property
    def steps(self) -> int:
        return len(self.p_soln_by_step) - 1


def init_uniform(n: int, limit: int | None = DEFAULT_FULL_LIMIT) -> np.ndarray:
    """Uniform superposition, every amplitude 1/sqrt(2**n)."""
    check_full_capacity(n, limit)
    size = 1 << n
    return np.full(size, 1.0 / math.sqrt(size))


def p_soln(x: np.ndarray, solutions: np.ndarray) -> float:
    """Probability mass on the satisfying assignments."""
    return float(np.sum(x[solutions] ** 2))


def conflict_histogram(x: np.ndarray, conflicts: np.ndarray, m: int) -> np.ndarray:
    """Probability by conflict count: entry c sums |x_s|^2 with c conflicts."""
    return np.bincount(conflicts, weights=np.asarray(x) ** 2, minlength=m + 1)


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
    phases: Iterable[np.ndarray],
    mix: Callable[[np.ndarray], np.ndarray],
    p_soln_of: Callable[[np.ndarray], float],
    histogram_of: Callable[[np.ndarray], np.ndarray] | None = None,
    state_of: Callable[[np.ndarray], object] | None = None,
) -> RunResult:
    """The trial loop both engines run: per step, x = mix(phases_j * x).

    ``x`` is the start state and is multiplied in place, so a readout that
    keeps the state must copy it.  Each phase vector is dropped before
    ``mix`` runs, so at most one is alive at a time.  The readouts are
    taken after every step and once before the first; the histogram and
    state readouts are recorded only when given.
    """
    probs = [p_soln_of(x)]
    hists = [histogram_of(x)] if histogram_of else None
    states = [state_of(x)] if state_of else None
    for signs in phases:
        x *= signs
        del signs
        x = mix(x)
        probs.append(p_soln_of(x))
        if histogram_of:
            hists.append(histogram_of(x))
        if state_of:
            states.append(state_of(x))

    best_j, best_cost = select_best(probs)
    return RunResult(
        engine=engine,
        p_soln_by_step=probs,
        best_j=best_j,
        best_cost=best_cost,
        histograms=hists,
        states=states,
    )


def run_trial(
    problem: SatProblem,
    policy: PolicySpec,
    mixer: MixerSpec | None = None,
    j_max: int | None = None,
    record_histograms: bool = False,
    record_states: bool = False,
    limit: int | None = DEFAULT_FULL_LIMIT,
) -> RunResult:
    """Evolve an instance for up to min(j_max, policy cap) steps.

    Solutions and conflict counts come from exhaustive evaluation, so
    this engine is limited to moderate n (see ``limit``).
    """
    spec = mixer if mixer is not None else MixerSpec(problem.n)
    if spec.n != problem.n:
        raise ValueError(f"mixer is for n={spec.n}, problem has n={problem.n}")
    resolved = resolve_policy(policy, problem.n, problem.m, problem.k)
    conflicts = conflict_vector(problem, limit)
    table = policy_table(resolved, conflicts)
    solutions = np.flatnonzero(conflicts == 0)

    # the start state goes straight into the call: a local holding it would
    # keep one more 2**n vector alive for the whole trial
    return evolve(
        "full",
        init_uniform(problem.n, limit),
        (signs[table] for signs in sign_tables(resolved, problem.n, problem.m, j_max)),
        lambda x: mixer_mod.apply_u(spec, x),
        lambda x: p_soln(x, solutions),
        histogram_of=(
            (lambda x: conflict_histogram(x, conflicts, problem.m))
            if record_histograms
            else None
        ),
        state_of=np.copy if record_states else None,
    )
