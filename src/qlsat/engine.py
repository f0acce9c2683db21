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


def step(x: np.ndarray, signs: np.ndarray, spec: MixerSpec) -> np.ndarray:
    """One evolution step: phase flips then distance-based mixing.

    The phase flips are applied to x in place; the mixed state is returned.
    """
    x *= signs
    del signs  # a gathered phase vector is freed before the transform runs
    return mixer_mod.apply_u(spec, x)


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

    x = init_uniform(problem.n, limit)
    probs = [p_soln(x, solutions)]
    hists = [conflict_histogram(x, conflicts, problem.m)] if record_histograms else None
    states = [x.copy()] if record_states else None
    for signs in sign_tables(resolved, problem.n, problem.m, j_max):
        x = step(x, signs[table], spec)
        probs.append(p_soln(x, solutions))
        if record_histograms:
            hists.append(conflict_histogram(x, conflicts, problem.m))
        if record_states:
            states.append(x.copy())

    best_j, best_cost = select_best(probs)
    return RunResult(
        engine="full",
        p_soln_by_step=probs,
        best_j=best_j,
        best_cost=best_cost,
        histograms=hists,
        states=states,
    )


def measure_sample(x: np.ndarray, seed: int) -> int:
    """Draw one assignment from the squared-amplitude distribution."""
    weights = np.asarray(x) ** 2
    total = weights.sum()
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"state norm {total} is not within 1e-6 of 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return int(rng.choice(len(weights), p=weights / total))
