"""Wall time and memory of one trial, per policy and instance.

    python tools/trial_profile.py N [--src DIR] [--compact]

Profiles two instances with n = N: one random 3-SAT draw with m = 4N
clauses (seed 0), and the instance with no clauses.  There every
assignment is a solution, so from N = 14 on the solution readout scans
the conflict table in pieces instead of holding solution indices.  Each
policy on each instance runs in a fresh child process with one BLAS
thread, and each child prints one line:

* the median wall time of REPEATS trials, after one warm-up trial that
  also builds the shared lazily made tables;
* the resident growth of that first trial: the rise of the process's peak
  RSS, in state vectors of 8 * 2**N bytes;
* the traced peak of one more trial under ``tracemalloc``, in state
  vectors, measured from the memory held before the trial as the
  peak-memory test does.

It then prints the median time, over REPEATS calls after one warm-up, of
each layer of the trial on the same instance: ``conflict_vector``,
``n_better_vector``, the trial's set-up (all of ``run_trial`` before its
first step, timed with ``engine.evolve`` stubbed out), the build of the
mixing weights of a new ``MixerSpec(N)``, with their cache emptied first as
for an (N, alpha) not run last (a trial at a new N pays it in its first
step), one step (the first step's sign flip and the mixing, one
``apply_u`` call that does both, or the flip and then ``apply_u`` on a
checkout from before they were fused), and the solution readout taken
after every step.  Comparing two checkouts with ``--src`` at N = 8-14 shows how much
of a millisecond trial these fixed costs are.

``--compact`` profiles ``compact_run(N)`` on the shell-space engine
instead, one child per policy.  Each prints the median time, over
COMPACT_REPEATS calls after one warm-up, of each layer of the run: the
start vector, the shell transform (which builds its own start vector),
the V product (the build of V from a ready transform), all the sign
tables, the steps (the whole of ``compact_run`` with ``build_v_scaled``
handing it a copy of a ready V, so its sign tables, steps and readouts,
and that copy), and the whole run.  The transform and the run each start
with the start-vector cache emptied, as for an m not seen last.

``--src`` profiles the checkout at DIR (its package is imported from
DIR/src) instead of this one, so two checkouts can be compared.
"""

from __future__ import annotations

import argparse
import inspect
import multiprocessing
import os
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

POLICIES = ("simple-threshold", "neighborhood")
REPEATS = 5
COMPACT_REPEATS = 25  # compact layers take milliseconds, so take more samples


def profile(n: int, src: str, kind: str, clauses: bool) -> None:
    sys.path.insert(0, str(Path(src).resolve() / "src"))
    import numpy as np

    from qlsat import EnsembleSpec, PolicySpec, SatProblem, generate, run_trial
    from qlsat import engine, mixer
    from qlsat.mixer import MixerSpec, apply_u
    from qlsat.phases import policy_table, resolve_policy, sign_tables
    from qlsat.sat import conflict_vector, n_better_vector

    if clauses:
        problem = generate(EnsembleSpec(n=n, k=3, m=4 * n, kind="random", seed=0)).problem
    else:
        problem = SatProblem(n=n, k=3, clauses=())
    policy = PolicySpec(kind)
    vector = 8 << n

    rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    run_trial(problem, policy)
    # ru_maxrss is in KiB on Linux
    rss_growth = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss_before) * 1024

    walls = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        run_trial(problem, policy)
        walls.append(time.perf_counter() - start)

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run_trial(problem, policy)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()

    print(
        f"{kind:<16} n={n} m={problem.m}: "
        f"wall median {statistics.median(walls) * 1e3:.3f} ms "
        f"(min {min(walls) * 1e3:.3f}, max {max(walls) * 1e3:.3f}, {len(walls)} trials), "
        f"traced peak {peak / vector:.2f} vectors, "
        f"resident growth {rss_growth / vector:.2f} vectors ({rss_growth / 2**20:.0f} MiB)",
        flush=True,
    )

    resolved = resolve_policy(policy, n, problem.m, problem.k)
    conflicts = conflict_vector(problem)
    table = policy_table(resolved, conflicts)
    signs = next(sign_tables(resolved, n, problem.m))
    spec, x = MixerSpec(n), engine.init_uniform(n)
    # checkouts from before apply_u flipped the signs itself flip them first:
    # with apply_signs, or before that by gathering each step's signs whole
    apply_signs = getattr(
        engine, "apply_signs", lambda x, signs, table: x.__imul__(signs.astype(np.int8)[table])
    )
    fused = "table" in inspect.signature(apply_u).parameters
    p_soln_of = engine.solution_readout(conflicts)

    def step():
        if fused:
            return apply_u(spec, x, inplace=True, signs=signs, table=table)
        return apply_u(spec, apply_signs(x, signs, table), inplace=True)

    def setup():
        evolve, engine.evolve = engine.evolve, lambda *args, **kwargs: None
        try:
            run_trial(problem, policy)
        finally:
            engine.evolve = evolve

    # checkouts from before the weights were cached by (n, alpha) have no cache to empty
    forget_weights = getattr(mixer, "_TAU_ROWS", {}).clear

    times = {
        name: median_ms(call)
        for name, call in (
            ("conflict_vector", lambda: conflict_vector(problem)),
            ("n_better_vector", lambda: n_better_vector(conflicts)),
            ("set-up", setup),
            ("weights", lambda: forget_weights() or MixerSpec(n).tau_rows),
            ("step", step),
            ("readout", lambda: p_soln_of(x)),
        )
    }
    print(
        f"{'':<16} layers: conflict_vector {times['conflict_vector']:.3f} ms, "
        f"n_better_vector {times['n_better_vector']:.3f} ms, "
        f"set-up {times['set-up']:.3f} ms, weights {times['weights']:.3f} ms, "
        f"one step {times['step']:.3f} ms, "
        f"readout {times['readout']:.3f} ms",
        flush=True,
    )


def profile_compact(n: int, src: str, kind: str) -> None:
    sys.path.insert(0, str(Path(src).resolve() / "src"))
    from qlsat import PolicySpec, compact
    from qlsat.phases import resolve_policy, sign_tables

    policy = PolicySpec(kind)
    resolved = resolve_policy(policy, n, n, 1)
    t = compact._scaled_shell_transform(n)
    v = compact.build_v_scaled(n)
    steps_run = sum(1 for _ in sign_tables(resolved, n, n))

    def v_product():
        # build_v_scaled on the ready transform: only its own work is timed
        build = compact._scaled_shell_transform
        compact._scaled_shell_transform = lambda m: t
        try:
            compact.build_v_scaled(n)
        finally:
            compact._scaled_shell_transform = build

    def steps():
        # compact_run on a copy of the ready V, which the run may double in
        # place: the engine's own steps are timed, and so is that copy
        build = compact.build_v_scaled
        compact.build_v_scaled = lambda n, m=None: v.copy()
        try:
            compact.compact_run(n, policy)
        finally:
            compact.build_v_scaled = build

    # checkouts from before the start vector was cached have no cache to empty
    start_vector = getattr(compact._start_vector, "__wrapped__", compact._start_vector)
    forget = getattr(compact._start_vector, "cache_clear", lambda: None)

    times = {
        name: median_ms(call, COMPACT_REPEATS)
        for name, call in (
            ("start vector", lambda: start_vector(n)),
            ("shell transform", lambda: forget() or compact._scaled_shell_transform(n)),
            ("V product", v_product),
            ("sign tables", lambda: sum(1 for _ in sign_tables(resolved, n, n))),
            ("steps", steps),
            ("run", lambda: forget() or compact.compact_run(n, policy)),
        )
    }
    print(
        f"{kind:<16} compact n={n} ({steps_run} steps): "
        + ", ".join(f"{name} {ms:.3f} ms" for name, ms in times.items()),
        flush=True,
    )


def median_ms(call, repeats: int = REPEATS) -> float:
    """Median wall time of ``repeats`` calls, after one warm-up call, in ms."""
    call()
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        walls.append(time.perf_counter() - start)
    return statistics.median(walls) * 1e3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("n", type=int)
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1]))
    parser.add_argument("--policy", choices=POLICIES, help="profile this policy only")
    parser.add_argument(
        "--compact", action="store_true", help="profile compact_run(N) layer by layer"
    )
    args = parser.parse_args()
    kinds = [args.policy] if args.policy else POLICIES
    if args.compact:
        jobs = [(profile_compact, (args.n, args.src, kind)) for kind in kinds]
    else:
        jobs = [
            (profile, (args.n, args.src, kind, clauses))
            for clauses in (True, False)
            for kind in kinds
        ]
    # a fresh interpreter per profile, so peak RSS starts clean
    spawn = multiprocessing.get_context("spawn")
    for target, job_args in jobs:
        child = spawn.Process(target=target, args=job_args)
        child.start()
        child.join()
        if child.exitcode:
            return child.exitcode
    return 0


if __name__ == "__main__":
    sys.exit(main())
