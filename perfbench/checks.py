"""Correctness checks on benchmark outputs, and probes of known defects.

Every trial a workload evolves is checked as soon as its op's timer stops:

* on the default seed, ``p_soln_by_step`` against ``reference.json``
  (recorded with ``make_reference.py``) within 1e-12 absolute, with
  ``best_j`` exactly equal;
* on any seed, the invariants: p[0] is the solution count over 2**n,
  every p lies in [0, 1], and ``best_j``/``best_cost`` agree with a
  recomputed argmin of j / p.

Probes exercise inputs that the README or the docstrings accept but that
fail at the commit this benchmark was written against.  They run untimed,
and a failed probe counts in ``fail_ratio`` so that a fix lowers it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")
REF_TOL = 1e-12
COMPACT_VS_FULL_TOL = 1e-10


@dataclass
class Trial:
    """One evolved instance as the program reported it."""

    key: str  # reference key: instance index, op.item, or n<size> for compact runs
    n: int
    p: list[float]
    best_j: int | None
    best_cost: float  # math.inf when no step reaches a solution
    solutions: int | None = None  # solution count, when known without solving
    problem: object = None  # SatProblem to count solutions of otherwise


def load_reference(workload: str, seed: int) -> dict:
    """Reference entries for this workload, or {} when none apply to the seed."""
    data = json.loads(REFERENCE_PATH.read_text())
    entry = data.get(workload, {})
    if entry.get("seed") is not None and entry["seed"] != seed:
        return {}
    return entry.get("trials", {})


def recompute_best(p: list[float]) -> tuple[int | None, float]:
    """argmin over j >= 1 of j / p[j], ties to the smaller j."""
    best_j, best_cost = None, math.inf
    for j, pj in enumerate(p):
        if j and pj > 0 and j / pj < best_cost:
            best_j, best_cost = j, j / pj
    return best_j, best_cost


def check_trial(trial: Trial, solutions: int, ref: dict | None = None) -> list[str]:
    """Failed checks for one trial; an empty list means it passed."""
    errors = []
    p = trial.p
    if not p:
        return ["empty p_soln_by_step"]
    if any(not 0.0 <= x <= 1.0 for x in p):
        errors.append("a solution probability lies outside [0, 1]")
    expect0 = math.ldexp(solutions, -trial.n)
    if abs(p[0] - expect0) > REF_TOL:
        errors.append(f"p[0]={p[0]!r} but {solutions} solutions / 2**{trial.n} = {expect0!r}")
    best_j, best_cost = recompute_best(p)
    if trial.best_j != best_j:
        errors.append(f"best_j={trial.best_j} but argmin j/p is {best_j}")
    elif not (
        math.isinf(best_cost) and math.isinf(trial.best_cost)
        or abs(trial.best_cost - best_cost) <= REF_TOL * best_cost
    ):
        errors.append(f"best_cost={trial.best_cost!r} but min j/p is {best_cost!r}")
    if ref is not None:
        if ref["best_j"] != trial.best_j:
            errors.append(f"best_j={trial.best_j} differs from reference {ref['best_j']}")
        if len(ref["p"]) != len(p):
            errors.append(f"{len(p)} steps differ from reference {len(ref['p'])}")
        else:
            gap = max(abs(a - b) for a, b in zip(p, ref["p"]))
            if gap > REF_TOL:
                errors.append(f"p differs from reference by {gap:.3e}")
    return errors


def check_trials(trials: list[Trial], reference: dict) -> tuple[int, list[str]]:
    """(number of trials that passed, failure messages)."""
    from qlsat.generate import backtrack_count

    passed, failures = 0, []
    for t in trials:
        solutions = t.solutions if t.solutions is not None else backtrack_count(t.problem)
        errors = check_trial(t, solutions, reference.get(t.key))
        if errors:
            failures.append(f"trial {t.key}: " + "; ".join(errors))
        else:
            passed += 1
    return passed, failures


def compact_matches_full(seed: int, n: int = 16) -> tuple[bool, str]:
    """Compact engine against the full engine on max-constrained 1-SAT."""
    from qlsat import (
        EnsembleSpec, PolicySpec, compact_run, generate, instance_seed_sequence, run_trial,
    )

    spec = EnsembleSpec(
        n=n, k=1, m=n, kind="max-constrained-1sat", seed=instance_seed_sequence(seed, 0)
    )
    problem = generate(spec).problem
    worst = 0.0
    for kind in ("simple-threshold", "neighborhood"):
        full = run_trial(problem, PolicySpec(kind)).p_soln_by_step
        shell = compact_run(n, PolicySpec(kind)).p_soln_by_step
        if len(full) != len(shell):
            return False, f"{kind}: {len(full)} full steps vs {len(shell)} compact"
        worst = max(worst, max(abs(a - b) for a, b in zip(full, shell)))
    ok = worst <= COMPACT_VS_FULL_TOL
    return ok, f"max gap {worst:.3e} at n={n} (bound {COMPACT_VS_FULL_TOL:g})"


# --- known-defect probes -------------------------------------------------------


def _cli(argv: list[str]) -> tuple[int, str]:
    """qlsat.cli.main with stderr captured; (exit code, stderr text)."""
    import qlsat.cli

    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = qlsat.cli.main(argv)
    return code, err.getvalue().strip()


def _records(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line]


def probe_readme_compact(work: Path) -> tuple[bool, str]:
    """`qlsat run --engine compact --n 200`, the README example."""
    out = work / "probe-compact.jsonl"
    code, err = _cli(
        ["run", "--engine", "compact", "--n", "200", "--policy", "neighborhood",
         "--histograms", "--out", str(out)]
    )
    if code != 0:
        return False, f"exit {code}: {err}"
    recs = _records(out)
    ok = len(recs) == 1 and "result" in recs[0]
    return ok, f"{len(recs)} records"


def probe_generate_n80(work: Path) -> tuple[bool, str]:
    """`qlsat generate --ensemble max-constrained-1sat --n 80`."""
    out = work / "probe-n80.jsonl"
    code, err = _cli(
        ["generate", "--ensemble", "max-constrained-1sat", "--n", "80",
         "--out-dir", str(work / "probe-n80"), "--out", str(out)]
    )
    if code != 0:
        return False, f"exit {code}: {err}"
    return len(_records(out)) == 1, "1 instance written"


def probe_compact_1030(work: Path) -> tuple[bool, str]:
    """compact_run at n = 1030, inside the promised "thousands"."""
    from qlsat import PolicySpec, compact_run

    try:
        p = compact_run(1030, PolicySpec("neighborhood")).p_soln_by_step
    except (ArithmeticError, ValueError) as exc:
        return False, f"{type(exc).__name__}: {exc}"
    ok = all(0.0 <= x <= 1.0 for x in p)
    return ok, f"{len(p) - 1} steps"


def probe_bad_sidecar(work: Path) -> tuple[bool, str]:
    """A `run` batch where one of three JSON sidecars is malformed."""
    batch = work / "probe-sidecar"
    code, err = _cli(
        ["generate", "--out-dir", str(batch), "--ensemble", "prespecified-solution",
         "--n", "8", "--m", "24", "--trials", "3", "--seed", "5",
         "--out", str(work / "probe-sidecar-gen.jsonl")]
    )
    if code != 0:
        return False, f"generate exit {code}: {err}"
    (batch / "inst-00001.json").write_text("{not json\n")
    out = work / "probe-sidecar-run.jsonl"
    cnfs = sorted(str(p) for p in batch.glob("*.cnf"))
    code, err = _cli(["run", *cnfs, "--out", str(out)])
    if code != 0:
        return False, f"run exit {code}: {err}"
    recs = _records(out)
    solved = sum("result" in r for r in recs)
    return len(recs) == 3 and solved >= 2, f"{len(recs)} records, {solved} with results"


PROBES = {
    "compact-sweep": (probe_readme_compact, probe_generate_n80, probe_compact_1030),
    "files-roundtrip": (probe_bad_sidecar,),
}
