"""The benchmark's four workloads.

Each workload turns the benchmark seed into inputs and defines an *op*,
the unit that is timed.  Where a workload mixes input shapes, one op runs
the same number of inputs of every shape, so every op does the same mix of
work.
``run_op`` is the timed call into qlsat's public functions; ``collect``
turns its output into ``Trial`` records afterwards, untimed.

Why these four (the layers each one loads):

* ``full-n20``: 2**20-amplitude vectors (8 MiB each, above the 4 MiB L2),
  where the sat tables, the phase schedule and the FWHT mixer do nearly
  all the work and the held sign vectors set peak memory.
* ``ensemble-small``: thousands of millisecond trials at n = 8..14 in the
  shapes of acceptance criteria 8a and 8b; per-call overhead and instance
  generation dominate, vectors fit in cache.
* ``compact-sweep``: the shell-space engine at n = 100..300, where the
  exact big-integer transform build takes most of the time.
* ``files-roundtrip``: the CLI writing DIMACS instances and sidecars and
  reading them back, with per-step histograms and CSV output.
"""

from __future__ import annotations

import csv
import importlib
import math
from pathlib import Path

import numpy as np

import qlsat.cli
import qlsat.compact
import qlsat.engine
from qlsat import EnsembleSpec, PolicySpec, instance_seed_sequence
from qlsat.sat import from_dimacs

from checks import Trial

# The package re-exports the function generate() under the submodule's name.
generate_mod = importlib.import_module("qlsat.generate")

SIMPLE, NEIGHBORHOOD = "simple-threshold", "neighborhood"


def _trial(key: str, n: int, result, **extra) -> Trial:
    return Trial(key, n, [float(p) for p in result.p_soln_by_step], result.best_j,
                 result.best_cost, **extra)


class FullN20:
    """Soluble random 3-SAT at n = 20, m = 80; one op is one instance per policy.

    The two policies' trial times form two clusters; an op that runs one
    instance under each keeps the op-time distribution unimodal.
    """

    name = "full-n20"
    state_entries = 1 << 20
    # ROADMAP open item 1, n = 20 row: seconds per call when it was measured.
    baseline_per_call = {
        "sat.conflict_vector": 0.32,
        "sat.n_better_vector": 0.77,
        "mixer.apply_u": 0.25,
    }

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.policies = [PolicySpec(SIMPLE), PolicySpec(NEIGHBORHOOD)]

    def run_op(self, i: int):
        out = []
        for k, policy in enumerate(self.policies):
            index = 2 * i + k
            spec = EnsembleSpec(n=20, k=3, m=80, kind="random-soluble",
                                seed=instance_seed_sequence(self.seed, index))
            problem = generate_mod.generate(spec).problem
            out.append((index, problem, qlsat.engine.run_trial(problem, policy)))
        return out

    def collect(self, i: int, out) -> tuple[list[Trial], int]:
        return [_trial(str(index), 20, result, problem=problem)
                for index, problem, result in out], 0


class EnsembleSmall:
    """Criterion 8a and 8b shapes; one op is five instances of every shape.

    An op of one millisecond trial would give a multimodal op-time
    distribution (one cluster per shape), and an op that short sits wholly
    inside one speed phase of a shared host, so its median jumps from run to
    run.  Five rounds of all eleven shapes make a ~0.3 s op.
    """

    name = "ensemble-small"
    rounds = 5
    state_entries = 1 << 14

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.shapes = [
            ("random-soluble", n, 4 * n, PolicySpec(SIMPLE)) for n in range(8, 15)
        ] + [
            ("prespecified-solution", 10, 10 * r, PolicySpec(NEIGHBORHOOD))
            for r in range(3, 7)
        ]

    def run_op(self, i: int):
        out = []
        first = i * self.rounds * len(self.shapes)
        for offset in range(self.rounds * len(self.shapes)):
            kind, n, m, policy = self.shapes[offset % len(self.shapes)]
            index = first + offset
            spec = EnsembleSpec(n=n, k=3, m=m, kind=kind,
                                seed=instance_seed_sequence(self.seed, index))
            problem = generate_mod.generate(spec).problem
            out.append((index, problem, qlsat.engine.run_trial(problem, policy)))
        return out

    def collect(self, i: int, out) -> tuple[list[Trial], int]:
        return [_trial(str(index), problem.n, result, problem=problem)
                for index, problem, result in out], 0


class CompactSweep:
    """One op is compact_run at each n = 100, 150, ..., 300, in a seeded order.

    The build takes 80-95% of every one of these calls.  Sizes up to
    n = 1000 would make a 6-9 s sweep, three or four to a run: too few ops for
    a steady rate or any tail.  A sweep up to n = 300 takes 0.3-0.6 s, so a
    run holds 40 to 70.
    """

    name = "compact-sweep"
    sizes = (100, 150, 200, 250, 300)
    state_entries = sizes[-1] + 1

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.policy = PolicySpec(NEIGHBORHOOD)

    def run_op(self, i: int):
        rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(i,)))
        return [(int(n), qlsat.compact.compact_run(int(n), self.policy))
                for n in rng.permutation(self.sizes)]

    def collect(self, i: int, out) -> tuple[list[Trial], int]:
        return [_trial(f"n{n}", n, result, solutions=1) for n, result in out], 0


class FilesRoundtrip:
    """`qlsat generate` a batch to files, then `qlsat run` them back as CSV.

    Batches of 50 make a ~0.3 s op, for the same reason as ensemble-small.
    """

    name = "files-roundtrip"
    batch = 50
    state_entries = 1 << 10

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.dir = work / "instances"
        self.gen_out = work / "generated.jsonl"
        self.run_out = work / "results.csv"

    def run_op(self, i: int):
        gen = qlsat.cli.main([
            "generate", "--out-dir", str(self.dir), "--ensemble", "prespecified-solution",
            "--n", "10", "--m", "40", "--trials", str(self.batch),
            "--seed", str(instance_seed_sequence(self.seed, i)), "--out", str(self.gen_out),
        ])
        files = sorted(str(p) for p in self.dir.glob("*.cnf"))
        run = qlsat.cli.main([
            "run", *files, "--policy", "neighborhood", "--histograms", "--format", "csv",
            "--threads", "1", "--out", str(self.run_out),
        ])
        if gen or run:
            raise RuntimeError(f"generate exited {gen}, run exited {run}")
        return None

    def collect(self, i: int, out) -> tuple[list[Trial], int]:
        emitted = self.gen_out.stat().st_size + self.run_out.stat().st_size
        with self.run_out.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != self.batch:
            raise RuntimeError(f"{len(rows)} records for a batch of {self.batch}")
        trials = []
        for j, row in enumerate(rows):
            if row.get("error"):
                raise RuntimeError(f"record {j}: {row['error']}")
            problem = from_dimacs(Path(row["instance.source"]).read_text())
            best_j = row["result.best_j"]
            best_cost = row["result.best_cost"]
            trials.append(Trial(
                f"{i}.{j}", problem.n,
                [float(v) for v in row["result.p_soln_by_step"].split(";")],
                int(best_j) if best_j else None,
                float(best_cost) if best_cost else math.inf,
                problem=problem,
            ))
        return trials, emitted


WORKLOADS = {w.name: w for w in (FullN20, EnsembleSmall, CompactSweep, FilesRoundtrip)}
