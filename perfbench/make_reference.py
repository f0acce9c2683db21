"""Record reference.json: the program's results on the benchmark's default seed.

    python3 perfbench/make_reference.py

Runs the first ops of every workload at the default seed (and every
compact size, which does not depend on the seed) and stores each trial's
``p_soln_by_step`` and ``best_j``.  Rerun it only when a change is meant to
move results; the benchmark compares against these values within 1e-12.
"""

from __future__ import annotations

import json
import shutil
import sys

from child import WORK, import_qlsat
from run import DEFAULT_SEED

OPS = {"full-n20": 3, "ensemble-small": 4, "compact-sweep": 1, "files-roundtrip": 4}


def main() -> int:
    import_qlsat()
    from checks import REFERENCE_PATH
    from workloads import WORKLOADS

    work = WORK / "reference"
    work.mkdir(parents=True, exist_ok=True)
    data = {}
    for name, ops in OPS.items():
        workload = WORKLOADS[name](DEFAULT_SEED, work)
        trials = {}
        for i in range(ops):
            for t in workload.collect(i, workload.run_op(i))[0]:
                trials[t.key] = {"p": t.p, "best_j": t.best_j}
        seed = None if name == "compact-sweep" else DEFAULT_SEED
        data[name] = {"seed": seed, "trials": trials}
        print(f"{name}: {len(trials)} trials", file=sys.stderr)
    shutil.rmtree(work)
    REFERENCE_PATH.write_text(json.dumps(data, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
