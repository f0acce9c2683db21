"""qlsat benchmark: four workloads, end-to-end and per-layer metrics.

One workload, as BENCHMARK.json's command runs it:

    python3 perfbench/run.py --workload full-n20 --seed 0 --seconds 25 --trace 0

Every workload runs in its own single-process child (child.py).  With
``--trace 0`` the end-to-end metrics are measured untraced; set-up is timed
over several fresh children and reported as their median.  With
``--trace 1`` the child splits the seconds between an untraced and a
traced section and the per-layer metrics are reported, with the tracing
overhead.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name the environment, the checks, the known-defect probes and how each
metric was formed.

All four workloads, untraced and traced, in one table:

    python3 perfbench/run.py --all [--seed 0] [--seconds 25] [--out results.json]

Unit tests of the benchmark's own helpers:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import tail

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
WORKLOADS = ("full-n20", "ensemble-small", "compact-sweep", "files-roundtrip")
DEFAULT_SEED = 0
DEFAULT_SECONDS = 25
SETUP_SAMPLES = 5  # set-up-only children per run, plus the workload child
CHILD_TIMEOUT_S = 170
# Single-threaded BLAS to match the workloads' one-thread qlsat runs; this
# stays within nproc on any machine.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {
    "setup_s": "s",
    "trials_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "generate.busy_s": "s/op",
    "generate.calls": "1/op",
    "generate.attempts_per_instance": "ratio",
    "sat.conflict_vector.busy_s": "s/op",
    "sat.n_better_vector.busy_s": "s/op",
    "sat.conflict_vector.calls_per_trial": "1/trial",
    "sat.from_dimacs.busy_s": "s/op",
    "sat.to_dimacs.busy_s": "s/op",
    "phases.phase_schedule.busy_s": "s/op",
    "phases.sign_bytes_held": "B",
    "mixer.apply_u.busy_s": "s/op",
    "mixer.fwht.busy_s": "s/op",
    "mixer.apply_u.calls": "1/op",
    "mixer.apply_u.ns_per_amplitude": "ns",
    "mixer.fwht.bytes_computed": "B/op",
    "engine.run_trial.self_s": "s/op",
    "engine.peak_state_vectors": "count",
    "compact.build_v_scaled.busy_s": "s/op",
    "compact.compact_run.self_s": "s/op",
    "compact.build_share": "ratio",
    "cli.main.self_s": "s/op",
    "cli.emit_bytes": "B/op",
    "fail_ratio": "ratio",
    "trace.overhead": "ratio",
}


class ChildError(RuntimeError):
    pass


def spawn(workload: str, seed: int, seconds: float, trace: int,
          setup_only: bool = False) -> tuple[float, dict | None]:
    """Run child.py; (seconds from start to ready, its JSON result)."""
    cmd = [sys.executable, str(CHILD), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env={**os.environ, **CHILD_ENV})
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or first.strip() != "ready":
        raise ChildError(f"{workload} child exited {proc.returncode}")
    if setup_only:
        return ready_s, None
    lines = out.strip().splitlines()
    if not lines:
        raise ChildError(f"{workload} child printed no result")
    return ready_s, json.loads(lines[-1])


def fail_ratio(res: dict) -> float:
    """Failed ops, gates and probes over those attempted."""
    probes = res["probes"]
    failed = res["failed"] + sum(not ok for _, ok, _ in probes)
    return failed / (res["attempted"] + len(probes))


def end_to_end(res: dict, setups: list[float]) -> tuple[dict, list[str]]:
    """End-to-end metrics of one untraced child, and notes on how they were formed."""
    op_s = res["op_s"]
    t = tail(op_s)
    if t is None:
        # Every run must report every metric; with too few ops for
        # the rule, the slowest op stands in and the note says so.
        tail_s = max(op_s)
        tail_note = f"op_s_tail: undefined for {len(op_s)} ops, reporting the max"
    else:
        tail_s, pct, beyond = t
        tail_note = f"op_s_tail: p{pct:.2f} of {len(op_s)} ops, {beyond} beyond it"
    metrics = {
        "setup_s": statistics.median(setups),
        "trials_per_s": res["trials_per_s"],
        "op_s_p50": statistics.median(op_s),
        "op_s_tail": tail_s,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    notes = [
        f"setup_s: median of {len(setups)} children: "
        + ", ".join(f"{s:.4f}" for s in setups),
        f"trials_per_s: {res['trials_ok']} of {res['trials']} trials checked correct "
        f"in {res['timed_s']:.3f} s of op time",
        f"op_s_p50: median of {len(op_s)} ops",
        tail_note,
        f"fail_ratio: {fail_ratio(res):.4f} (ops, gates and probes)",
    ]
    return metrics, notes


def run_untraced(workload: str, seed: int, seconds: float) -> tuple[dict, dict, list[str]]:
    spawn(workload, seed, seconds, 0, setup_only=True)  # fills bytecode caches
    setups = [spawn(workload, seed, seconds, 0, setup_only=True)[0]
              for _ in range(SETUP_SAMPLES)]
    ready_s, res = spawn(workload, seed, seconds, 0)
    setups.append(ready_s)
    metrics, notes = end_to_end(res, setups)
    return res, metrics, notes


def run_traced(workload: str, seed: int, seconds: float) -> tuple[dict, dict, list[str]]:
    _, res = spawn(workload, seed, seconds, 1)
    traced = res["traced"]
    metrics = dict(traced["layers"])
    metrics["fail_ratio"] = fail_ratio(res)
    notes = [
        f"trace.overhead: trials_per_s {res['trials_per_s']:.4f} untraced, "
        f"{traced['trials_per_s']:.4f} traced",
        "mixer.fwht.bytes_computed: computed from array sizes, not measured",
    ]
    for name, s in traced["sanity"].items():
        if s["per_call_s"]:
            ratio = s["per_call_s"] / s["roadmap_s"]
            flag = "" if 0.5 <= ratio <= 2.0 else "  LARGE GAP"
            notes.append(f"baseline {name}: {s['per_call_s']:.4f} s per call vs "
                         f"ROADMAP {s['roadmap_s']} s (x{ratio:.2f}){flag}")
    return res, metrics, notes


def describe(res: dict) -> list[str]:
    lines = [f"env: {json.dumps(res['env'], sort_keys=True)}"]
    for name, ok, detail in res["gates"]:
        lines.append(f"gate {name}: {'pass' if ok else 'FAIL'} ({detail})")
    for name, ok, detail in res["probes"]:
        lines.append(f"probe {name}: {'pass' if ok else 'FAIL (known defect)'} ({detail})")
    lines.append(f"checks: {res['failure_count']} failures; "
                 f"{res['reference_trials']} reference trials apply to this seed")
    lines += [f"  {f}" for f in res["failures"]]
    return lines


def run_one(args) -> int:
    runner = run_traced if args.trace else run_untraced
    units = PER_LAYER if args.trace else END_TO_END
    res, metrics, notes = runner(args.workload, args.seed, args.seconds)
    for line in describe(res) + notes:
        print(line)
    print(json.dumps({
        "correct": res["failure_count"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


def run_all(args) -> int:
    report = {}
    for workload in WORKLOADS:
        res, e2e, notes = run_untraced(workload, args.seed, args.seconds)
        tres, layers, tnotes = run_traced(workload, args.seed, args.seconds)
        print(f"== {workload} (seed {args.seed}, {args.seconds} s)")
        for line in describe(res) + notes + tnotes:
            print(f"  {line}")
        for k, u in END_TO_END.items():
            print(f"  {k:<36} {e2e[k]:>14.6g} {u}")
        for k, u in PER_LAYER.items():
            print(f"  {k:<36} {layers[k]:>14.6g} {u}")
        report[workload] = {"end_to_end": e2e, "per_layer": layers, "notes": notes + tnotes,
                            "env": res["env"], "probes": res["probes"],
                            "correct": res["failure_count"] == tres["failure_count"] == 0}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0 if all(r["correct"] for r in report.values()) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="with --all, write the report here as JSON")
    args = ap.parse_args(argv)
    if args.all == (args.workload is not None):
        ap.error("give exactly one of --workload and --all")
    try:
        return run_all(args) if args.all else run_one(args)
    except (ChildError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
