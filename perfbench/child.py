"""Run one workload in this process and print its raw measurements.

    python3 perfbench/child.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

The child imports qlsat from the ``src`` directory next to this one, builds
the workload's inputs, prints ``ready`` and then:

1. runs ops untraced until ``--seconds`` have passed, timing each op and
   reading peak RSS at the end;
2. with ``--trace 1``, gives that section half of ``--seconds`` and the
   other half to ops with every public qlsat function wrapped (see
   spans.py), and derives the per-layer metrics from the spans;
3. checks every trial of both sections, runs the correctness gates and
   the known-defect probes, all untimed;
4. prints one JSON object with everything as the last line.

``--setup-only`` stops after ``ready``; the parent times several such
children to measure set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
FAILURES_SHOWN = 20


def import_qlsat():
    """Import qlsat from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(ROOT / "src"))
    import qlsat

    found = Path(qlsat.__file__).resolve().parent
    if found != ROOT / "src" / "qlsat":
        raise ImportError(f"qlsat imported from {found}, not from {ROOT / 'src'}")
    return qlsat


def current_rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_section(workload, seconds: float, first_op: int, reference: dict,
                tracer=None) -> dict:
    """Ops, one after another, until ``seconds`` of wall time have passed.

    Each op's trials are checked as soon as the op's timer stops, so the
    section keeps only counts and peak RSS reflects the program, not a
    growing list of results.  An op fails if it raises or if any of its
    trials fails a check.
    """
    from checks import check_trials

    op_s, failures = [], []
    failed_ops = trials = trials_ok = emitted = 0
    i = first_op
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            out = workload.run_op(i)
        except Exception as exc:  # a failed op is counted, never dropped
            out = exc
        op_s.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.op = None
        try:
            if isinstance(out, Exception):
                raise out
            op_trials, nbytes = workload.collect(i, out)
            passed, msgs = check_trials(op_trials, reference)
        except Exception as exc:
            failed_ops += 1
            failures.append(f"op {i}: {type(exc).__name__}: {exc}")
        else:
            emitted += nbytes
            trials += len(op_trials)
            trials_ok += passed
            failed_ops += passed < len(op_trials)
            failures.extend(msgs)
        i += 1
    timed_s = sum(op_s)
    return {"op_s": op_s, "ops": len(op_s), "failed_ops": failed_ops,
            "trials": trials, "trials_ok": trials_ok, "timed_s": timed_s,
            "trials_per_s": trials_ok / timed_s, "failures": failures,
            "emitted": emitted, "next_op": i}


def read_file(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = read_file(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = read_file(ROOT / ".git" / ref)
    if direct:
        return direct
    packed = read_file(ROOT / ".git" / "packed-refs") or ""
    for line in packed.splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def environment(workload) -> dict:
    import numpy as np

    cpu = None
    for line in (read_file("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "qlsat_threads": 1,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "l2": read_file("/sys/devices/system/cpu/cpu0/cache/index2/size"),
        "l3": read_file("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "state_vector_bytes": 8 * workload.state_entries,
    }


def traced_section(workload, seconds, first_op, reference, rss_info) -> tuple[dict, dict]:
    from metrics import layer_metrics, per_call
    from spans import Tracer

    with Tracer() as tracer:
        section = run_section(workload, seconds, first_op, reference, tracer)
    ops = section["ops"]
    layers = layer_metrics([sp for sp in tracer.spans if sp.op is not None], ops)
    layers["cli.emit_bytes"] = section["emitted"] / ops
    layers.update(rss_info)
    WORK.mkdir(exist_ok=True)
    tracer.write(WORK / f"spans-{workload.name}-seed{workload.seed}.jsonl")
    sanity = {
        name: {"per_call_s": per_call(tracer.spans, name), "roadmap_s": base}
        for name, base in getattr(workload, "baseline_per_call", {}).items()
    }
    return section, {"layers": layers, "sanity": sanity}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import_qlsat()
    from workloads import WORKLOADS

    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir()
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        print("ready", flush=True)
        if not args.setup_only:
            print(json.dumps(measure(workload, args, work)), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def measure(workload, args, work: Path) -> dict:
    from checks import PROBES, compact_matches_full, load_reference

    reference = load_reference(workload.name, args.seed)
    post_setup = current_rss_mb()
    # A traced run measures no longer than an untraced one.
    section_s = args.seconds / 2 if args.trace else args.seconds
    untraced = run_section(workload, section_s, 0, reference)
    peak = peak_rss_mb()
    rss_info = {
        "engine.peak_state_vectors":
            (peak - post_setup) * 2**20 / (8 * workload.state_entries),
    }

    traced = None
    sections = [untraced]
    if args.trace:
        section, traced = traced_section(
            workload, section_s, untraced["next_op"], reference, rss_info
        )
        sections.append(section)

    gates = []
    if workload.name == "compact-sweep":
        gates.append(("compact-matches-full-n16", *compact_matches_full(args.seed)))
    probes = [(p.__name__, *p(work)) for p in PROBES.get(workload.name, ())]

    failures = [f for s in sections for f in s["failures"]]
    failures += [f"gate {n}: {d}" for n, ok, d in gates if not ok]
    if traced is not None:
        base = untraced["trials_per_s"]
        traced["trials_per_s"] = sections[1]["trials_per_s"]
        traced["layers"]["trace.overhead"] = 1.0 - traced["trials_per_s"] / base if base else 0.0

    return {
        "workload": workload.name,
        "seed": args.seed,
        "ops": untraced["ops"],
        "op_s": untraced["op_s"],
        "trials": untraced["trials"],
        "trials_ok": untraced["trials_ok"],
        "timed_s": untraced["timed_s"],
        "trials_per_s": untraced["trials_per_s"],
        "peak_rss_mb": peak,
        "post_setup_rss_mb": post_setup,
        "reference_trials": len(reference),
        "attempted": sum(s["ops"] for s in sections) + len(gates),
        "failed": sum(s["failed_ops"] for s in sections) + sum(not ok for _, ok, _ in gates),
        "probes": probes,
        "gates": gates,
        "failures": failures[:FAILURES_SHOWN],
        "failure_count": len(failures),
        "traced": traced,
        "env": environment(workload),
    }


if __name__ == "__main__":
    sys.exit(main())
