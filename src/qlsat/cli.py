"""Command-line front end: generate instances, run trials, sweep, verify.

Subcommands
    generate  write DIMACS instances plus JSON metadata sidecars
    run       evolve instances and emit one result record per instance
    sweep     aggregate costs along an axis (n, or m/n at fixed n)
    verify    self-checks with measured tolerances; nonzero exit on failure

Records are JSON lines by default; --format csv emits the same values as a
flat table.  Every record embeds the resolved configuration, so re-running
with the same flags reproduces the output byte for byte.  Each subcommand
takes only the options it reads, and --k defaults to 1 for 1-SAT (the
compact engine, max-constrained-1sat), else 3.  Every flag is defaulted and
checked before a command runs: a bad one (say a --c-start under the
neighborhood policy, or --threads 0) exits 1 before any trial or file.

``run`` and ``sweep`` share one batch path.  A ``run`` batch is one record
per instance, and an instance that fails (a bad file, a failed inline
draw, a failed trial) becomes an error record without stopping the batch.
Sweep point i is the aggregate of the inline ``run`` batch seeded
``instance_seed_sequence(seed, i)`` with the point's n and m; the point
records the first error of that batch instead.  A compact batch evolves
its shells once: its trials differ only in the planted value, which the
shell dynamics do not read, so a compact ``run`` maps its trials on one
thread.

Environment overrides (flags win, for the commands that take the flag):
QLSAT_SEED, QLSAT_THREADS, QLSAT_FORMAT, QLSAT_FULL_LIMIT, QLSAT_DENSE_LIMIT.

Exit codes: 0 success, 1 usage error (or a closed output pipe, or an
output that cannot be written), 2 verification failure, 3 capacity
exceeded.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import functools
import json
import math
import os
import sys
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import compact as compact_mod
from . import engine as engine_mod
from . import phases as phases_mod
from . import sat as sat_mod
from .checks import DENSE_LIMIT, run_checks
from .generate import (
    ENSEMBLE_KINDS,
    EnsembleSpec,
    backtrack_count,
    backtrack_solve,
    draw_planted,
    generate as generate_instance,
    instance_metadata,
    instance_seed_sequence,
)
from .mixer import MixerSpec
from .phases import PolicySpec
from .sat import CapacityError, DEFAULT_FULL_LIMIT, SatProblem

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_CAPACITY = 3

ENV_PREFIX = "QLSAT_"
FORMATS = ("jsonl", "csv")


class _UsageError(Exception):
    pass


def _env_str(name: str, fallback: str) -> str:
    """A flag's default, left a string: argparse types it only where the flag is read."""
    return os.environ.get(ENV_PREFIX + name) or fallback


def _fraction(flag: str, text: str) -> Fraction:
    """The text of a number flag as an exact Fraction, or a usage error naming the flag."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise _UsageError(f"{flag} takes numbers like 13/4 or 2.5, got {text!r}") from None


def _parse_values(text: str) -> list[Fraction]:
    """Comma list of numbers; a:b:c tokens expand to a, a+c, ... up to b."""
    out: list[Fraction] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if ":" in token:
            fields = token.split(":")
            if len(fields) not in (2, 3):
                raise _UsageError(f"--values has a bad range {token!r}; want start:stop[:step]")
            start, stop = _fraction("--values", fields[0]), _fraction("--values", fields[1])
            step = _fraction("--values", fields[2]) if len(fields) == 3 else Fraction(1)
            if step <= 0:
                raise _UsageError(f"--values range step must be positive, got {fields[2]}")
            v = start
            while v <= stop:
                out.append(v)
                v += step
        else:
            out.append(_fraction("--values", token))
    if not out:
        raise _UsageError("--values lists no value")
    if min(out) < 0:
        raise _UsageError(f"--values must be 0 or more, got {min(out)}")
    return out


def _check_capacity(args: argparse.Namespace, ns) -> None:
    """Refuse a full-engine batch before anything runs if any n is over the limit."""
    if args.engine == "full":
        for n in ns:
            sat_mod.check_full_capacity(n, args.full_limit)


def _map(func, items: list, threads: int) -> list:
    """func over items, in order, on ``threads`` worker threads.

    One thread runs a plain loop: a pool's shutdown would run every queued
    item after Ctrl-C.
    """
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(func, items))
    return [func(item) for item in items]


# --- flags --------------------------------------------------------------------

# The keys of a record's ``config`` in print order, and those of its
# ``policy`` after ``kind`` (the --policy flag).
_CONFIG_KEYS = {
    "run": ("command", "engine", "policy", "seed", "trials", "threads", "full_limit",
            "ensemble", "n", "k", "m", "planted", "histograms"),
    "sweep": ("command", "engine", "axis", "values", "policy", "seed", "trials", "threads",
              "full_limit", "ensemble", "k", "m", "m_ratio", "planted"),
}
_POLICY_KEYS = ("c_start", "n_start", "j_max", "alpha")


def _config(args: argparse.Namespace) -> dict:
    """The flags that reproduce a ``run`` or ``sweep``, as its records echo them."""
    config = {key: getattr(args, key) for key in _CONFIG_KEYS[args.command]}
    config["policy"] = {"kind": args.policy, **{key: getattr(args, key) for key in _POLICY_KEYS}}
    return config


def _check_args(args: argparse.Namespace) -> None:
    """Fill in the flag defaults and refuse bad flags, before any command runs.

    ``run`` and ``sweep`` also get the batch's one PolicySpec as
    ``args.policy_spec``, so a bad policy flag fails the command, not each
    trial.
    """
    if args.command == "verify":  # its checks build n = 2 up to the dense limit
        if args.alpha is not None and not 0 <= args.alpha <= 2:
            raise _UsageError(
                f"--alpha must be 0 to 2 (the checks start at n = 2), got {args.alpha}"
            )
        if args.dense_limit < 2:
            raise _UsageError(f"--dense-limit must be 2 or more, got {args.dense_limit}")
        return
    if args.format not in FORMATS:  # argparse checks choices only of a given flag
        raise _UsageError(f"QLSAT_FORMAT must be one of {', '.join(FORMATS)}, got {args.format!r}")
    out = Path(args.out)
    if args.out != "-" and (out.is_dir() or not out.parent.is_dir()):
        raise _UsageError(f"--out must name a file in an existing directory, got {args.out}")
    out_dir = getattr(args, "out_dir", None)  # generate's; made at its first instance
    if out_dir is not None:
        found = next(p for p in (Path(out_dir), *Path(out_dir).parents) if p.exists())
        if not found.is_dir():
            raise _UsageError(f"--out-dir must be a directory or a path below one, "
                              f"got {out_dir} ({found} is not a directory)")
    files = getattr(args, "instances", None)
    if files:  # files bring their own instances
        given = [f"--{name}" for name in ("trials", "n", "m", "ensemble", "planted")
                 if getattr(args, name) is not None]
        if given:
            raise _UsageError(f"instance files take no inline-batch flag: {', '.join(given)}")
    if args.trials is None:
        args.trials = 1
    for name, least in (("trials", 0), ("j_max", 0), ("alpha", 0), ("threads", 1), ("seed", 0),
                        ("n_start", 0), ("n", 1), ("k", 1), ("m", 0), ("planted", 0),
                        ("full_limit", 1)):
        value = getattr(args, name, None)
        if value is not None and value < least:
            raise _UsageError(f"--{name.replace('_', '-')} must be {least} or more, got {value}")
    m_ratio = getattr(args, "m_ratio", None)
    if m_ratio is not None and not 0 <= m_ratio < math.inf:
        raise _UsageError(f"--m-ratio must be 0 or more and finite, got {m_ratio}")
    compact = getattr(args, "engine", None) == "compact"  # generate has no --engine
    if args.k is None:
        args.k = 1 if compact or args.ensemble == "max-constrained-1sat" else 3
    if args.command != "generate":
        if compact and args.alpha is not None:
            raise _UsageError("--alpha only applies to the full engine")
        if compact and args.k != 1:
            raise _UsageError("the compact engine is 1-SAT only")
        c_start = None if args.c_start is None else _fraction("--c-start", args.c_start)
        if c_start is not None and c_start < 0:
            raise _UsageError(f"--c-start must be 0 or more, got {args.c_start}")
        args.policy_spec = PolicySpec(args.policy, c_start, args.n_start)
    if args.command == "sweep":
        if compact:  # a point is one shell-engine trial, which draws no instance
            if args.ensemble is not None or args.planted is not None:
                raise _UsageError("a compact sweep takes no --ensemble or --planted")
            if args.trials != 1:
                raise _UsageError("a compact sweep runs one trial per point")
        elif args.ensemble is None:
            raise _UsageError("a full-engine sweep needs --ensemble")
        # the axis sets n or m; a sizing flag it does not read is refused
        if args.axis == "n":
            if args.n is not None:
                raise _UsageError("axis n takes n from --values, not --n")
            if args.m is not None and args.m_ratio is not None:
                raise _UsageError("give --m or --m-ratio, not both")
        elif args.n is None:
            raise _UsageError("axis m-over-n needs a fixed --n")
        elif args.m is not None or args.m_ratio is not None:
            raise _UsageError("axis m-over-n takes m from --values, not --m or --m-ratio")
        return
    if compact:
        if files:
            raise _UsageError("the compact engine runs inline planted 1-SAT only")
        args.ensemble = args.ensemble or "max-constrained-1sat"
        if args.ensemble != "max-constrained-1sat":
            raise _UsageError("the compact engine needs --ensemble max-constrained-1sat")
    if not files:  # an inline batch
        if args.ensemble is None:
            raise _UsageError("an inline batch needs --ensemble")
        if args.n is None:
            raise _UsageError("--n is required")
        if args.m is None and args.ensemble != "max-constrained-1sat":
            raise _UsageError("--m is required for this ensemble")
        alpha = getattr(args, "alpha", None)  # generate has no --alpha
        if alpha is not None and alpha > args.n:  # files and sweeps vary n
            raise _UsageError(f"--alpha must be --n ({args.n}) or less, got {alpha}")


# --- record emission ----------------------------------------------------------


def _flat(record: dict, prefix: str = "") -> dict:
    """Dotted-key flattening; lists become semicolon-joined repr values."""
    row: dict[str, str] = {}
    for key, value in record.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            row.update(_flat(value, name + "."))
        elif isinstance(value, (list, tuple)):
            row[name] = ";".join(_scalar(v) for v in value)
        else:
            row[name] = _scalar(value)
    return row


def _scalar(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return "[" + ";".join(_scalar(v) for v in value) + "]"
    return str(value)


def _emit(records: list[dict], fmt: str, out: str) -> None:
    if fmt == "jsonl":
        text = "".join(json.dumps(r) + "\n" for r in records)
    else:
        rows = [_flat(r) for r in records]
        header: list[str] = []
        for row in rows:
            for key in row:
                if key not in header:
                    header.append(key)
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_csv_cell(row.get(k, "")) for k in header))
        text = "\n".join(lines) + "\n" if rows else ""
    if out == "-":
        _write_stdout(text)
    else:
        Path(out).write_text(text)


def _write_stdout(text: str) -> None:
    """Write text to stdout whole, or raise BrokenPipeError if the reader goes.

    An unbuffered stdout (PYTHONUNBUFFERED) is a text layer over the raw
    file, which drops the rest of a short write; so the bytes go to the
    binary layer here, and a short write is followed by another write of
    the rest, which meets the closed pipe as EPIPE.
    """
    stream = sys.stdout
    if not hasattr(stream, "buffer"):  # an in-memory stream takes it all
        stream.write(text)
        return
    stream.flush()
    data = memoryview(text.encode(stream.encoding, stream.errors))
    while data:
        data = data[stream.buffer.write(data) :]


def _csv_cell(value: str) -> str:
    if any(ch in value for ch in ",\"\n"):
        return '"' + value.replace('"', '""') + '"'
    return value


# --- generate -------------------------------------------------------------


def _ensemble_from_args(args: argparse.Namespace, seed: int) -> EnsembleSpec:
    m = args.n if args.m is None else args.m  # only max-constrained-1sat omits --m
    return EnsembleSpec(
        n=args.n, k=args.k, m=m, kind=args.ensemble, seed=seed, planted=args.planted
    )


def cmd_generate(args: argparse.Namespace) -> int:
    out_dir = Path(args.out_dir)
    records = []
    for i in range(args.trials):
        spec = _ensemble_from_args(args, instance_seed_sequence(args.seed, i))
        try:
            inst = generate_instance(spec)
        except RuntimeError as exc:  # a random-soluble budget ran out or was refused
            raise _UsageError(str(exc)) from exc
        if args.count_solutions:
            inst = dataclasses.replace(inst, solution_count=backtrack_count(inst.problem))
        meta = instance_metadata(inst)
        meta["base_seed"] = args.seed
        meta["index"] = i
        soluble = None
        if args.count_solutions:
            soluble = inst.solution_count > 0
        elif inst.planted is not None or spec.kind == "random-soluble":
            soluble = True
        elif args.check_soluble:
            soluble = backtrack_solve(inst.problem) is not None
        meta["soluble"] = soluble
        out_dir.mkdir(parents=True, exist_ok=True)  # not before a first instance
        stem = out_dir / f"inst-{i:05d}"
        stem.with_suffix(".cnf").write_text(sat_mod.to_dimacs(inst.problem))
        stem.with_suffix(".json").write_text(json.dumps(meta, indent=2) + "\n")
        records.append(
            {
                "record": "generated",
                "index": i,
                "path": str(stem.with_suffix(".cnf")),
                "n": spec.n,
                "k": spec.k,
                "m": inst.problem.m,
                "kind": spec.kind,
                "soluble": soluble,
                "solution_count": inst.solution_count,
            }
        )
    _emit(records, args.format, args.out)
    return EXIT_OK


# --- run --------------------------------------------------------------------


def _load_instances(
    args: argparse.Namespace,
) -> list[tuple[dict, SatProblem | EnsembleSpec | None]]:
    """(descriptor, source) pairs: a parsed file or the spec of an inline draw.

    A file that fails to parse gives a descriptor with an ``error``.  Inline
    specs are all built here, so a bad flag fails the batch before any
    trial; the draws happen in ``_run_one``.  A compact batch that names no
    ensemble (a compact sweep point) draws nothing.
    """
    items: list[tuple[dict, SatProblem | EnsembleSpec | None]] = []
    if args.instances:
        for path in args.instances:
            sidecar = Path(path).with_suffix(".json")
            try:
                problem = sat_mod.from_dimacs(Path(path).read_text())
                meta = json.loads(sidecar.read_text()) if sidecar.exists() else None
                if meta is not None and not isinstance(meta, dict):
                    raise ValueError(f"sidecar {sidecar} does not hold a JSON object")
            except (OSError, ValueError) as exc:
                where = f" in {sidecar}" if isinstance(exc, json.JSONDecodeError) else ""
                error = f"{type(exc).__name__}{where}: {exc}"
                items.append(({"source": path, "error": error}, None))
                continue
            desc = {"source": path, "n": problem.n, "k": problem.k, "m": problem.m}
            if meta is not None:
                desc["kind"] = meta.get("kind")
                desc["seed"] = meta.get("seed")
            items.append((desc, problem))
        return items
    for i in range(args.trials):
        desc = {"source": "inline", "index": i, "n": args.n, "k": args.k, "m": args.m}
        spec = None
        if args.ensemble is not None:
            spec = _ensemble_from_args(args, instance_seed_sequence(args.seed, i))
            desc.update(m=spec.m, kind=spec.kind, seed=spec.seed, planted=None)
        items.append((desc, spec))
    return items


def _shell_run(args: argparse.Namespace) -> Callable[[], engine_mod.RunResult]:
    """The one shell-engine result of a compact batch, made by its first trial.

    A compact batch is inline, with one n and one m, and the shell dynamics
    do not read the planted value, so its trials share one result.  A run
    that raises is not cached, so each trial gets the error.
    """
    return functools.cache(lambda: compact_mod.compact_run(
        args.n, args.policy_spec, j_max=args.j_max, m=args.m, record_histograms=args.histograms
    ))


def _run_one(item, args, config, shell_run) -> dict:
    desc, source = item
    record: dict = {"record": "run", "config": config, "instance": desc}
    if "error" in desc:
        record["error"] = desc.pop("error")
        return record
    try:
        if args.engine == "compact":
            if source is not None:  # the shell engine reads only the planted value
                desc["planted"] = draw_planted(source)
            result = shell_run()
        else:
            if isinstance(source, EnsembleSpec):
                inst = generate_instance(source)
                source, desc["planted"] = inst.problem, inst.planted
            result = engine_mod.run_trial(
                source,
                args.policy_spec,
                mixer=MixerSpec(desc["n"], args.alpha),
                j_max=args.j_max,
                record_histograms=args.histograms,
                limit=args.full_limit,
            )
    except CapacityError:
        raise
    except Exception as exc:  # per-instance failures stay in the batch
        record["error"] = f"{type(exc).__name__}: {exc}"
        return record
    record["result"] = {
        "engine": result.engine,
        "steps": result.steps,
        "p_soln_by_step": [float(p) for p in result.p_soln_by_step],
        "best_j": result.best_j,
        "best_cost": None if math.isinf(result.best_cost) else float(result.best_cost),
        "final_p": float(result.p_soln_by_step[-1]),
    }
    if args.histograms:
        record["result"]["histograms"] = [[float(v) for v in h] for h in result.histograms]
    return record


def cmd_run(args: argparse.Namespace) -> int:
    config = _config(args)
    items = _load_instances(args)
    _check_capacity(args, (desc["n"] for desc, _ in items if "error" not in desc))
    shell_run = _shell_run(args)
    threads = 1 if args.engine == "compact" else args.threads  # one shared shell run
    records = _map(lambda item: _run_one(item, args, config, shell_run), items, threads)
    _emit(records, args.format, args.out)
    return EXIT_OK


# --- sweep -------------------------------------------------------------------


def _sweep_points(args: argparse.Namespace) -> list[dict]:
    """The points of the axis, with the n and m of each."""
    values = _parse_values(args.values)
    points = []
    for idx, value in enumerate(values):
        try:
            x = float(value)
        except OverflowError:
            raise _UsageError(f"--values must be inside the float range, got {value}") from None
        if args.axis == "n":
            n = int(value)
            if value != n or n < 1:
                raise _UsageError(f"--values on axis n must be integers 1 or more, got {value}")
            if args.m is not None:
                m = args.m
            elif args.m_ratio is not None:
                m = _clause_count("--m-ratio", args.m_ratio, n)
            else:
                m = n  # planted 1-SAT default: one clause per variable
        else:
            n = args.n
            m = _clause_count("--values", x, n)
        points.append({"index": idx, "axis": args.axis, "value": x, "n": n, "m": m})
    return points


def _clause_count(flag: str, ratio: float, n: int) -> int:
    """round(ratio * n), or a usage error naming the ratio's flag past the float range."""
    try:
        return round(ratio * n)
    except OverflowError:
        raise _UsageError(
            f"{flag} times n must be inside the float range, got {ratio} * {n}"
        ) from None


def _sweep_point_record(point: dict, args: argparse.Namespace, config: dict) -> dict:
    """Fold the inline ``run`` batch of this point into one aggregate record."""
    record = {"record": "sweep-point", "config": config, "point": dict(point)}
    record["point"]["trials"] = args.trials
    batch = argparse.Namespace(**{
        **vars(args),
        "instances": [],
        "seed": instance_seed_sequence(args.seed, point["index"]),
        "n": point["n"],
        "m": point["m"],
        "histograms": False,
    })
    try:
        items = _load_instances(batch)
    except ValueError as exc:  # the point's n and m name no valid ensemble
        record["error"] = f"{type(exc).__name__}: {exc}"
        return record
    results = []
    shell_run = _shell_run(batch)
    for item in items:  # as in a run batch, but the first error ends the point
        run = _run_one(item, batch, config, shell_run)
        if "error" in run:
            record["error"] = run["error"]
            return record
        results.append(run["result"])
    solved = [r for r in results if r["best_j"] is not None]
    costs = [r["best_cost"] for r in solved]
    steps_run = results[-1]["steps"] if results else None
    mean_final = float(np.mean([r["final_p"] for r in results])) if results else None
    record["result"] = {
        "steps": steps_run,
        "solved_trials": len(costs),
        "unsolved_trials": len(results) - len(costs),
        "mean_cost": float(np.mean(costs)) if costs else None,
        "sem_cost": (
            float(np.std(costs, ddof=1) / math.sqrt(len(costs)))
            if len(costs) > 1
            else 0.0 if costs else None
        ),
        "mean_best_j": float(np.mean([r["best_j"] for r in solved])) if solved else None,
        "mean_final_p": mean_final,
        "fixed_step_cost": (steps_run / mean_final) if mean_final else None,
    }
    return record


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _config(args)
    points = _sweep_points(args)
    _check_capacity(args, (point["n"] for point in points))
    records = _map(lambda p: _sweep_point_record(p, args, config), points, args.threads)
    _emit(records, args.format, args.out)
    return EXIT_OK


# --- verify --------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    failed = False
    for name, passed, detail in run_checks(args.alpha, args.dense_limit):
        if passed is None:
            status = "SKIP"
        elif passed:
            status = "PASS"
        else:
            status = "FAIL"
            failed = True
        print(f"{status} {name}: {detail}")
    return EXIT_VERIFY if failed else EXIT_OK


# --- parser --------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qlsat",
        description=__doc__.split("\n\n")[0],
        epilog=(
            "env overrides: QLSAT_SEED QLSAT_THREADS QLSAT_FORMAT "
            "QLSAT_FULL_LIMIT QLSAT_DENSE_LIMIT; "
            "exit codes: 0 ok, 1 usage, 2 verification failure, 3 capacity"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=_env_str("SEED", "0"))
    common.add_argument(
        "--format", choices=FORMATS, default=_env_str("FORMAT", "jsonl")
    )
    common.add_argument("--out", default="-", help="output path, - for stdout")

    ensemble = argparse.ArgumentParser(add_help=False)
    ensemble.add_argument("--n", type=int)
    ensemble.add_argument("--k", type=int, help="literals per clause, default 3")
    ensemble.add_argument("--m", type=int)
    ensemble.add_argument("--ensemble", choices=ENSEMBLE_KINDS)
    ensemble.add_argument("--planted", type=int, help="fixed planted assignment")
    ensemble.add_argument("--trials", type=int, help="default 1")

    policy = argparse.ArgumentParser(add_help=False)
    policy.add_argument(
        "--policy", choices=phases_mod.POLICY_KINDS, default=phases_mod.KIND_SIMPLE
    )
    policy.add_argument("--c-start", help="threshold start, a fraction like 13/4")
    policy.add_argument("--n-start", type=int)
    policy.add_argument("--alpha", type=int, help="mixing split point, default n//2")
    policy.add_argument("--j-max", type=int)
    policy.add_argument("--engine", choices=("full", "compact"), default="full")
    policy.add_argument(
        "--full-limit", type=int, default=_env_str("FULL_LIMIT", str(DEFAULT_FULL_LIMIT))
    )
    policy.add_argument("--threads", type=int, default=_env_str("THREADS", "1"))

    p = sub.add_parser("generate", parents=[common, ensemble], help="write instance files")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--check-soluble", action="store_true")
    p.add_argument("--count-solutions", action="store_true")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("run", parents=[common, ensemble, policy], help="run trials")
    p.add_argument("instances", nargs="*", help="DIMACS files; empty means inline ensemble")
    p.add_argument("--histograms", action="store_true", help="record conflict histograms")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", parents=[common, ensemble, policy], help="cost vs axis")
    p.add_argument("--axis", choices=("n", "m-over-n"), required=True)
    p.add_argument("--values", required=True, help="comma list and/or start:stop:step")
    p.add_argument("--m-ratio", type=float, help="m = round(ratio * n) on the n axis")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="self-checks")
    p.add_argument("--alpha", type=int, help="inject a non-default mixing split")
    p.add_argument(
        "--dense-limit", type=int, default=_env_str("DENSE_LIMIT", str(DENSE_LIMIT)),
        help="largest n for dense comparisons",
    )
    p.set_defaults(func=cmd_verify)
    return parser


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None without it."""
    libs = Path(np.__file__).parents[1] / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(str(path))  # the copy numpy has loaded
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


def main(argv: list[str] | None = None) -> int:
    # one BLAS thread, so the compact engine's and verify's products (and
    # so the bytes printed) do not depend on the size of the thread pool
    blas = _openblas_threads()
    threads = blas[0]() if blas else None
    if blas:
        blas[1](1)
    try:
        args = build_parser().parse_args(argv)
        _check_args(args)
        code = args.func(args)
        sys.stdout.flush()  # so a closed pipe shows here, not at exit
        return code
    except (_UsageError, ValueError) as exc:
        print(f"qlsat: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapacityError as exc:
        print(f"qlsat: capacity: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except BrokenPipeError:
        # the reader has gone: exit 1, as Python does on EPIPE, and point
        # stdout at devnull so the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    except OSError as exc:  # an output file or directory that cannot be written
        print(f"qlsat: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if blas:
            blas[1](threads)


if __name__ == "__main__":
    sys.exit(main())
