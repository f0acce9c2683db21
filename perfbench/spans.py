"""In-memory span tracer that wraps qlsat's public functions from outside.

Each traced function is rebound at every place it is reachable: the module
that defines it and every other loaded ``qlsat`` module that imported the
same object (``qlsat.engine.conflict_vector``, ``qlsat.cli.generate_instance``
and so on).  Calls through any of those names then record a span

    (name, start, end, parent, op, size)

where ``parent`` is the index of the enclosing span (-1 at top level) and
``op`` is the benchmark operation in progress.  ``size`` is an optional
work count taken from the call (amplitudes per transform, bytes of signs
held).  Spans stay in a list until the run ends; nothing is written while
the workload runs.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import asdict, dataclass


def _state_len(args, kwargs, result):
    return len(args[1])


def _vector_len(args, kwargs, result):
    return len(args[0])


def _signs_bytes(args, kwargs, result):
    return sum(a.nbytes for a in result)


def _uses_gen_random(args, kwargs, result):
    return int(args[0].kind in ("random", "random-soluble"))


# (module, function, size extractor); a span is named "<layer>.<function>"
# with the layer being the module's last name.
TRACED = (
    ("qlsat.generate", "generate", _uses_gen_random),
    ("qlsat.generate", "gen_random", None),
    ("qlsat.generate", "backtrack_solve", None),
    ("qlsat.sat", "conflict_vector", None),
    ("qlsat.sat", "n_better_vector", None),
    ("qlsat.sat", "from_dimacs", None),
    ("qlsat.sat", "to_dimacs", None),
    ("qlsat.phases", "phase_schedule", _signs_bytes),
    ("qlsat.mixer", "apply_u", _state_len),
    ("qlsat.mixer", "fwht", _vector_len),
    ("qlsat.engine", "run_trial", None),
    ("qlsat.compact", "compact_run", None),
    ("qlsat.compact", "build_v_scaled", None),
    ("qlsat.cli", "main", None),
)


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int
    size: int | None = None


class Tracer:
    """Records spans for the functions in TRACED while installed."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, size_of):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)  # reserve the slot so a parent precedes its children
            parent = stack[-1] if stack else -1
            stack.append(index)
            size = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                end = clock()
                if size_of is not None:
                    size = size_of(args, kwargs, result)
                return result
            except BaseException:
                end = clock()
                raise
            finally:
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.op, size)

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, _, _ in TRACED:
            importlib.import_module(module_name)
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "qlsat"]
        for module_name, attr, size_of in TRACED:
            original = getattr(sys.modules[module_name], attr)
            name = f"{module_name.split('.')[-1]}.{attr}"
            wrapper = self._wrap(name, original, size_of)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._saved):
            setattr(module, key, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out
