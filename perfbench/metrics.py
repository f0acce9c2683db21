"""Summary statistics and per-layer metrics computed from spans.

Busy times are self times (a span's duration minus its child spans) summed
per function and divided by the number of ops, so they read as seconds per
op.  ``mixer.fwht.bytes_computed`` is computed from the array sizes, not
measured: a radix-2 pass over N float64 values reads and writes the vector
once, 16 * N bytes, and a transform makes log2(N) passes.  No bandwidth is
derived from it: the largest vectors (8 MiB at n = 20) sit far below four
times the last-level cache, so the bytes mostly move within caches.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from spans import Span, self_times

TAIL_BEYOND = 10


def tail(values: list[float]) -> tuple[float, float, int] | None:
    """Highest percentile with at least TAIL_BEYOND values above it.

    Returns (value, percentile, count above), or None when there are too
    few values for the rule to name any percentile.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        return None
    ordered = sorted(values)
    rank = n - TAIL_BEYOND  # 1-based rank of the value reported
    return ordered[rank - 1], 100.0 * rank / n, TAIL_BEYOND


GENERATE_SPANS = ("generate.generate", "generate.gen_random", "generate.backtrack_solve")


def layer_metrics(spans: list[Span], ops: int) -> dict[str, float]:
    """Per-layer metrics of one traced section of ``ops`` ops."""
    selfs = self_times(spans)
    busy: dict[str, float] = defaultdict(float)
    total: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    size: dict[str, int] = defaultdict(int)
    size_max: dict[str, int] = defaultdict(int)
    fwht_bytes = 0
    for span, self_s in zip(spans, selfs):
        busy[span.name] += self_s
        total[span.name] += span.end - span.start
        calls[span.name] += 1
        if span.size is not None:
            size[span.name] += span.size
            size_max[span.name] = max(size_max[span.name], span.size)
            if span.name == "mixer.fwht":
                fwht_bytes += 16 * span.size * (span.size.bit_length() - 1)

    def per_op(x: float) -> float:
        return x / ops

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    return {
        "generate.busy_s": per_op(sum(busy[k] for k in GENERATE_SPANS)),
        "generate.calls": per_op(calls["generate.generate"]),
        "generate.attempts_per_instance": ratio(
            calls["generate.gen_random"], size["generate.generate"]
        ),
        "sat.conflict_vector.busy_s": per_op(busy["sat.conflict_vector"]),
        "sat.n_better_vector.busy_s": per_op(busy["sat.n_better_vector"]),
        "sat.conflict_vector.calls_per_trial": ratio(
            calls["sat.conflict_vector"], calls["engine.run_trial"]
        ),
        "sat.from_dimacs.busy_s": per_op(busy["sat.from_dimacs"]),
        "sat.to_dimacs.busy_s": per_op(busy["sat.to_dimacs"]),
        "phases.phase_schedule.busy_s": per_op(busy["phases.phase_schedule"]),
        "phases.sign_bytes_held": float(size_max["phases.phase_schedule"]),
        "mixer.apply_u.busy_s": per_op(busy["mixer.apply_u"]),
        "mixer.fwht.busy_s": per_op(busy["mixer.fwht"]),
        "mixer.apply_u.calls": per_op(calls["mixer.apply_u"]),
        "mixer.apply_u.ns_per_amplitude": 1e9 * ratio(
            total["mixer.apply_u"], size["mixer.apply_u"]
        ),
        "mixer.fwht.bytes_computed": per_op(fwht_bytes),
        "engine.run_trial.self_s": per_op(busy["engine.run_trial"]),
        "compact.build_v_scaled.busy_s": per_op(busy["compact.build_v_scaled"]),
        "compact.compact_run.self_s": per_op(busy["compact.compact_run"]),
        "compact.build_share": ratio(
            total["compact.build_v_scaled"], total["compact.compact_run"]
        ),
        "cli.main.self_s": per_op(busy["cli.main"]),
    }


def per_call(spans: list[Span], name: str) -> float:
    """Mean inclusive duration of one call of ``name``."""
    times = [s.end - s.start for s in spans if s.name == name]
    return sum(times) / len(times) if times else 0.0
