"""Tests of the benchmark's own helpers: python3 -m pytest perfbench"""

import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

from child import import_qlsat

import_qlsat()

import qlsat.engine  # noqa: E402
import qlsat.sat  # noqa: E402
from qlsat import EnsembleSpec, PolicySpec, generate, run_trial  # noqa: E402
from qlsat.generate import backtrack_count  # noqa: E402

import run  # noqa: E402
from checks import Trial, check_trial, recompute_best  # noqa: E402
from metrics import layer_metrics, tail  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402


def test_tail_is_highest_percentile_with_ten_beyond():
    values = [float(v) for v in range(1000, 0, -1)]
    assert tail(values) == (990.0, 99.0, 10)
    value, pct, beyond = tail([float(v) for v in range(11)])
    assert (value, beyond) == (0.0, 10)
    assert pct == pytest.approx(100 / 11)


def test_tail_is_undefined_with_ten_or_fewer():
    assert tail([1.0] * 10) is None


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.inner", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 7.0, 0, 0),
    ]
    assert self_times(spans) == [5.0, 2.0, 1.0, 2.0]


def test_layer_metrics_from_synthetic_spans():
    spans = [
        Span("phases.phase_schedule", 0.0, 1.0, -1, 0, size=800),
        Span("phases.phase_schedule", 1.0, 2.0, -1, 1, size=1600),
        Span("mixer.apply_u", 2.0, 3.0, -1, 1, size=8),
        Span("mixer.fwht", 2.0, 2.5, 2, 1, size=8),
    ]
    m = layer_metrics(spans, ops=2)
    assert m["phases.sign_bytes_held"] == 1600
    assert m["mixer.fwht.bytes_computed"] == 16 * 8 * 3 / 2
    assert m["mixer.apply_u.busy_s"] == pytest.approx(0.25)
    assert m["mixer.apply_u.ns_per_amplitude"] == pytest.approx(1e9 / 8)


def _small_problem(seed=3):
    spec = EnsembleSpec(n=8, k=3, m=32, kind="random-soluble", seed=seed)
    return generate(spec).problem


@pytest.mark.parametrize("kind, calls", [("simple-threshold", 2), ("neighborhood", 3)])
def test_tracer_wraps_every_import_site_and_restores(kind, calls):
    problem = _small_problem()
    original = qlsat.sat.conflict_vector
    with Tracer() as tracer:
        assert qlsat.engine.conflict_vector is not original
        qlsat.engine.run_trial(problem, PolicySpec(kind))
    assert qlsat.engine.conflict_vector is original
    names = [s.name for s in tracer.spans]
    assert names.count("engine.run_trial") == 1
    assert names.count("sat.conflict_vector") == calls
    root = names.index("engine.run_trial")
    assert all(s.parent >= root for s in tracer.spans[root + 1:])
    m = layer_metrics(tracer.spans, ops=1)
    assert m["sat.conflict_vector.calls_per_trial"] == calls


def _trial(problem, kind="neighborhood"):
    result = run_trial(problem, PolicySpec(kind))
    return Trial("0", problem.n, list(result.p_soln_by_step), result.best_j,
                 result.best_cost, problem=problem)


def test_checker_accepts_the_programs_result():
    problem = _small_problem()
    trial = _trial(problem)
    ref = {"p": list(trial.p), "best_j": trial.best_j}
    assert check_trial(trial, backtrack_count(problem), ref) == []


def test_checker_rejects_result_perturbed_by_1e9():
    problem = _small_problem()
    trial = _trial(problem)
    solutions = backtrack_count(problem)
    shifted = replace(trial, p=[p + 1e-9 for p in trial.p])
    assert check_trial(shifted, solutions)
    best = list(trial.p)
    best[trial.best_j] += 1e-9
    assert check_trial(replace(trial, p=best), solutions)
    ref = {"p": list(trial.p), "best_j": trial.best_j}
    other = next(j for j in range(1, len(trial.p)) if j != trial.best_j)
    moved = list(trial.p)
    moved[other] -= 1e-9
    assert check_trial(replace(trial, p=moved), solutions, ref)


def test_checker_rejects_probability_outside_unit_interval():
    trial = Trial("0", 1, [0.5, 1.5], 1, 1 / 1.5)
    assert any("[0, 1]" in e for e in check_trial(trial, 1))


def test_recompute_best_prefers_smaller_step_on_ties():
    assert recompute_best([0.1, 0.5, 1.0]) == (1, 2.0)
    assert recompute_best([0.0, 0.0]) == (None, math.inf)


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((Path(run.__file__).parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
