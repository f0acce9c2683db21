"""Command-line behavior: records, formats, determinism, exit codes."""

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
import weakref

from pathlib import Path

import numpy as np
import pytest

import qlsat.cli
import qlsat.compact
import qlsat.engine
import qlsat.mixer
from qlsat.checks import run_checks
from qlsat.cli import build_parser, main
from qlsat.generate import ENSEMBLE_KINDS, EnsembleSpec, generate, instance_seed_sequence
from qlsat.sat import from_dimacs

from oracles import count_conflicts

REFERENCE_CNF = "p cnf 2 2\n-1 0\n-2 0\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def jsonl(out: str) -> list[dict]:
    return [json.loads(line) for line in out.splitlines() if line]


def test_generate_two_variable_reference_files(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "generate",
        "--out-dir", str(tmp_path),
        "--ensemble", "max-constrained-1sat",
        "--n", "2",
        "--planted", "0",
    )
    assert code == 0
    assert (tmp_path / "inst-00000.cnf").read_text() == REFERENCE_CNF
    meta = json.loads((tmp_path / "inst-00000.json").read_text())
    assert meta["kind"] == "max-constrained-1sat"
    assert meta["planted"] == 0
    assert meta["generator"] == "numpy-pcg64"
    (record,) = jsonl(out)
    assert record["record"] == "generated"
    assert record["soluble"] is True
    assert record["solution_count"] == 1


def test_generate_is_reproducible_byte_for_byte(tmp_path, capsys):
    args = ["generate", "--ensemble", "random", "--n", "7", "--m", "21",
            "--trials", "3", "--seed", "12"]
    code_a, out_a, _ = run_cli(capsys, *args, "--out-dir", str(tmp_path / "a"))
    code_b, out_b, _ = run_cli(capsys, *args, "--out-dir", str(tmp_path / "b"))
    assert code_a == code_b == 0
    for i in range(3):
        name = f"inst-{i:05d}"
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        assert (a_dir / f"{name}.cnf").read_bytes() == (b_dir / f"{name}.cnf").read_bytes()
        assert (a_dir / f"{name}.json").read_bytes() == (b_dir / f"{name}.json").read_bytes()
    # summary records differ only in the embedded paths
    for rec_a, rec_b in zip(jsonl(out_a), jsonl(out_b)):
        rec_a.pop("path"), rec_b.pop("path")
        assert rec_a == rec_b


def test_generate_check_soluble_flag(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "generate", "--out-dir", str(tmp_path),
        "--ensemble", "random", "--n", "6", "--m", "12",
        "--trials", "2", "--check-soluble",
    )
    assert code == 0
    for record in jsonl(out):
        assert record["soluble"] in (True, False)


def test_run_inline_records(capsys):
    code, out, _ = run_cli(
        capsys,
        "run", "--ensemble", "random-soluble",
        "--n", "6", "--m", "18", "--trials", "3", "--seed", "5",
    )
    assert code == 0
    records = jsonl(out)
    assert len(records) == 3
    for i, record in enumerate(records):
        assert record["record"] == "run"
        assert record["config"]["seed"] == 5
        assert record["config"]["engine"] == "full"
        assert record["config"]["policy"]["kind"] == "simple-threshold"
        assert record["instance"]["index"] == i
        result = record["result"]
        assert result["engine"] == "full"
        assert len(result["p_soln_by_step"]) == result["steps"] + 1
        assert result["final_p"] == result["p_soln_by_step"][-1]
        # soluble ensemble: a best step exists and matches the trace
        costs = [
            j / p
            for j, p in enumerate(result["p_soln_by_step"])
            if j >= 1 and p > 0
        ]
        assert result["best_cost"] == pytest.approx(min(costs), rel=1e-12)


def test_run_is_deterministic(capsys):
    args = ["run", "--ensemble", "random", "--n", "8", "--m", "24", "--trials", "2",
            "--seed", "3", "--policy", "neighborhood"]
    code_a, out_a, _ = run_cli(capsys, *args)
    code_b, out_b, _ = run_cli(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b


def test_csv_projection_matches_jsonl(capsys):
    args = ["run", "--ensemble", "random-soluble", "--n", "6", "--m", "12",
            "--trials", "2", "--seed", "8"]
    _, out_json, _ = run_cli(capsys, *args)
    code, out_csv, _ = run_cli(capsys, *args, "--format", "csv")
    assert code == 0
    lines = out_csv.splitlines()
    header = lines[0].split(",")
    assert header[0] == "record"
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    records = jsonl(out_json)
    assert len(rows) == len(records)
    for row, record in zip(rows, records):
        assert float(row["result.best_cost"]) == record["result"]["best_cost"]
        assert int(row["result.best_j"]) == record["result"]["best_j"]
        trace = [float(v) for v in row["result.p_soln_by_step"].split(";")]
        assert trace == record["result"]["p_soln_by_step"]
        assert row["config.ensemble"] == "random-soluble"
        assert row["config.policy.c_start"] == ""


def test_run_zero_trials_emits_nothing(capsys):
    code, out, err = run_cli(
        capsys, "run", "--ensemble", "random", "--n", "5", "--m", "10", "--trials", "0"
    )
    assert code == 0
    assert out == ""
    assert err == ""


def test_run_from_files_matches_inline(tmp_path, capsys):
    common = ["--ensemble", "random-soluble", "--n", "7", "--m", "21", "--seed", "31"]
    code, _, _ = run_cli(
        capsys, "generate", "--out-dir", str(tmp_path), *common, "--trials", "2"
    )
    assert code == 0
    paths = sorted(str(p) for p in tmp_path.glob("*.cnf"))
    code, out_files, _ = run_cli(capsys, "run", *paths, "--policy", "neighborhood")
    assert code == 0
    code, out_inline, _ = run_cli(
        capsys, "run", *common, "--trials", "2", "--policy", "neighborhood"
    )
    assert code == 0
    from_files = jsonl(out_files)
    inline = jsonl(out_inline)
    assert [r["instance"]["source"] for r in from_files] == paths
    for rec_f, rec_i in zip(from_files, inline):
        assert rec_f["result"] == rec_i["result"]


def test_run_keeps_going_past_a_bad_file(tmp_path, capsys):
    good = tmp_path / "good.cnf"
    good.write_text(REFERENCE_CNF)
    bad = tmp_path / "bad.cnf"
    bad.write_text("p cnf 2 2\n-1 0\n")
    code, out, _ = run_cli(capsys, "run", str(bad), str(good))
    assert code == 0
    records = jsonl(out)
    assert "error" in records[0] and "result" not in records[0]
    assert records[1]["result"]["best_j"] == 1
    assert records[1]["result"]["best_cost"] == pytest.approx(1.0, abs=1e-12)


def test_run_keeps_going_past_a_malformed_sidecar(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys,
        "generate", "--out-dir", str(tmp_path), "--ensemble", "prespecified-solution",
        "--n", "8", "--m", "24", "--trials", "3", "--seed", "5",
    )
    assert code == 0
    (tmp_path / "inst-00001.json").write_text("{not json\n")
    paths = sorted(str(p) for p in tmp_path.glob("*.cnf"))
    code, out, _ = run_cli(capsys, "run", *paths)
    assert code == 0
    records = jsonl(out)
    assert [r["instance"]["source"] for r in records] == paths
    assert "JSONDecodeError" in records[1]["error"] and "result" not in records[1]
    assert "inst-00001.json" in records[1]["error"]
    for record in (records[0], records[2]):
        assert "error" not in record
        assert record["instance"]["kind"] == "prespecified-solution"
        assert record["result"]["steps"] >= 1


def test_run_keeps_going_past_a_sidecar_that_holds_no_object(tmp_path, capsys):
    for name in ("a", "b"):
        (tmp_path / f"{name}.cnf").write_text(REFERENCE_CNF)
    (tmp_path / "a.json").write_text("[1, 2]\n")
    code, out, _ = run_cli(capsys, "run", str(tmp_path / "a.cnf"), str(tmp_path / "b.cnf"))
    assert code == 0
    bad, good = jsonl(out)
    assert bad["error"] == f"ValueError: sidecar {tmp_path / 'a.json'} does not hold a JSON object"
    assert "result" not in bad and good["result"]["best_j"] == 1


def test_run_compact_engine_at_the_readme_size(capsys):
    code, out, _ = run_cli(
        capsys,
        "run", "--engine", "compact", "--n", "200", "--policy", "neighborhood",
        "--histograms",
    )
    assert code == 0
    (record,) = jsonl(out)
    assert record["instance"]["n"] == 200
    assert record["instance"]["planted"] >= 0
    result = record["result"]
    assert result["steps"] == 101
    assert len(result["histograms"]) == 102
    assert all(0.0 <= p <= 1.0 for p in result["p_soln_by_step"])


@pytest.mark.parametrize("threads", ["1", "2"])
def test_a_compact_batch_evolves_its_shells_once(capsys, monkeypatch, threads):
    argv = ["run", "--engine", "compact", "--n", "60", "--policy", "neighborhood", "--histograms"]
    compact_run, calls = qlsat.compact.compact_run, []

    def counted(*args, **kwargs):
        calls.append(args)
        return compact_run(*args, **kwargs)

    monkeypatch.setattr(qlsat.compact, "compact_run", counted)
    code, out, _ = run_cli(capsys, *argv, "--trials", "5", "--threads", threads)
    assert code == 0 and len(calls) == 1
    records = jsonl(out)
    # each record holds the planted value of its own seed and the result
    # of a single-trial run
    for i, record in enumerate(records):
        spec = EnsembleSpec(
            n=60, k=1, m=60, kind="max-constrained-1sat", seed=instance_seed_sequence(0, i)
        )
        assert record["instance"]["planted"] == generate(spec).planted
        code, single, _ = run_cli(capsys, *argv, "--seed", str(i), "--threads", threads)
        (want,) = jsonl(single)
        assert record["result"] == want["result"]
    assert len({r["instance"]["planted"] for r in records}) == 5
    # the same bytes as a batch that runs every trial
    monkeypatch.setattr(qlsat.cli, "_shell_run", lambda args: lambda: compact_run(
        args.n, args.policy_spec, j_max=args.j_max, m=args.m, record_histograms=args.histograms))
    code, every, _ = run_cli(capsys, *argv, "--trials", "5", "--threads", threads)
    assert code == 0 and every == out


def test_a_compact_batch_of_no_trials_makes_no_shell_run(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a batch of no trials ran the shell engine")

    monkeypatch.setattr(qlsat.compact, "compact_run", refuse)
    code, out, err = run_cli(capsys, "run", "--engine", "compact", "--n", "30", "--trials", "0")
    assert (code, out, err) == (0, "", "")


@pytest.mark.parametrize("threads", ["1", "2"])
def test_a_failed_shell_run_is_an_error_of_each_compact_record(capsys, monkeypatch, threads):
    calls = []

    def fail(*args, **kwargs):
        calls.append(args)
        raise MemoryError("no room for the shells")

    monkeypatch.setattr(qlsat.compact, "compact_run", fail)
    code, out, _ = run_cli(capsys, "run", "--engine", "compact", "--n", "30", "--trials", "3",
                           "--threads", threads)
    assert code == 0 and len(calls) == 3  # a failure is not cached
    records = jsonl(out)
    assert [r["error"] for r in records] == ["MemoryError: no room for the shells"] * 3
    assert [r["config"]["threads"] for r in records] == [int(threads)] * 3
    assert all("result" not in r and "planted" in r["instance"] for r in records)


def test_run_compact_engine_draws_only_the_planted_value(capsys, monkeypatch):
    def refuse(spec, **kwargs):
        raise AssertionError("the compact engine generated an instance")

    monkeypatch.setattr(qlsat.cli, "generate_instance", refuse)
    code, out, _ = run_cli(capsys, "run", "--engine", "compact", "--n", "200")
    assert code == 0
    (record,) = jsonl(out)
    assert "result" in record
    spec = EnsembleSpec(
        n=200, k=1, m=200, kind="max-constrained-1sat", seed=instance_seed_sequence(0, 0)
    )
    assert record["instance"]["planted"] == generate(spec).planted


def test_run_keeps_going_past_a_failed_inline_draw(capsys, monkeypatch):
    bad_seed = instance_seed_sequence(5, 1)
    real = qlsat.cli.generate_instance

    def flaky(spec, **kwargs):
        if spec.seed == bad_seed:
            raise RuntimeError("draw failed")
        return real(spec, **kwargs)

    monkeypatch.setattr(qlsat.cli, "generate_instance", flaky)
    code, out, _ = run_cli(
        capsys,
        "run", "--ensemble", "random", "--n", "6", "--m", "12", "--trials", "3", "--seed", "5",
    )
    assert code == 0
    records = jsonl(out)
    assert [r["instance"]["index"] for r in records] == [0, 1, 2]
    assert records[1]["error"] == "RuntimeError: draw failed"
    assert "result" not in records[1]
    assert "result" in records[0] and "result" in records[2]


def test_hopeless_random_soluble_batches_end_at_once(capsys, tmp_path):
    # n = 5, m = 70 is soluble only if the 10 missing patterns are one
    # assignment's; each draw used to spend its whole budget, about 6 s
    code, out, _ = run_cli(
        capsys, "run", "--ensemble", "random-soluble", "--n", "5", "--m", "70", "--trials", "100",
    )
    assert code == 0
    records = jsonl(out)
    assert len(records) == 100
    assert all(r["error"].startswith("HopelessSpecError: refusing") for r in records)
    code, out, err = run_cli(
        capsys, "generate", "--out-dir", str(tmp_path), "--ensemble", "random-soluble",
        "--n", "5", "--m", "70",
    )
    assert code == 1 and out == ""
    assert err.startswith("qlsat: error: refusing EnsembleSpec(n=5, k=3, m=70")
    assert "Traceback" not in err


def test_generate_reports_an_exhausted_budget_as_an_error(capsys, tmp_path, monkeypatch):
    def exhausted(spec):
        raise RuntimeError(f"no soluble instance within 10000 attempts for {spec}")

    monkeypatch.setattr(qlsat.cli, "generate_instance", exhausted)
    code, out, err = run_cli(
        capsys, "generate", "--out-dir", str(tmp_path), "--ensemble", "random-soluble",
        "--n", "5", "--m", "60",
    )
    assert code == 1 and out == ""
    assert err.startswith("qlsat: error: no soluble instance within 10000 attempts")


def test_run_files_without_inline_flags_echo_one_trial(capsys, tmp_path):
    path = tmp_path / "ref.cnf"
    path.write_text(REFERENCE_CNF)
    code, out, _ = run_cli(capsys, "run", str(path))
    assert code == 0
    (record,) = jsonl(out)
    assert record["config"]["trials"] == 1
    assert record["config"]["n"] is None and record["config"]["ensemble"] is None


def test_generate_wide_planted_instance(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "generate", "--out-dir", str(tmp_path), "--ensemble", "max-constrained-1sat",
        "--n", "80",
    )
    assert code == 0
    (record,) = jsonl(out)
    assert record["n"] == 80 and record["m"] == 80
    meta = json.loads((tmp_path / "inst-00000.json").read_text())
    assert 0 <= meta["planted"] < 1 << 80


def test_run_compact_engine_inline(capsys):
    code, out, _ = run_cli(
        capsys,
        "run", "--engine", "compact", "--n", "40", "--policy", "neighborhood",
    )
    assert code == 0
    (record,) = jsonl(out)
    assert record["config"]["ensemble"] == "max-constrained-1sat"
    assert record["config"]["k"] == 1
    result = record["result"]
    assert result["engine"] == "compact"
    assert result["steps"] == 21
    assert len(result["p_soln_by_step"]) == 22


def test_run_histograms_flag(capsys):
    code, out, _ = run_cli(
        capsys,
        "run", "--engine", "compact", "--n", "10", "--histograms",
    )
    assert code == 0
    (record,) = jsonl(out)
    hists = record["result"]["histograms"]
    assert len(hists) == record["result"]["steps"] + 1
    for hist in hists:
        assert sum(hist) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize(
    "argv",
    [
        ["run"],  # inline batch without an ensemble
        ["run", "--ensemble", "bogus", "--n", "5", "--m", "10"],
        ["run", "--engine", "compact", "--n", "8", "--alpha", "2"],
        ["run", "--engine", "compact", "--n", "8", "--ensemble", "random", "--m", "8"],
        ["run", "--engine", "compact", "--n", "8", "--k", "3"],
        ["sweep", "--axis", "n", "--values", "4", "--engine", "compact", "--k", "3"],
        ["sweep", "--axis", "n", "--values", "4:2:1", "--engine", "compact"],
        ["sweep", "--axis", "m-over-n", "--values", "4", "--ensemble", "random"],
        ["sweep", "--axis", "n", "--values", "5.5", "--engine", "compact"],
        ["generate", "--out-dir", "x", "--ensemble", "random", "--n", "5"],
        ["nonsense"],
        # a planted value on an ensemble that draws none
        ["run", "--ensemble", "random", "--n", "6", "--m", "10", "--planted", "5"],
        ["generate", "--out-dir", "x", "--ensemble", "random-soluble", "--n", "6",
         "--m", "10", "--planted", "5"],
        # a --k that contradicts the ensemble is refused, not replaced
        ["run", "--ensemble", "max-constrained-1sat", "--n", "6", "--k", "3"],
        ["generate", "--out-dir", "x", "--ensemble", "max-constrained-1sat", "--n", "6",
         "--k", "3"],
        # a compact sweep point is one shell-engine trial and draws no instance
        ["sweep", "--axis", "n", "--values", "4", "--engine", "compact",
         "--ensemble", "max-constrained-1sat"],
        ["sweep", "--axis", "n", "--values", "4", "--engine", "compact", "--planted", "3"],
        ["sweep", "--axis", "n", "--values", "4", "--engine", "compact", "--trials", "5"],
        # a sizing flag the sweep axis does not read
        ["sweep", "--axis", "m-over-n", "--values", "3", "--n", "8", "--m", "7",
         "--m-ratio", "9", "--ensemble", "random"],
        ["sweep", "--axis", "n", "--values", "6", "--n", "8", "--ensemble", "random",
         "--m", "12"],
        ["sweep", "--axis", "n", "--values", "6", "--m", "12", "--m-ratio", "2",
         "--ensemble", "random"],
        # a negative trial count
        ["generate", "--out-dir", "x", "--ensemble", "random", "--n", "5", "--m", "4",
         "--trials", "-1"],
        ["run", "--ensemble", "random", "--n", "8", "--m", "20", "--trials", "-3"],
        ["sweep", "--axis", "n", "--values", "6", "--ensemble", "random", "--m", "12",
         "--trials", "-2"],
        # instance files bring their own instances: inline-batch flags are refused
        ["run", "x", "--trials", "7"],
        ["run", "x", "--n", "9"],
        ["run", "x", "--m", "3"],
        ["run", "x", "--ensemble", "random-soluble"],
        ["run", "x", "--planted", "2"],
        # a bad policy or batch flag fails the command, not each trial
        *[
            [*batch, *flags]
            for batch in (
                ["run", "--ensemble", "random", "--n", "6", "--m", "10", "--trials", "2"],
                ["sweep", "--axis", "n", "--values", "6", "--ensemble", "random", "--m", "10"],
            )
            for flags in (
                ["--c-start", "abc"],
                ["--c-start", "-1"],
                ["--n-start", "-1", "--policy", "neighborhood"],
                ["--c-start", "3", "--policy", "neighborhood"],
                ["--n-start", "2", "--policy", "simple-threshold"],
                ["--j-max", "-1"],
                ["--alpha", "-1"],
                ["--threads", "0"],
            )
        ],
        # verify's checks start at n = 2
        ["verify", "--alpha", "3"],
        ["verify", "--dense-limit", "-1"],
        # malformed ranges
        ["sweep", "--axis", "n", "--values", "1:2:3:4", "--engine", "compact"],
        ["sweep", "--axis", "n", "--values", "4:8:0", "--engine", "compact"],
        ["sweep", "--axis", "n", "--values", "6", "--m", "10"],  # full engine, no ensemble
        ["run", "x", "--engine", "compact"],  # the compact engine draws its instances
        ["run", "--ensemble", "random", "--m", "10"],  # an inline batch without --n
    ],
)
def test_usage_errors_exit_one(argv, capsys, tmp_path):
    argv = [a if a != "x" else str(tmp_path) for a in argv]
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert "error" in err.lower()


_BAD_NUMBER_BATCHES = {
    "run": ["run", "--ensemble", "random", "--n", "6", "--m", "10"],
    "generate": ["generate", "--out-dir", "x", "--ensemble", "random", "--n", "6", "--m", "10"],
    "sweep": ["sweep", "--axis", "n", "--values", "6", "--ensemble", "random"],
    "m-over-n": ["sweep", "--axis", "m-over-n", "--n", "6", "--ensemble", "random"],
    "compact": ["run", "--engine", "compact", "--n", "8"],
    "verify": ["verify"],
}


@pytest.mark.parametrize(
    "flag, batch, flags",
    [
        ("--c-start", "run", ["--c-start", "1/0"]),
        ("--c-start", "run", ["--c-start", "abc"]),
        ("--c-start", "sweep", ["--c-start", "-1"]),
        ("--n-start", "run", ["--n-start", "-1", "--policy", "neighborhood"]),
        ("--seed", "run", ["--seed", "-1"]),
        ("--seed", "generate", ["--seed", "-1"]),
        ("--n", "run", ["--n", "0"]),  # a later flag replaces an earlier one
        ("--values", "sweep", ["--values", "1/0"]),
        ("--values", "sweep", ["--values", "4:8:0/0"]),
        ("--values", "sweep", ["--values", "-1"]),
        ("--values", "sweep", ["--values", "0"]),
        ("--values", "m-over-n", ["--values", "1e400"]),
        ("--values", "m-over-n", ["--values", "1e308"]),  # finite, but m is not
        ("--m-ratio", "sweep", ["--m-ratio", "inf"]),
        ("--m-ratio", "sweep", ["--m-ratio", "nan"]),
        ("--m-ratio", "sweep", ["--m-ratio", "-1"]),
        ("--m-ratio", "sweep", ["--m-ratio", "1e308"]),  # finite, but m is not
        ("--full-limit", "run", ["--full-limit", "-1"]),
        ("--full-limit", "compact", ["--full-limit", "0"]),
        ("--alpha", "verify", ["--alpha", "3"]),
        ("--alpha", "verify", ["--alpha", "-1"]),
        ("--dense-limit", "verify", ["--dense-limit", "-1"]),
    ],
)
def test_a_bad_number_is_refused_by_its_flag_name(flag, batch, flags, capsys, tmp_path):
    argv = [a if a != "x" else str(tmp_path / "x") for a in _BAD_NUMBER_BATCHES[batch]]
    code, out, err = run_cli(capsys, *argv, *flags)
    assert code == 1 and out == ""
    assert err.startswith("qlsat: error: ") and f"{flag} " in err and "Traceback" not in err
    assert not (tmp_path / "x").exists()


def test_an_inline_run_refuses_an_alpha_above_its_n(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "run", "--ensemble", "random", "--n", "6", "--m", "10", "--trials", "2",
        "--alpha", "9",
    )
    assert code == 1 and out == ""
    assert err == "qlsat: error: --alpha must be --n (6) or less, got 9\n"
    # files vary n, so there it stays an error of each instance it does not fit
    run_cli(capsys, "generate", "--out-dir", str(tmp_path), "--ensemble", "random",
            "--n", "6", "--m", "10")
    code, out, _ = run_cli(capsys, "run", str(tmp_path / "inst-00000.cnf"), "--alpha", "9")
    assert code == 0
    assert [r["error"] for r in jsonl(out)] == ["ValueError: need 0 <= alpha <= n, got alpha=9"]


def test_generate_makes_no_out_dir_when_it_fails_before_its_first_instance(capsys, tmp_path):
    out_dir = tmp_path / "inst"
    for flags in (
        ["--ensemble", "random", "--n", "5"],  # no --m
        ["--ensemble", "random", "--n", "5", "--m", "4", "--planted", "2"],
        ["--ensemble", "random-soluble", "--n", "5", "--m", "70"],  # a hopeless spec
    ):
        code, out, err = run_cli(capsys, "generate", "--out-dir", str(out_dir), *flags)
        assert code == 1 and out == "" and err.startswith("qlsat: error: ")
        assert not out_dir.exists()


@pytest.mark.parametrize(
    "argv,unechoed",
    [
        (["run", "--ensemble", "random", "--n", "6", "--m", "10"], {"format", "out", "instances"}),
        (["sweep", "--axis", "n", "--values", "6", "--ensemble", "random", "--m", "10"],
         {"format", "out", "n"}),
    ],
)
def test_records_echo_every_flag_of_their_command(argv, unechoed, capsys):
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    dests = {a.dest for a in sub.choices[argv[0]]._actions if a.dest != "help"}
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    (record,) = jsonl(out)
    config = dict(record["config"])
    policy = config.pop("policy")
    policy["policy"] = policy.pop("kind")  # the --policy flag
    assert (set(config) - {"command"}) | set(policy) == dests - unechoed
    if argv[0] == "sweep":
        assert record["point"]["n"] == 6


def subcommand_options() -> dict[str, set[str]]:
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: {flag for action in parser._actions for flag in action.option_strings}
        for name, parser in sub.choices.items()
    }


def test_each_subcommand_takes_only_the_options_it_reads(capsys, tmp_path):
    output = {"-h", "--help", "--seed", "--format", "--out"}
    ensemble = {"--n", "--k", "--m", "--ensemble", "--planted", "--trials"}
    trials = {"--policy", "--c-start", "--n-start", "--alpha", "--j-max", "--engine",
              "--full-limit", "--threads"}
    assert subcommand_options() == {
        "generate": output | ensemble | {"--out-dir", "--check-soluble", "--count-solutions"},
        "run": output | ensemble | trials | {"--histograms"},
        "sweep": output | ensemble | trials | {"--axis", "--values", "--m-ratio"},
        "verify": {"-h", "--help", "--alpha", "--dense-limit"},
    }
    target = tmp_path / "f"
    code, out, err = run_cli(capsys, "verify", "--out", str(target))
    assert code == 1 and out == "" and "unrecognized arguments: --out" in err
    assert not target.exists()
    code, out, err = run_cli(
        capsys, "generate", "--out-dir", str(tmp_path / "inst"), "--ensemble", "random",
        "--n", "5", "--m", "4", "--threads", "2",
    )
    assert code == 1 and out == "" and "unrecognized arguments: --threads" in err
    assert not (tmp_path / "inst").exists()


@pytest.mark.parametrize("ensemble", ENSEMBLE_KINDS)
def test_generate_counts_solutions_for_every_ensemble(tmp_path, capsys, ensemble):
    m = [] if ensemble == "max-constrained-1sat" else ["--m", "10"]
    code, out, _ = run_cli(
        capsys,
        "generate", "--out-dir", str(tmp_path), "--ensemble", ensemble, "--n", "6", *m,
        "--trials", "3", "--seed", "4", "--count-solutions",
    )
    assert code == 0
    for record in jsonl(out):
        path = Path(record["path"])
        problem = from_dimacs(path.read_text())
        brute = sum(count_conflicts(problem, s) == 0 for s in range(1 << 6))
        assert record["solution_count"] == brute
        assert record["soluble"] == (brute > 0)
        sidecar = json.loads(path.with_suffix(".json").read_text())
        assert sidecar["solution_count"] == brute
        assert sidecar["soluble"] == (brute > 0)


@pytest.mark.parametrize("n,k,m,soluble", [(6, 3, 10, True), (2, 2, 4, False)])
def test_counted_random_draws_say_whether_they_are_soluble(tmp_path, capsys, n, k, m, soluble):
    # m = 4 at n = k = 2 forbids all four assignments
    code, out, _ = run_cli(
        capsys,
        "generate", "--out-dir", str(tmp_path), "--ensemble", "random", "--n", str(n),
        "--k", str(k), "--m", str(m), "--seed", "4", "--count-solutions",
    )
    assert code == 0
    (record,) = jsonl(out)
    assert (record["solution_count"] > 0) is soluble
    assert record["soluble"] is soluble
    assert json.loads((tmp_path / "inst-00000.json").read_text())["soluble"] is soluble


def test_max_constrained_records_report_the_k_of_their_instances(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--ensemble", "max-constrained-1sat", "--n", "6", "--trials", "2"
    )
    assert code == 0
    for record in jsonl(out):
        assert record["config"]["k"] == record["instance"]["k"] == 1
    code, out, _ = run_cli(
        capsys, "sweep", "--axis", "n", "--values", "6", "--ensemble", "max-constrained-1sat"
    )
    assert code == 0
    (point,) = jsonl(out)
    assert point["config"]["k"] == 1 and "result" in point


def test_planted_value_on_a_sweep_of_random_instances_is_a_point_error(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "--axis", "n", "--values", "6,7", "--ensemble", "random-soluble",
        "--m", "10", "--planted", "5",
    )
    assert code == 0
    errors = [record["error"] for record in jsonl(out)]
    assert errors == ["ValueError: random-soluble instances have no planted assignment"] * 2


@pytest.mark.parametrize(
    "argv, unbuffered, lines_read",
    [
        (["verify"], "1", 1),  # one print per check, as in `qlsat verify | head -1`
        (["verify"], None, 0),  # a buffered report, written only when the command ends
        # one write larger than the pipe holds, through a buffered stdout
        (["run", "--ensemble", "random", "--n", "4", "--m", "2", "--trials", "300"], None, 1),
        # the same write cut short by the pipe through an unbuffered stdout
        (["run", "--ensemble", "random", "--n", "4", "--m", "2", "--trials", "300"], "1", 1),
    ],
)
def test_a_closed_pipe_ends_quietly(argv, unbuffered, lines_read):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    proc = subprocess.Popen(
        [sys.executable, "-m", "qlsat", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    for _ in range(lines_read):
        assert proc.stdout.readline()
    proc.stdout.close()  # the reader goes away
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert "Traceback" not in err and "Exception ignored" not in err


def test_capacity_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "run", "--ensemble", "random", "--n", "30", "--m", "60"
    )
    assert code == 3
    assert "capacity" in err.lower()


def test_full_limit_flag_tightens_the_guard(capsys):
    code, _, _ = run_cli(
        capsys,
        "run", "--ensemble", "random", "--n", "12", "--m", "24", "--full-limit", "10",
    )
    assert code == 3


def test_verify_passes_by_default(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    lines = out.splitlines()
    assert lines and all(line.startswith(("PASS", "SKIP")) for line in lines)
    assert any(line.startswith("PASS unitarity") for line in lines)
    assert any("u_1 = 0.273438" in line for line in lines)
    assert any("u_1 = 0.176197" in line for line in lines)


def test_verify_flags_an_injected_fault(capsys):
    code, out, _ = run_cli(capsys, "verify", "--alpha", "2", "--dense-limit", "5")
    assert code == 2
    lines = out.splitlines()
    assert any(line.startswith("FAIL mixing-table-n2") for line in lines)
    # the operator stays orthogonal under any split point
    assert any(line.startswith("PASS unitarity") for line in lines)
    assert any(line.startswith("SKIP") for line in lines)


@pytest.mark.parametrize("engine", ["full", "compact"])
def test_verify_flags_norm_drift_in_either_engine(capsys, monkeypatch, engine):
    # every step of one engine scales the state by 1 + 1e-8
    grow = 1 + 1e-8
    if engine == "full":
        apply_u = qlsat.mixer.apply_u
        monkeypatch.setattr(qlsat.mixer, "apply_u", lambda *a, **kw: apply_u(*a, **kw) * grow)
    else:
        build = qlsat.compact.build_v_scaled
        monkeypatch.setattr(qlsat.compact, "build_v_scaled", lambda n, m: build(n, m) * grow)
    code, out, _ = run_cli(capsys, "verify")
    assert code == 2
    (row,) = [line for line in out.splitlines() if "norm-drift" in line]
    assert row.startswith("FAIL norm-drift")


def test_verify_refuses_a_dense_limit_above_the_library_guard(capsys):
    # the largest dense matrix must stay within mixer.DEFAULT_DENSE_LIMIT = 12
    code, out, err = run_cli(capsys, "verify", "--dense-limit", "13")
    assert code == 3
    assert "PASS" not in out
    assert "capacity" in err


@pytest.mark.parametrize("limit", [0, 1])
def test_verify_refuses_a_dense_limit_below_two(capsys, monkeypatch, limit):
    # n=2..limit would be empty: the fast-vs-dense check would compare nothing
    code, out, err = run_cli(capsys, "verify", "--dense-limit", str(limit))
    assert code == 1
    assert out == ""
    assert "dense" in err
    monkeypatch.setenv("QLSAT_DENSE_LIMIT", str(limit))
    code, out, _ = run_cli(capsys, "verify")
    assert code == 1
    assert out == ""
    with pytest.raises(ValueError, match="dense"):  # the library refuses it too
        next(run_checks(dense_limit=limit))


def test_verify_rejects_impossible_alpha(capsys):
    code, _, err = run_cli(capsys, "verify", "--alpha", "7", "--dense-limit", "5")
    assert code == 1
    assert "alpha" in err


def test_sweep_value_ranges_and_compact_axis(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "--axis", "n", "--values", "4:8:2", "--engine", "compact",
        "--policy", "neighborhood",
    )
    assert code == 0
    records = jsonl(out)
    assert [r["point"]["n"] for r in records] == [4, 6, 8]
    assert [r["point"]["m"] for r in records] == [4, 6, 8]
    for record in records:
        result = record["result"]
        assert result["steps"] == record["point"]["n"] // 2 + 1
        assert result["solved_trials"] == 1
        assert result["mean_cost"] > 0
    # an empty token in the list is skipped
    code, out, _ = run_cli(capsys, "sweep", "--axis", "n", "--values", "1,,3", "--engine",
                           "compact")
    assert code == 0
    assert [r["point"]["n"] for r in jsonl(out)] == [1, 3]


def test_sweep_m_ratio_on_the_n_axis(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "--axis", "n", "--values", "6,8", "--m-ratio", "2.5",
        "--ensemble", "random", "--trials", "2", "--seed", "1",
    )
    assert code == 0
    records = jsonl(out)
    assert [r["point"]["m"] for r in records] == [15, 20]


def test_single_point_sweep_matches_run_aggregation(capsys):
    # a sweep point aggregates the inline run batch seeded by its index
    for ensemble, sweep_axis, m in (
        ("random-soluble", ["--axis", "m-over-n", "--values", "4", "--n", "8"], 32),
        ("max-constrained-1sat", ["--axis", "n", "--values", "8"], 8),
    ):
        code, out_sweep, _ = run_cli(
            capsys,
            "sweep", *sweep_axis, "--ensemble", ensemble, "--trials", "5", "--seed", "42",
        )
        assert code == 0
        (point,) = jsonl(out_sweep)
        assert point["point"]["m"] == m
        point_seed = instance_seed_sequence(42, 0)
        code, out_run, _ = run_cli(
            capsys,
            "run", "--ensemble", ensemble, "--n", "8", "--m", str(m),
            "--trials", "5", "--seed", str(point_seed),
        )
        assert code == 0
        runs = jsonl(out_run)
        costs = [r["result"]["best_cost"] for r in runs]
        finals = [r["result"]["final_p"] for r in runs]
        result = point["result"]
        assert result["solved_trials"] == 5
        assert result["mean_cost"] == pytest.approx(np.mean(costs), rel=1e-12)
        assert result["mean_final_p"] == pytest.approx(np.mean(finals), rel=1e-12)
        assert result["fixed_step_cost"] == pytest.approx(
            result["steps"] / np.mean(finals), rel=1e-12
        )
        assert result["sem_cost"] == pytest.approx(
            np.std(costs, ddof=1) / math.sqrt(5), rel=1e-12
        )


def test_sweep_records_point_errors_and_continues(capsys):
    # m = 36 exceeds the 32 distinct conflict patterns at n=4, k=3
    code, out, _ = run_cli(
        capsys,
        "sweep", "--axis", "m-over-n", "--values", "7,9", "--n", "4",
        "--ensemble", "random", "--trials", "1", "--seed", "2",
    )
    assert code == 0
    records = jsonl(out)
    assert "result" in records[0]
    assert "error" in records[1] and "result" not in records[1]


def test_a_failed_sweep_point_is_an_error_record_and_a_quoted_csv_cell(capsys):
    argv = ["sweep", "--axis", "n", "--values", "4:8:2", "--engine", "compact", "--m", "6"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    records = jsonl(out)
    assert [r["point"]["n"] for r in records] == [4, 6, 8]
    error = "ValueError: need 1 <= m <= n, got m=6, n=4"
    assert records[0]["error"] == error and "result" not in records[0]
    assert all("error" not in r and r["result"]["steps"] >= 1 for r in records[1:])
    code, out_csv, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0 and f',"{error}",' in out_csv
    rows = list(csv.DictReader(io.StringIO(out_csv)))
    assert [row["error"] for row in rows] == [error, "", ""]
    assert [row["result.steps"] for row in rows] == ["", *(str(r["result"]["steps"])
                                                          for r in records[1:])]


def test_csv_nests_the_histograms_of_a_threaded_compact_batch(capsys):
    argv = ["run", "--engine", "compact", "--n", "30", "--policy", "neighborhood",
            "--trials", "3", "--threads", "2", "--histograms"]
    _, out, _ = run_cli(capsys, *argv)
    code, out_csv, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    records = jsonl(out)
    rows = list(csv.DictReader(io.StringIO(out_csv)))
    assert len(rows) == len(records) == 3
    for row, record in zip(rows, records):
        cell = row["result.histograms"]
        assert cell.startswith("[") and cell.endswith("]")
        nested = [[float(v) for v in h.split(";")] for h in cell[1:-1].split("];[")]
        assert nested == record["result"]["histograms"]
        assert int(row["instance.planted"]) == record["instance"]["planted"]


def test_sweep_point_with_no_trials_writes_strict_json(capsys):
    # an empty batch once gave "mean_final_p": NaN and two numpy warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys,
            "sweep", "--axis", "n", "--values", "6", "--ensemble", "random",
            "--m", "12", "--trials", "0",
        )
    assert code == 0 and err == ""

    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    (record,) = [json.loads(line, parse_constant=reject) for line in out.splitlines()]
    result = record["result"]
    assert result["mean_final_p"] is None
    assert result["fixed_step_cost"] is None
    assert result["solved_trials"] == result["unsolved_trials"] == 0


def test_thread_count_does_not_change_results(capsys):
    base = ["run", "--ensemble", "random", "--n", "7", "--m", "14",
            "--trials", "4", "--seed", "17"]
    _, out_one, _ = run_cli(capsys, *base, "--threads", "1")
    code, out_two, _ = run_cli(capsys, *base, "--threads", "2")
    assert code == 0
    ones_ = jsonl(out_one)
    twos = jsonl(out_two)
    for rec in ones_ + twos:
        del rec["config"]["threads"]
    assert ones_ == twos


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--engine", "compact", "--n", "200", "--policy", "neighborhood", "--histograms"],
        ["verify"],
    ],
)
def test_blas_thread_count_does_not_change_the_bytes(argv):
    # both print sums of OpenBLAS products whose last bits, unpinned, vary
    # with the size of its thread pool
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        proc = subprocess.run(
            [sys.executable, "-m", "qlsat", *argv], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_main_runs_on_one_blas_thread_and_restores_the_count(capsys, monkeypatch):
    blas = qlsat.cli._openblas_threads()
    if blas is None:
        pytest.skip("numpy has no bundled OpenBLAS")
    get, set_threads = blas
    before = get()
    seen = []
    monkeypatch.setattr(qlsat.cli, "cmd_verify", lambda args: seen.append(get()) or 0)
    set_threads(2)
    try:
        assert main(["verify"]) == 0
        assert seen == [1] and get() == 2
    finally:
        set_threads(before)


def test_a_batch_builds_the_mixing_weights_once_per_n(capsys, monkeypatch, tmp_path):
    built = []  # (n, weak reference to the rows) per build of the weights
    held = []  # the n of each earlier build's rows still alive at a build
    build = qlsat.mixer._tau_rows

    def counted(n, alpha):
        held.extend(n for n, ref in built if ref() is not None)
        rows = build(n, alpha)
        built.append((n, weakref.ref(rows)))
        return rows

    monkeypatch.setattr(qlsat.mixer, "_tau_rows", counted)

    def builds(*argv):
        monkeypatch.setattr(qlsat.mixer, "_TAU_ROWS", {})
        built.clear()
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and all("error" not in record for record in jsonl(out))
        # a batch holds no weights of an n it has left, only the last n's
        assert held == []
        assert [ref() is not None for _, ref in built] == [False] * (len(built) - 1) + [True]
        return [n for n, _ in built]

    assert builds("run", "--ensemble", "random", "--n", "7", "--m", "14", "--trials", "3") == [7]
    # one build for a sweep whose points share their n
    assert builds(
        "sweep", "--axis", "m-over-n", "--values", "2,3", "--n", "7",
        "--ensemble", "random", "--trials", "2",
    ) == [7]
    assert builds(
        "sweep", "--axis", "n", "--values", "6,7,8", "--m-ratio", "2",
        "--ensemble", "random", "--trials", "2",
    ) == [6, 7, 8]
    # a run over files of two n builds once per run of same-n files
    for n in (6, 7):
        run_cli(
            capsys, "generate", "--out-dir", str(tmp_path / str(n)), "--ensemble", "random",
            "--n", str(n), "--m", "12", "--trials", "2",
        )
    files = sorted(map(str, tmp_path.glob("*/*.cnf")))
    assert builds("run", *files) == [6, 7]


def test_environment_overrides(capsys, monkeypatch):
    monkeypatch.setenv("QLSAT_FORMAT", "csv")
    monkeypatch.setenv("QLSAT_SEED", "9")
    code, out, _ = run_cli(
        capsys, "run", "--ensemble", "random", "--n", "5", "--m", "10"
    )
    assert code == 0
    header = out.splitlines()[0].split(",")
    assert header[0] == "record"
    row = dict(zip(header, out.splitlines()[1].split(",")))
    assert row["config.seed"] == "9"
    # explicit flags still win over the environment
    code, out, _ = run_cli(
        capsys,
        "run", "--ensemble", "random", "--n", "5", "--m", "10",
        "--format", "jsonl", "--seed", "4",
    )
    assert code == 0
    assert jsonl(out)[0]["config"]["seed"] == 4


def test_a_bad_environment_override_fails_only_the_commands_that_read_it(
    capsys, monkeypatch, tmp_path
):
    monkeypatch.setenv("QLSAT_THREADS", "abc")
    batch = ["--ensemble", "random", "--n", "5", "--m", "10"]
    code, out, err = run_cli(capsys, "run", *batch)
    assert code == 1 and out == "" and "--threads: invalid int value: 'abc'" in err
    assert run_cli(capsys, "run", *batch, "--threads", "1")[0] == 0
    assert run_cli(capsys, "generate", "--out-dir", str(tmp_path), *batch)[0] == 0
    monkeypatch.setenv("QLSAT_THREADS", "0")
    code, out, err = run_cli(capsys, "run", *batch)
    assert code == 1 and "--threads must be 1 or more, got 0" in err
    monkeypatch.delenv("QLSAT_THREADS")
    monkeypatch.setenv("QLSAT_FORMAT", "xml")  # was written as csv
    code, out, err = run_cli(capsys, "run", *batch)
    assert code == 1 and out == "" and "QLSAT_FORMAT" in err


def test_output_file_destination(tmp_path, capsys):
    target = tmp_path / "records.jsonl"
    code, out, _ = run_cli(
        capsys,
        "run", "--ensemble", "random", "--n", "5", "--m", "10",
        "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert jsonl(target.read_text())[0]["record"] == "run"


@pytest.mark.parametrize("where", ["missing", "directory"])
@pytest.mark.parametrize(
    "batch",
    [
        ["run", "--ensemble", "random", "--n", "5", "--m", "10"],
        ["run", "--engine", "compact", "--n", "30"],
        ["sweep", "--axis", "n", "--values", "4:8:2", "--engine", "compact", "--m", "6"],
        ["generate", "--out-dir", "inst", "--ensemble", "random", "--n", "5", "--m", "10"],
    ],
)
def test_an_unwritable_out_is_refused_before_any_trial(batch, where, capsys, monkeypatch,
                                                       tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("a trial ran before --out was checked")

    monkeypatch.setattr(qlsat.engine, "run_trial", refuse)
    monkeypatch.setattr(qlsat.compact, "compact_run", refuse)
    monkeypatch.setattr(qlsat.cli, "generate_instance", refuse)
    target = tmp_path / "missing" / "x.jsonl" if where == "missing" else tmp_path
    argv = [str(tmp_path / a) if a == "inst" else a for a in batch]
    code, out, err = run_cli(capsys, *argv, "--out", str(target))
    assert code == 1 and out == ""
    assert err == f"qlsat: error: --out must name a file in an existing directory, got {target}\n"
    assert list(tmp_path.iterdir()) == []


def test_an_out_dir_that_cannot_be_made_is_an_error_not_a_traceback(capsys, monkeypatch,
                                                                    tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("an instance was generated before --out-dir was checked")

    monkeypatch.setattr(qlsat.cli, "generate_instance", refuse)
    (tmp_path / "f").write_text("")
    for below in (("inst",), ("inst", "deeper"), ()):  # below a regular file, or one itself
        out_dir = tmp_path.joinpath("f", *below)
        code, out, err = run_cli(capsys, "generate", "--out-dir", str(out_dir),
                                 "--ensemble", "random", "--n", "5", "--m", "10")
        assert code == 1 and out == ""
        assert err == (f"qlsat: error: --out-dir must be a directory or a path below one, "
                       f"got {out_dir} ({tmp_path / 'f'} is not a directory)\n")
        assert [p.name for p in tmp_path.iterdir()] == ["f"]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qlsat", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "generate" in proc.stdout and "verify" in proc.stdout
    proc = subprocess.run(
        [sys.executable, "-m", "qlsat"], capture_output=True, text=True
    )
    assert proc.returncode == 1
