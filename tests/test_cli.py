"""Command-line behavior: documents, formats, exit statuses."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from descent_forge import cli
from descent_forge.errors import InternalInvariantBroken, StageFailure
from descent_forge.search import VERDICT_COUNTEREXAMPLE, VerifyOutcome, search_quartic
from descent_forge.equations import equation_by_id


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_document(capsys):
    code, out, err = run_cli(capsys, ["catalog"])
    assert code == 0
    document = json.loads(out)
    assert len(document["equations"]) == 12
    assert len(document["resolvents"]) == 2
    assert out.endswith("\n")
    assert err == ""


def test_verify_table_consistent_and_byte_stable(capsys, monkeypatch):
    argv = ["verify-table", "--bound", "20", "--resolvent-bound", "20"]
    code, first, _ = run_cli(capsys, argv)
    assert code == 0
    code, second, _ = run_cli(capsys, argv)
    assert code == 0
    monkeypatch.setenv("DESCENT_FORGE_THREADS", "4")
    code, third, _ = run_cli(capsys, argv)
    assert code == 0
    assert first == second == third
    document = json.loads(first)
    assert document["verdict"] == "CONSISTENT"
    assert len(document["targets"]) == 14


def test_reduce_command_trace(capsys):
    code, out, _ = run_cli(capsys, ["reduce", "--target", "E4", "--tuple", "1,0,1"])
    assert code == 0
    document = json.loads(out)
    assert document["final"] == [1, 0, 1, 0]
    assert document["kind"] == "E4->R1"


def test_reduce_command_rejects_out_of_domain_tuples(capsys):
    code, out, err = run_cli(capsys, ["reduce", "--target", "E2", "--tuple", "0,1,2"])
    assert code == 1
    assert out == ""
    assert "trivial" in err

    code, _, err = run_cli(capsys, ["reduce", "--target", "E2", "--tuple", "1,1,2"])
    assert code == 1
    assert "satisfy" in err


def test_lift_command_traces(capsys):
    code, out, _ = run_cli(capsys, ["lift", "--target", "E2", "--tuple", "1,0,1,0"])
    assert code == 0
    assert json.loads(out)["final"] == [1, 0, 1]

    code, out, _ = run_cli(capsys, ["lift", "--target", "E4", "--tuple", "1,0,0,1"])
    assert code == 0
    assert json.loads(out)["final"] == [0, 1, 1]


def test_descend_command_terminals(capsys):
    code, out, _ = run_cli(capsys, ["descend", "--tuple", "1,0,1,0"])
    assert code == 0
    assert json.loads(out)["terminal"]["kind"] == "TrivialInput"

    code, out, _ = run_cli(capsys, ["descend", "--tuple", "3,1,3,1"])
    assert code == 0
    assert json.loads(out)["terminal"]["kind"] == "NonSolutionInput"

    code, _, err = run_cli(capsys, ["descend", "--target", "R2", "--tuple", "1,0,1,0"])
    assert code == 1
    assert "R1" in err


def test_residues_command(capsys):
    code, out, _ = run_cli(capsys, ["residues", "--target", "R1", "--modulus", "3"])
    assert code == 0
    document = json.loads(out)
    assert document["forced"] is True and document["modulus"] == 3

    code, out, _ = run_cli(capsys, ["residues", "--target", "R1", "--nu-bound"])
    assert code == 0
    document = json.loads(out)
    assert document["nu_lower_bound"] == 2
    assert [r["modulus"] for r in document["reports"]] == [2, 3]

    code, _, err = run_cli(capsys, ["residues", "--target", "R2", "--nu-bound"])
    assert code == 1
    assert "R1" in err

    code, _, err = run_cli(capsys, ["residues", "--target", "R1", "--modulus", "1"])
    assert code == 1
    assert "outside" in err


def test_search_command_formats(capsys):
    code, out, _ = run_cli(
        capsys,
        ["search", "--target", "E3", "--bound", "50", "--include-trivial", "--format", "csv"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,y,z"
    assert "1,1,1" in lines

    code, out, _ = run_cli(
        capsys, ["search", "--target", "R1", "--include-trivial", "--format", "text"]
    )
    assert code == 0
    assert "R1 bound 60" in out
    assert "orbit count: 8" in out

    code, out, _ = run_cli(capsys, ["search", "--target", "E2", "--timing"])
    assert code == 0
    assert "elapsed_ms" in json.loads(out)


def test_search_command_usage_errors(capsys):
    code, out, err = run_cli(capsys, ["search", "--target", "ZZ"])
    assert code == 1 and out == "" and "unknown" in err

    code, _, err = run_cli(capsys, ["search", "--target", "E1", "--bound", "0"])
    assert code == 1 and "outside" in err

    code, _, err = run_cli(capsys, ["search", "--target", "R1", "--no-coprime"])
    assert code == 1 and "coprimality" in err


def test_env_thread_cap_is_validated(capsys, monkeypatch):
    monkeypatch.setenv("DESCENT_FORGE_THREADS", "frog")
    code, out, err = run_cli(capsys, ["search", "--target", "E1", "--bound", "5"])
    assert code == 1
    assert out == ""
    assert "DESCENT_FORGE_THREADS" in err


def test_tuple_parsing_errors(capsys):
    code, _, _ = run_cli(capsys, ["reduce", "--target", "E2", "--tuple", "1,0"])
    assert code == 1
    code, _, _ = run_cli(capsys, ["reduce", "--target", "E2", "--tuple", "a,b,c"])
    assert code == 1


def test_missing_command_and_help_exit_codes(capsys):
    assert cli.main([]) == 1
    capsys.readouterr()
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


def test_stage_failure_exits_two_with_error_document(capsys, monkeypatch):
    def boom(x, y, z):
        raise StageFailure("SquareExtract", {"u": 3, "v": 5})

    monkeypatch.setattr(cli.reduction, "forward_reduce_biquadratic", boom)
    code, out, err = run_cli(capsys, ["reduce", "--target", "E2", "--tuple", "1,0,1"])
    assert code == 2
    document = json.loads(out)
    assert document["error"] == "StageFailure"
    assert document["stage"] == "SquareExtract"
    assert "SquareExtract" in err


def test_counterexample_exits_two(capsys, monkeypatch):
    report = search_quartic(equation_by_id("E1"), 1, include_trivial=True)
    fake = VerifyOutcome(target_id="E1", report=report, verdict=VERDICT_COUNTEREXAMPLE)
    monkeypatch.setattr(cli.search, "verify_table", lambda **kwargs: [fake])
    code, out, _ = run_cli(capsys, ["verify-table"])
    assert code == 2
    assert json.loads(out)["verdict"] == "COUNTEREXAMPLE"


def test_internal_invariant_exits_three(capsys, monkeypatch):
    def broken(trace):
        raise InternalInvariantBroken("forced for the test")

    monkeypatch.setattr(cli.reduction, "replay_trace", broken)
    code, out, err = run_cli(capsys, ["reduce", "--target", "E4", "--tuple", "1,0,1"])
    assert code == 3
    assert out == ""
    assert "invariant" in err


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "descent_forge", "verify-table", "--bound", "5", "--resolvent-bound", "5"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["verdict"] == "CONSISTENT"


def test_importing_the_package_builds_no_parser():
    code = (
        "import argparse, sys\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting_init(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting_init\n"
        "import descent_forge\n"
        "print('descent_forge.cli' in sys.modules)\n"
        "import descent_forge.cli\n"
        "print(len(built))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "0"]
