"""Command-line behavior: documents, formats, exit statuses."""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from descent_forge import cli, descent
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
    assert err == "descent-forge: error: (1, 1, 2) does not satisfy E2: x^4 + 4y^4 = z^2\n"


def test_lift_command_traces(capsys):
    code, out, _ = run_cli(capsys, ["lift", "--target", "E2", "--tuple", "1,0,1,0"])
    assert code == 0
    assert json.loads(out)["final"] == [1, 0, 1]

    code, out, _ = run_cli(capsys, ["lift", "--target", "E4", "--tuple", "1,0,0,1"])
    assert code == 0
    assert json.loads(out)["final"] == [0, 1, 1]


# The documents' bytes in each format, as bench/reference.json records them.
_REDUCE_ARGV = ["reduce", "--target", "E4", "--tuple=-1,0,1"]
_LIFT_ARGV = ["lift", "--target", "E2", "--tuple=1,0,1,0"]
_MAP_DOCUMENTS = {
    ("reduce", "json"): (
        '{"final":[1,0,1,0],"kind":"E4->R1","sign_changes":{"x":-1,"y":1,"z":1},"source":[1,0,1],'
        '"steps":[{"inputs":{"s":0,"t":1,"x":1,"y":0,"z":1},"outputs":{"u":1,"v":0},"stage":'
        '"TripleDecompose"},{"inputs":{"u":1,"v":0,"x":1,"y":0},"outputs":{"x":1,"xp":1,"y":0,"yp":'
        '0},"stage":"Assemble"}]}\n'
    ),
    ("reduce", "csv"): (
        'key,value\n'
        'final,"[1, 0, 1, 0]"\n'
        'kind,E4->R1\n'
        'sign_changes,"{""x"": -1, ""y"": 1, ""z"": 1}"\n'
        'source,"[1, 0, 1]"\n'
        'steps,"[{""inputs"": {""s"": 0, ""t"": 1, ""x"": 1, ""y"": 0, ""z"": 1}, ""outputs"":'
        ' {""u"": 1, ""v"": 0}, ""stage"": ""TripleDecompose""}, {""inputs"": {""u"": 1, ""v"": 0,'
        ' ""x"": 1, ""y"": 0}, ""outputs"": {""x"": 1, ""xp"": 1, ""y"": 0, ""yp"": 0}, ""stage"":'
        ' ""Assemble""}]"\n'
    ),
    ("reduce", "text"): textwrap.dedent("""\
        {
          "final": [
            1,
            0,
            1,
            0
          ],
          "kind": "E4->R1",
          "sign_changes": {
            "x": -1,
            "y": 1,
            "z": 1
          },
          "source": [
            1,
            0,
            1
          ],
          "steps": [
            {
              "inputs": {
                "s": 0,
                "t": 1,
                "x": 1,
                "y": 0,
                "z": 1
              },
              "outputs": {
                "u": 1,
                "v": 0
              },
              "stage": "TripleDecompose"
            },
            {
              "inputs": {
                "u": 1,
                "v": 0,
                "x": 1,
                "y": 0
              },
              "outputs": {
                "x": 1,
                "xp": 1,
                "y": 0,
                "yp": 0
              },
              "stage": "Assemble"
            }
          ]
        }
    """),
    ("lift", "json"): (
        '{"final":[1,0,1],"kind":"R1->E2","sign_changes":{"x":1,"xp":1,"y":1,"yp":1},"source":[1,0,'
        '1,0],"steps":[{"inputs":{"x":1,"xp":1,"y":0,"yp":0},"outputs":{"S":0,"T":1},"stage":'
        '"DifferenceOfSquares"},{"inputs":{"S":0,"T":1},"outputs":{"phi":1,"psi":1},"stage":'
        '"SquareExtract"},{"inputs":{"S":0,"T":1,"phi":1,"psi":1},"outputs":{"x":1,"y":0,"z":1},'
        '"stage":"Assemble"}]}\n'
    ),
    ("lift", "csv"): (
        'key,value\n'
        'final,"[1, 0, 1]"\n'
        'kind,R1->E2\n'
        'sign_changes,"{""x"": 1, ""xp"": 1, ""y"": 1, ""yp"": 1}"\n'
        'source,"[1, 0, 1, 0]"\n'
        'steps,"[{""inputs"": {""x"": 1, ""xp"": 1, ""y"": 0, ""yp"": 0}, ""outputs"": {""S"": 0,'
        ' ""T"": 1}, ""stage"": ""DifferenceOfSquares""}, {""inputs"": {""S"": 0, ""T"": 1},'
        ' ""outputs"": {""phi"": 1, ""psi"": 1}, ""stage"": ""SquareExtract""}, {""inputs"":'
        ' {""S"": 0, ""T"": 1, ""phi"": 1, ""psi"": 1}, ""outputs"": {""x"": 1, ""y"": 0, ""z"":'
        ' 1}, ""stage"": ""Assemble""}]"\n'
    ),
    ("lift", "text"): textwrap.dedent("""\
        {
          "final": [
            1,
            0,
            1
          ],
          "kind": "R1->E2",
          "sign_changes": {
            "x": 1,
            "xp": 1,
            "y": 1,
            "yp": 1
          },
          "source": [
            1,
            0,
            1,
            0
          ],
          "steps": [
            {
              "inputs": {
                "x": 1,
                "xp": 1,
                "y": 0,
                "yp": 0
              },
              "outputs": {
                "S": 0,
                "T": 1
              },
              "stage": "DifferenceOfSquares"
            },
            {
              "inputs": {
                "S": 0,
                "T": 1
              },
              "outputs": {
                "phi": 1,
                "psi": 1
              },
              "stage": "SquareExtract"
            },
            {
              "inputs": {
                "S": 0,
                "T": 1,
                "phi": 1,
                "psi": 1
              },
              "outputs": {
                "x": 1,
                "y": 0,
                "z": 1
              },
              "stage": "Assemble"
            }
          ]
        }
    """),
}


@pytest.mark.parametrize("command, fmt", list(_MAP_DOCUMENTS), ids=[f"{c}-{f}" for c, f in _MAP_DOCUMENTS])
def test_map_documents_are_byte_stable(capsys, command, fmt):
    argv = _REDUCE_ARGV if command == "reduce" else _LIFT_ARGV
    assert run_cli(capsys, [*argv, "--format", fmt]) == (0, _MAP_DOCUMENTS[command, fmt], "")


# The descend documents' bytes in each format, as bench/reference.json
# records them: every real input ends before the first step.
_DESCEND_DOCUMENTS = {
    ("1,0,1,0", "json"): (
        '{"source":[1,0,1,0],"steps":[],"terminal":{"kind":"TrivialInput","values":{"input":[1,0,1,0]}}}\n'
    ),
    ("1,0,1,0", "csv"): (
        'key,value\n'
        'source,"[1, 0, 1, 0]"\n'
        'steps,[]\n'
        'terminal,"{""kind"": ""TrivialInput"", ""values"": {""input"": [1, 0, 1, 0]}}"\n'
    ),
    ("1,0,1,0", "text"): textwrap.dedent("""\
        {
          "source": [
            1,
            0,
            1,
            0
          ],
          "steps": [],
          "terminal": {
            "kind": "TrivialInput",
            "values": {
              "input": [
                1,
                0,
                1,
                0
              ]
            }
          }
        }
    """),
    ("3,1,3,1", "json"): (
        '{"source":[3,1,3,1],"steps":[],"terminal":{"kind":"NonSolutionInput","values":{"input":[3,1,3,1]}}}\n'
    ),
    ("3,1,3,1", "csv"): (
        'key,value\n'
        'source,"[3, 1, 3, 1]"\n'
        'steps,[]\n'
        'terminal,"{""kind"": ""NonSolutionInput"", ""values"": {""input"": [3, 1, 3, 1]}}"\n'
    ),
    ("3,1,3,1", "text"): textwrap.dedent("""\
        {
          "source": [
            3,
            1,
            3,
            1
          ],
          "steps": [],
          "terminal": {
            "kind": "NonSolutionInput",
            "values": {
              "input": [
                3,
                1,
                3,
                1
              ]
            }
          }
        }
    """),
}


@pytest.mark.parametrize("point, fmt", list(_DESCEND_DOCUMENTS), ids=[f"{p}-{f}" for p, f in _DESCEND_DOCUMENTS])
def test_descend_documents_are_byte_stable(capsys, point, fmt):
    argv = ["descend", f"--tuple={point}", "--format", fmt]
    assert run_cli(capsys, argv) == (0, _DESCEND_DOCUMENTS[point, fmt], "")


def test_descend_refuses_the_second_resolvent_byte_for_byte(capsys):
    assert run_cli(capsys, ["descend", "--target", "R2", "--tuple=1,0,1,0"]) == (
        1, "", "descent-forge: error: descent only supports R1, got R2\n",
    )


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


def test_nu_bound_runs_each_residue_analysis_once(capsys, monkeypatch):
    moduli = []
    analyse = descent.residue_obstruction

    def counting(system, modulus):
        moduli.append(modulus)
        return analyse(system, modulus)

    monkeypatch.setattr(descent, "residue_obstruction", counting)
    code, out, _ = run_cli(capsys, ["residues", "--target", "R1", "--nu-bound"])
    assert code == 0 and json.loads(out)["nu_lower_bound"] == 2
    assert moduli == [2, 3]


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
    code, out, err = run_cli(capsys, ["lift", "--target", "E2", "--tuple=1,0,1"])
    assert (code, out, err) == (1, "", "descent-forge: error: expected 4 comma-separated integers, got 3\n")
    code, out, err = run_cli(capsys, ["reduce", "--target", "E4", "--tuple=1,0,1,0"])
    assert (code, out, err) == (1, "", "descent-forge: error: expected 3 comma-separated integers, got 4\n")
    code, out, err = run_cli(capsys, ["descend", "--tuple=1,0,1"])
    assert (code, out, err) == (1, "", "descent-forge: error: expected 4 comma-separated integers, got 3\n")


@pytest.mark.parametrize(
    "command, usage",
    [
        ("reduce", "--target {E2,E4} --tuple X,Y,Z"),
        ("lift", "--target {E2,E4} --tuple X,Y,XP,YP"),
        ("descend", "[--target TARGET] --tuple X,Y,XP,YP"),
    ],
)
def test_point_commands_name_the_coordinates_in_their_usage(capsys, command, usage):
    # Compared with the line breaks folded, so the terminal width does not matter.
    code, out, _ = run_cli(capsys, [command, "--help"])
    assert code == 0
    first = " ".join(out.split("\n\n")[0].split())
    assert first == f"usage: descent-forge {command} [-h] [--format {{json,csv,text}}] [--timing] {usage}"


def test_missing_command_and_help_exit_codes(capsys):
    assert cli.main([]) == 1
    capsys.readouterr()
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    ("command", "target", "attribute", "values"),
    [
        ("reduce", "E2", "forward_reduce_biquadratic", "1,0,1"),
        ("reduce", "E4", "sextic_to_resolvent", "1,0,1"),
        ("lift", "E2", "backward_lift_biquadratic", "1,0,1,0"),
        ("lift", "E4", "resolvent_to_sextic", "1,0,0,1"),
    ],
)
def test_stage_failure_exits_two_with_error_document(capsys, monkeypatch, command, target, attribute, values):
    # The map is replaced on the reduction module after import, as a
    # tracer's wrapper is, so the command must look it up at call time.
    def boom(*_):
        raise StageFailure("SquareExtract", {"u": 3, "v": 5})

    monkeypatch.setattr(cli.reduction, attribute, boom)
    code, out, err = run_cli(capsys, [command, "--target", target, "--tuple", values])
    assert code == 2
    document = json.loads(out)
    assert document["error"] == "StageFailure"
    assert document["stage"] == "SquareExtract"
    assert "SquareExtract" in err


# A real SquareExtract failure of the R1 -> E4 lift, in each format.
_STAGE_FAILURE_DOCUMENTS = {
    "json": (
        '{"error":"StageFailure","message":"stage SquareExtract failed (value=1, xp=1, yp=0)",'
        '"stage":"SquareExtract","values":{"value":1,"xp":1,"yp":0}}\n'
    ),
    "csv": (
        'key,value\n'
        'error,StageFailure\n'
        'message,"stage SquareExtract failed (value=1, xp=1, yp=0)"\n'
        'stage,SquareExtract\n'
        'values,"{""value"": 1, ""xp"": 1, ""yp"": 0}"\n'
    ),
    "text": textwrap.dedent("""\
        {
          "error": "StageFailure",
          "message": "stage SquareExtract failed (value=1, xp=1, yp=0)",
          "stage": "SquareExtract",
          "values": {
            "value": 1,
            "xp": 1,
            "yp": 0
          }
        }
    """),
}


@pytest.mark.parametrize("fmt", _STAGE_FAILURE_DOCUMENTS)
def test_stage_failure_document_is_byte_stable(capsys, monkeypatch, fmt):
    monkeypatch.setattr(cli.reduction, "isqrt_exact", lambda n: None)
    code, out, err = run_cli(capsys, ["lift", "--target", "E4", "--tuple=1,0,1,0", "--format", fmt])
    assert (code, out) == (2, _STAGE_FAILURE_DOCUMENTS[fmt])
    assert err == "descent-forge: stage SquareExtract failed (value=1, xp=1, yp=0)\n"


def test_counterexample_exits_two(capsys, monkeypatch):
    report = search_quartic(equation_by_id("E1"), 1, include_trivial=True)
    fake = VerifyOutcome(target_id="E1", report=report, verdict=VERDICT_COUNTEREXAMPLE)
    monkeypatch.setattr(cli.search, "verify_table", lambda **kwargs: [fake])
    code, out, _ = run_cli(capsys, ["verify-table"])
    assert code == 2
    assert json.loads(out)["verdict"] == "COUNTEREXAMPLE"


@pytest.mark.parametrize(
    "argv",
    [
        ["reduce", "--target", "E4", "--tuple", "1,0,1"],
        ["lift", "--target", "E4", "--tuple", "1,0,0,1"],
        # verify-table replays the maps on its trivial E4 points' cross-checks.
        ["verify-table", "--bound", "5", "--resolvent-bound", "5"],
    ],
    ids=lambda argv: argv[0],
)
def test_internal_invariant_exits_three(capsys, monkeypatch, argv):
    def broken(trace):
        raise InternalInvariantBroken("forced for the test")

    monkeypatch.setattr(cli.reduction, "replay_trace", broken)
    code, out, err = run_cli(capsys, argv)
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


@pytest.mark.parametrize(
    "code",
    [
        "import descent_forge; descent_forge.list_catalog()",
        "from descent_forge import cli; cli.main(['catalog'])",
    ],
)
def test_start_up_imports_no_heavy_stdlib_module(code):
    # -I ignores PYTHONPATH, so the code puts the package's directory on
    # sys.path itself. Modules the bare interpreter already has (site may
    # load typing through a .pth file) are subtracted.
    src = str(Path(cli.__file__).resolve().parents[1])
    report = "; print(*sorted(sys.modules))"
    bare = subprocess.run(
        [sys.executable, "-I", "-c", "import sys" + report],
        capture_output=True, text=True, check=True,
    )
    loaded = subprocess.run(
        [sys.executable, "-I", "-c", f"import sys; sys.path.insert(0, {src!r}); {code}" + report],
        capture_output=True, text=True, check=True,
    )
    # cli.main prints the catalog first; the module list is the last line.
    added = set(loaded.stdout.splitlines()[-1].split()) - set(bare.stdout.split())
    assert "descent_forge.search" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing"}


_FORMATS = ("json", "csv", "text")
_COMMAND_NAMES = ("search", "reduce", "lift", "descend", "residues", "verify-table", "catalog")
_COMMAND_ARGVS = (
    ["search", "--target", "E3", "--bound", "20", "--include-trivial"],
    ["search", "--target", "R1", "--bound", "10", "--include-trivial"],
    ["reduce", "--target", "E4", "--tuple", "1,0,1"],
    ["lift", "--target", "E2", "--tuple", "1,0,1,0"],
    ["descend", "--target", "R1", "--tuple", "1,0,1,0"],
    ["residues", "--target", "R1", "--modulus", "30"],
    ["residues", "--target", "R1", "--nu-bound"],
    ["verify-table", "--bound", "10", "--resolvent-bound", "10"],
    ["catalog"],
)
_USAGE_ARGVS = (
    [],
    ["bogus"],
    ["-h"],
    ["--help"],
    *([name, "--help"] for name in _COMMAND_NAMES),
    ["catalog", "--bogus"],
    ["catalog", "extra"],
    ["search"],
    ["search", "--target", "E1", "--bound", "x"],
    ["search", "--targ", "E1", "--bound", "5"],
    ["reduce", "--target", "E9", "--tuple", "1,0,1"],
    ["reduce", "--target", "E4", "--tuple=a,b"],
    ["residues", "--target", "R1", "--modulus", "3", "--nu-bound"],
    ["residues", "--target", "R1"],
    ["catalog", "--format", "xml"],
    ["search", "--", "x"],
    ["catalog", "--", "x"],
    ["search", "--target", "E1", "--bound", "5", "extra", "--bogus"],
    ["search", "--target", "E1", "-h"],
    ["search", "--target", "E1", "--target", "R1", "--bound", "5"],
    ["catalog", "--form", "csv"],
    ["search", "--target", "E1", "--format"],
)


@pytest.mark.parametrize(
    "argv",
    [argv + ["--format", fmt] for argv in _COMMAND_ARGVS for fmt in _FORMATS] + list(_USAGE_ARGVS),
    ids=lambda argv: " ".join(argv) or "no-arguments",
)
def test_one_command_parser_matches_the_full_tree(capsys, monkeypatch, argv):
    one_command = run_cli(capsys, argv)
    monkeypatch.setattr(cli, "_parse_args", lambda argv: cli.build_parser().parse_args(argv))
    assert run_cli(capsys, argv) == one_command


@pytest.mark.parametrize("argv", _COMMAND_ARGVS, ids=" ".join)
def test_one_command_parser_sets_the_full_tree_namespace(argv):
    # Namespaces, not rendered bytes: a missing ``command`` default would
    # show here even where the output happened to agree.
    parsed = cli._command_parser(argv[0]).parse_known_args(argv[1:])
    assert parsed == (cli.build_parser().parse_args(argv), [])


@pytest.mark.parametrize(
    "argv, parsers",
    [
        (["catalog"], 1),
        (["search", "--target", "E1", "--bound", "5"], 1),
        (["catalog", "extra"], 9),
        ([], 8),
        (["--help"], 8),
        (["bogus"], 8),
    ],
    ids=lambda value: (" ".join(value) or "no-arguments") if isinstance(value, list) else str(value),
)
def test_main_builds_only_the_invoked_command_parser(capsys, monkeypatch, argv, parsers):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.main(argv)
    capsys.readouterr()
    assert len(built) == parsers
