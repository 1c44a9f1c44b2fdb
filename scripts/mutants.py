"""Mutation check: each mutant breaks one rule, and named tests must catch it.

Usage, from anywhere in a checkout:

    python3 scripts/mutants.py

Each row of MUTANTS names a file under src/, an exact snippet in it, its
replacement, and the test ids that pin the rule the snippet states. For
each row the script copies src/, tests/, bench/ and scripts/ (the
architecture test reads the last two) to a temporary directory, applies
the replacement there and runs the named tests with pytest; the
mutant is killed when they fail. The named tests are first run once on an
unmutated copy, where they must pass.

Exits 1 if a mutant survives, if a snippet does not occur exactly once in
its file (so the table cannot go stale silently), or if a run neither
passes nor fails (a test id that no longer exists, a collection error);
else 0. Needs pytest and hypothesis, as the tests do. The 49 rows take
57-69 s on a 2-vCPU host.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/descent_forge"

# (description, file, old snippet, new snippet, test ids)
MUTANTS = (
    (
        "split forms return (N, D) instead of (D, N)",
        f"{PACKAGE}/equations.py",
        "return self.m * q * q - self.k * r * r, self.l * q * q - self.n * r * r",
        "return self.l * q * q - self.n * r * r, self.m * q * q - self.k * r * r",
        (
            "tests/test_equations.py::test_split_forms_of_the_resolvents",
            "tests/test_equations.py::test_split_point_solves_the_system_iff_p2_d_equals_s2_n",
        ),
    ),
    (
        "twin-triple replay ignores alpha",
        f"{PACKAGE}/reduction.py",
        'i["t"], i["alpha"])',
        'i["t"], o["lam"] ** 2 + o["gam"] ** 2)',
        ("tests/test_reduction.py::test_replay_rejects_a_tampered_twin_triple_side",),
    ),
    (
        "twin-triple replay ignores beta",
        f"{PACKAGE}/reduction.py",
        'i["beta"], i["t"], i["s"])',
        'o["lam_p"] ** 2 - o["gam_p"] ** 2, i["t"], i["s"])',
        ("tests/test_reduction.py::test_replay_rejects_a_tampered_twin_triple_side",),
    ),
    (
        "descent replay does not tie s to 2*s0*t0, so the step need not descend",
        f"{PACKAGE}/reduction.py",
        '_generated(o["s0"], o["t0"], p, s, q)',
        '_generated(o["s0"], o["t0"], p, 2 * o["s0"] * o["t0"], q)',
        ("tests/test_reduction.py::test_replay_rejects_inner_triples_off_the_shared_leg",),
    ),
    (
        "descent replay does not check that the split rebuilds the source",
        f"{PACKAGE}/reduction.py",
        "        (p * q, r * s, p * r, q * s) == _point(i)\n        and all(",
        "        all(",
        ("tests/test_reduction.py::test_replay_rejects_a_tampered_descent_step[split does not rebuild the source]",),
    ),
    (
        "descent replay accepts split parts that share a factor",
        f"{PACKAGE}/reduction.py",
        "        and all(math.gcd(a, b) == 1 for a, b in combinations((p, q, r, s), 2))\n",
        "",
        ("tests/test_reduction.py::test_replay_rejects_a_tampered_descent_step[split parts share a factor]",),
    ),
    (
        "descent replay does not check p^2 D = s^2 N",
        f"{PACKAGE}/reduction.py",
        "        and p * p * d_value == s * s * n_value\n",
        "",
        ("tests/test_reduction.py::test_replay_rejects_a_tampered_descent_step[split fails p^2 D = s^2 N]",),
    ),
    (
        "descent replay does not check q^2 = p^2 + s^2",
        f"{PACKAGE}/reduction.py",
        'o["sum"] == p * p + s * s == q * q and ',
        "",
        ("tests/test_reduction.py::test_replay_rejects_a_tampered_descent_step[q^2 is not p^2 + s^2]",),
    ),
    (
        "descent replay does not check r^2 = p^2 - s^2",
        f"{PACKAGE}/reduction.py",
        ' and o["difference"] == p * p - s * s == r * r',
        "",
        ("tests/test_reduction.py::test_replay_rejects_a_tampered_descent_step[r^2 is not p^2 - s^2]",),
    ),
    (
        "descent replay does not tie (s0, t0) to q",
        f"{PACKAGE}/reduction.py",
        'p, s, q) and _generated(',
        'p, s, o["s0"] ** 2 + o["t0"] ** 2) and _generated(',
        ("tests/test_reduction.py::test_replay_rejects_a_tampered_descent_step[(s0, t0) does not generate (p, s, q)]",),
    ),
    (
        "descent replay ignores the triple (r, s, p)",
        f"{PACKAGE}/reduction.py",
        ' and _generated(o["s0p"], o["t0p"], r, s, p)',
        "",
        ("tests/test_reduction.py::test_replay_rejects_a_tampered_descent_step[(s0p, t0p) does not generate (r, s, p)]",),
    ),
    (
        "an Assemble into R1 does not compare the output with its inputs",
        f"{PACKAGE}/reduction.py",
        "return quad == tuple(i[name] for name in names) and check_resolvent(R1, *quad)",
        "return check_resolvent(R1, *quad)",
        ("tests/test_reduction.py::test_replay_rejects_a_tampered_descent_step[output is not the generators]",),
    ),
    (
        "an Assemble into R1 does not check R1",
        f"{PACKAGE}/reduction.py",
        "return quad == tuple(i[name] for name in names) and check_resolvent(R1, *quad)",
        "return quad == tuple(i[name] for name in names)",
        ("tests/test_reduction.py::test_replay_rejects_a_tampered_descent_step[output is off R1]",),
    ),
    (
        "replay does not compare final with the last step",
        f"{PACKAGE}/reduction.py",
        "    if final.named() != last:",
        "    if False:",
        ("tests/test_reduction.py::test_replay_rejects_a_replaced_final",),
    ),
    (
        "replay does not check the stage sequence",
        f"{PACKAGE}/reduction.py",
        "    if not sequence or stages != expected:",
        "    if not sequence:",
        (
            "tests/test_reduction.py::test_replay_rejects_reversed_steps",
            "tests/test_reduction.py::test_replay_rejects_a_dropped_step",
        ),
    ),
    (
        "two E2->R1 steps share the generators dict",
        f"{PACKAGE}/reduction.py",
        "TraceStep(STAGE_ASSEMBLE, dict(generators), result.named())",
        "TraceStep(STAGE_ASSEMBLE, generators, result.named())",
        ("tests/test_reduction.py::test_every_map_returns_a_frozen_trace_whose_steps_own_their_dicts",),
    ),
    (
        "descent step runs its stages on signed values",
        f"{PACKAGE}/descent.py",
        "    source = x, y, xp, yp = tuple(canonical.values())\n",
        "    source = tuple(canonical.values())\n",
        ("tests/test_descent.py::test_descent_step_runs_its_stages_in_order_on_absolute_values",),
    ),
    (
        "a descent step assembles its output outside the stage guard",
        f"{PACKAGE}/descent.py",
        "    with stage(STAGE_ASSEMBLE, generators):\n        output = resolvent_solution(",
        "    output = resolvent_solution(",
        ("tests/test_descent.py::test_descent_chain_reports_a_refused_assembly_as_a_stage_failure",),
    ),
    (
        "descent checks its input by hand before building the record",
        f"{PACKAGE}/descent.py",
        "    point = resolvent_solution(system, x, y, xp, yp)\n",
        "    if x * y and x * x - y * y != xp * xp + yp * yp:\n"
        '        raise NotASolution(f"({x}, {y}, {xp}, {yp}) does not satisfy R1")\n'
        "    point = resolvent_solution(system, x, y, xp, yp)\n",
        ("tests/test_architecture.py::test_one_home[not_a_solution_raised_only_in_equations]",),
    ),
    (
        "replay lets a malformed step's KeyError or TypeError escape",
        f"{PACKAGE}/reduction.py",
        "        except (KeyError, TypeError):",
        "        except ArithmeticError:",
        (
            "tests/test_reduction.py::test_replay_refuses_a_malformed_step[E4->R1-deleted key]",
            "tests/test_reduction.py::test_replay_refuses_a_malformed_step[E4->R1-string value]",
            "tests/test_reduction.py::test_replay_refuses_a_malformed_step[R1->R1-deleted key]",
            "tests/test_reduction.py::test_replay_refuses_a_malformed_step[R1->R1-string value]",
        ),
    ),
    (
        "2-adic analysis depth 2 instead of 3",
        f"{PACKAGE}/descent.py",
        "depth = max(exponent, 3) if prime == 2 else exponent",
        "depth = max(exponent, 2) if prime == 2 else exponent",
        (
            "tests/test_descent.py::test_mod_2_obstruction_is_forced",
            "tests/test_descent.py::test_analysis_modulus_takes_the_2_part_to_depth_3",
        ),
    ),
    (
        "maps served from an import-time dict",
        f"{PACKAGE}/reduction.py",
        '    if eq_id == "E2":\n',
        "    return _IMPORT_TIME_MAPS[eq_id]\n\n\n"
        "_IMPORT_TIME_MAPS = {\n"
        '    "E2": (forward_reduce_biquadratic, backward_lift_biquadratic),\n'
        '    "E4": (sextic_to_resolvent, resolvent_to_sextic),\n'
        "}\n\n\n"
        "def _maps_by_name(eq_id):\n"
        '    if eq_id == "E2":\n',
        ("tests/test_cli.py::test_stage_failure_exits_two_with_error_document",),
    ),
    (
        "a record takes extra positional arguments",
        f"{PACKAGE}/_value.py",
        "if len(args) > len(names):",
        "if False:",
        ("tests/test_equations.py::test_record_value_classes",),
    ),
    (
        "a record accepts a keyword repeating a positional field",
        f"{PACKAGE}/_value.py",
        "        if kwargs:\n",
        "        if kwargs.keys() - set(names):\n",
        ("tests/test_equations.py::test_record_value_classes",),
    ),
    (
        "VerifyOutcome shares a list default",
        f"{PACKAGE}/search.py",
        '_defaults = {"cross_checks": ()}',
        '_defaults = {"cross_checks": []}',
        ("tests/test_search.py::test_verify_outcome_value_class",),
    ),
    (
        "partitions floored instead of rounded up",
        f"{PACKAGE}/search.py",
        "partitions=-(-(bound + 1) // _CHUNK_ROWS),",
        "partitions=(bound + 1) // _CHUNK_ROWS,",
        ("tests/test_search.py::test_partitions_count_128_row_blocks",),
    ),
    (
        "a command parser sets no command default",
        f"{PACKAGE}/cli.py",
        "parser.set_defaults(command=name)",
        "parser.set_defaults()",
        ("tests/test_cli.py::test_one_command_parser_sets_the_full_tree_namespace",),
    ),
    (
        "coprime scans drop y = 0 at x = 1",
        f"{PACKAGE}/search.py",
        "if not require_coprime or x == 1:",
        "if not require_coprime:",
        (
            "tests/test_search.py::test_biquadratic_scan_is_empty_but_counts_trivial_orbits",
            "tests/test_search.py::test_quartic_scan_canonical_listing",
        ),
    ),
    (
        "sieve targets are squares, not d times squares",
        f"{PACKAGE}/search.py",
        "targets = {d * s % m for s in squares}",
        "targets = {s % m for s in squares}",
        ("tests/test_search.py::test_square_flag_tables_match_brute_force",),
    ),
    (
        "a component without survivors does not force the modulus",
        f"{PACKAGE}/descent.py",
        "forced=all(value == 0 for value in surviving),",
        "forced=surviving == {0},",
        ("tests/test_descent.py::test_synthetic_oracle_systems_reach_the_empty_and_unforced_cases",),
    ),
    (
        "the resolvent record names xp and yp swapped",
        f"{PACKAGE}/equations.py",
        'coordinates = ("x", "y", "xp", "yp")',
        'coordinates = ("x", "y", "yp", "xp")',
        ("tests/test_equations.py::test_record_value_classes",),
    ),
    (
        "the exact-root helper lets a missing second root through",
        f"{PACKAGE}/reduction.py",
        "    if None in roots.values():",
        "    if next(iter(roots.values())) is None:",
        ("tests/test_reduction.py::test_a_missing_exact_root_is_a_stage_failure",),
    ),
    (
        "canonicalization records no sign change",
        f"{PACKAGE}/reduction.py",
        "signs = {name: (-1 if value < 0 else 1) for name, value in named.items()}",
        "signs = {name: 1 for name, value in named.items()}",
        ("tests/test_reduction.py::test_backward_lift_canonicalizes_signs",),
    ),
    (
        "canonicalization keeps a coordinate's sign",
        f"{PACKAGE}/reduction.py",
        "return {name: abs(value) for name, value in named.items()}, signs",
        "return dict(named), signs",
        (
            "tests/test_reduction.py::test_backward_lift_canonicalizes_signs",
            "tests/test_reduction.py::test_replay_accepts_a_signed_input_but_not_a_signed_source",
        ),
    ),
    (
        "replay accepts a negative source",
        f"{PACKAGE}/reduction.py",
        "if any(value < 0 for value in source) or ",
        "if ",
        ("tests/test_reduction.py::test_replay_accepts_a_signed_input_but_not_a_signed_source",),
    ),
    (
        "replay accepts sign changes out of order",
        f"{PACKAGE}/reduction.py",
        "tuple(signs) != point.coordinates",
        "set(signs) != set(point.coordinates)",
        ("tests/test_reduction.py::test_replay_rejects_an_uncanonical_source_or_sign_changes",),
    ),
    (
        "replay accepts a sign change other than 1 or -1",
        f"{PACKAGE}/reduction.py",
        " or set(signs.values()) - {1, -1}:",
        ":",
        ("tests/test_reduction.py::test_replay_rejects_an_uncanonical_source_or_sign_changes",),
    ),
    (
        "E4->R1 replay does not tie (t, s) to x and y",
        f"{PACKAGE}/reduction.py",
        ' and i["t"] == x * x + y * y and i["s"] == 2 * x * y',
        "",
        ("tests/test_reduction.py::test_replay_rejects_a_symmetric_triple_not_built_from_x_and_y",),
    ),
    (
        "a map returns its trace without replaying it",
        f"{PACKAGE}/reduction.py",
        "return replay_trace(ReductionTrace(kind, source, signs, tuple(steps), final))",
        "return ReductionTrace(kind, source, signs, tuple(steps), final)",
        (
            "tests/test_reduction.py::test_replay_accepts_a_signed_input_but_not_a_signed_source",
            "tests/test_cli.py::test_internal_invariant_exits_three",
        ),
    ),
    (
        "a --tuple metavar in lower case",
        f"{PACKAGE}/cli.py",
        'metavar=",".join(point.coordinates).upper())',
        'metavar=",".join(point.coordinates))',
        ("tests/test_cli.py::test_point_commands_name_the_coordinates_in_their_usage",),
    ),
    (
        "the reduce row takes a resolvent point",
        f"{PACKAGE}/cli.py",
        "_map_arguments(QuarticSolution)",
        "_map_arguments(ResolventSolution)",
        (
            "tests/test_cli.py::test_point_commands_name_the_coordinates_in_their_usage",
            "tests/test_cli.py::test_reduce_command_trace",
        ),
    ),
    (
        "a quartic point runs the lift",
        f"{PACKAGE}/cli.py",
        "(reduce if args.point is QuarticSolution else lift)",
        "lift",
        ("tests/test_cli.py::test_reduce_command_trace",),
    ),
    (
        "the catalog row runs another command's handler",
        f"{PACKAGE}/cli.py",
        "lambda sub: None, _cmd_catalog)",
        "lambda sub: None, _cmd_verify_table)",
        ("tests/test_cli.py::test_catalog_document",),
    ),
    (
        "an exported helper that no pipeline calls",
        f"{PACKAGE}/__init__.py",
        '__version__ = "0.1.0"\n\n__all__ = [\n',
        '__version__ = "0.1.0"\n\n\n'
        "def gcd(a, b):\n"
        "    return abs(a) if b == 0 else gcd(b, a % b)\n\n\n"
        "__all__ = [\n"
        '    "gcd",\n',
        ("tests/test_architecture.py::test_every_export_is_reached_by_a_pipeline",),
    ),
    (
        "descent imports search, a module beside it",
        f"{PACKAGE}/descent.py",
        "from . import reduction\n",
        "from . import reduction, search\n",
        ("tests/test_architecture.py::test_module_imports_only_lower_layers[descent]",),
    ),
    (
        "search imports cli",
        f"{PACKAGE}/search.py",
        "from . import reduction\n",
        "from . import cli, reduction\n",
        ("tests/test_architecture.py::test_module_imports_only_lower_layers[search]",),
    ),
    (
        "search imports typing",
        f"{PACKAGE}/search.py",
        "import math\nimport os\n",
        "import math\nimport os\nimport typing\n",
        ("tests/test_architecture.py::test_no_banned_standard_import[search]",),
    ),
    (
        "search replays a map's trace again",
        f"{PACKAGE}/search.py",
        "lift(*reduce(x, y, z).final.as_tuple())",
        "lift(*reduction.replay_trace(reduce(x, y, z)).final.as_tuple())",
        ("tests/test_architecture.py::test_one_home[replay_trace_called_only_in_reduction]",),
    ),
    (
        "a command parser sets its handler a second time",
        f"{PACKAGE}/cli.py",
        "parser.set_defaults(command=name)",
        "parser.set_defaults(command=name, handler=_COMMANDS[name][2])",
        ("tests/test_architecture.py::test_one_home[handler_default_set_once_in_cli]",),
    ),
)


def _run_tests(tree: Path, test_ids) -> int:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *test_ids]
    done = subprocess.run(command, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return done.returncode


def _copy_tree(scratch: str) -> Path:
    tree = Path(tempfile.mkdtemp(dir=scratch))
    for name in ("src", "tests", "bench", "scripts"):
        shutil.copytree(ROOT / name, tree / name, ignore=shutil.ignore_patterns("__pycache__", "results"))
    return tree


def main() -> int:
    problems = []
    for description, path, old, _, _ in MUTANTS:
        count = (ROOT / path).read_text().count(old)
        if count != 1:
            problems.append(f"stale row ({description}): snippet occurs {count} times in {path}")
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1

    with tempfile.TemporaryDirectory() as scratch:
        all_ids = sorted({test_id for *_, test_ids in MUTANTS for test_id in test_ids})
        status = _run_tests(_copy_tree(scratch), all_ids)
        if status != 0:
            print(f"unmutated copy: the named tests exit {status}, not 0", file=sys.stderr)
            return 1
        for description, path, old, new, test_ids in MUTANTS:
            tree = _copy_tree(scratch)
            target = tree / path
            target.write_text(target.read_text().replace(old, new))
            status = _run_tests(tree, test_ids)
            verdict = {0: "SURVIVED", 1: "killed"}.get(status, f"broken run (pytest exit {status})")
            print(f"{verdict}: {description}")
            if status != 1:
                problems.append(description)
    print(f"{len(MUTANTS) - len(problems)} of {len(MUTANTS)} mutants killed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
