"""Command-line front end.

One invocation runs one command and writes exactly one report document to
standard output; diagnostics go to standard error. JSON output is
canonical (sorted keys, compact separators, trailing newline) so repeated
runs are byte-comparable. Exit statuses: 0 success or CONSISTENT, 1 usage
error (including inputs outside an operation's domain), 2 COUNTEREXAMPLE
or StageFailure, 3 broken internal invariant.

Each ``main`` call builds its own argparse parser and drops it on return.
When the first argument is a command name, that parser is the command's
own (1 parser instead of the full tree's 8), and ``main`` hands it the
rest of the arguments exactly as argparse's subparsers action would;
building the other parsers was most of the cost of a short call. Anything
else (no argument, ``--help``, an unknown command, a leading option) and
a named command that leaves arguments unrecognized get the full tree, so
its usage lines and errors are the ones printed. There is deliberately no
once-per-process parser cache: a cached tree leaves the collector no
garbage per call, and in the benchmark's closed loop that makes full
collections so rare that reference cycles the harness keeps pile up and
raise peak memory (ROADMAP, item 2).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import descent, reduction, search
from .equations import equation_by_id, list_catalog, resolvent_by_id
from .errors import (
    DescentForgeError,
    InternalInvariantBroken,
    StageFailure,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FINDING = 2
EXIT_INVARIANT = 3

_QUARTIC_IDS = tuple(entry.equation.id for entry in list_catalog())
_RESOLVENT_IDS = ("R1", "R2")


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with status 1, not 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _tuple_arg(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part.strip()) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _require_arity(values: tuple[int, ...], arity: int) -> tuple[int, ...]:
    if len(values) != arity:
        raise ValueError(f"expected {arity} comma-separated integers, got {len(values)}")
    return values


def _search_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--target", required=True, help="equation or resolvent id, e.g. E2 or R1")
    sub.add_argument("--bound", type=int, default=None, help="grid bound (defaults: quartic 100, resolvent 60)")
    sub.add_argument("--include-trivial", action="store_true", help="list trivial solutions too")
    sub.add_argument(
        "--no-coprime",
        dest="require_coprime",
        action="store_false",
        help="drop the gcd(x, y) = 1 filter (quartic targets only)",
    )
    sub.add_argument("--threads", type=int, default=None, help="validated only; scans run on one thread")
    sub.set_defaults(handler=_cmd_search)


def _reduce_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--target", required=True, choices=("E2", "E4"))
    sub.add_argument("--tuple", required=True, type=_tuple_arg, dest="values", metavar="X,Y,Z")
    sub.set_defaults(handler=_cmd_reduce)


def _lift_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--target", required=True, choices=("E2", "E4"))
    sub.add_argument("--tuple", required=True, type=_tuple_arg, dest="values", metavar="X,Y,XP,YP")
    sub.set_defaults(handler=_cmd_lift)


def _descend_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--target", default="R1", help="resolvent id (only R1 is supported)")
    sub.add_argument("--tuple", required=True, type=_tuple_arg, dest="values", metavar="X,Y,XP,YP")
    sub.set_defaults(handler=_cmd_descend)


def _residues_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--target", required=True, help="resolvent id, e.g. R1")
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--modulus", type=int, help="single modulus to analyze")
    group.add_argument(
        "--nu-bound",
        action="store_true",
        help="report the factor-count lower bound with its supporting analyses",
    )
    sub.set_defaults(handler=_cmd_residues)


def _verify_table_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--bound", type=int, default=search.DEFAULT_QUARTIC_BOUND, help="quartic grid bound")
    sub.add_argument(
        "--resolvent-bound",
        type=int,
        default=search.DEFAULT_RESOLVENT_BOUND,
        help="resolvent grid bound",
    )
    sub.add_argument("--threads", type=int, default=None, help="validated only; scans run on one thread")
    sub.set_defaults(handler=_cmd_verify_table)


def _catalog_arguments(sub: argparse.ArgumentParser) -> None:
    sub.set_defaults(handler=_cmd_catalog)


# Command name -> (help text, function adding the command's own arguments),
# in the order the top-level help lists them.
_COMMANDS = {
    "search": ("bounded exhaustive search on one catalog or resolvent target", _search_arguments),
    "reduce": ("map a quartic solution down to its resolvent", _reduce_arguments),
    "lift": ("map a resolvent solution up to a quartic solution", _lift_arguments),
    "descend": ("run the descent chain on a resolvent solution", _descend_arguments),
    "residues": ("residue-class obstruction analysis for a resolvent", _residues_arguments),
    "verify-table": ("scan every catalog target and report verdicts", _verify_table_arguments),
    "catalog": ("list the equation catalog and the resolvent systems", _catalog_arguments),
}


def _add_command_arguments(parser: argparse.ArgumentParser, name: str) -> None:
    parser.add_argument(
        "--format",
        choices=("json", "csv", "text"),
        default="json",
        help="output document format (default json)",
    )
    parser.add_argument(
        "--timing",
        action="store_true",
        help="include elapsed_ms in reports (off by default for byte-stable output)",
    )
    _COMMANDS[name][1](parser)


def _command_parser(name: str) -> _Parser:
    """The parser of one command alone, as the full tree's subparsers action
    would build it (same prog, so the same usage and help), with the
    ``command`` value that action would set as a default."""
    parser = _Parser(prog=f"descent-forge {name}")
    _add_command_arguments(parser, name)
    parser.set_defaults(command=name)
    return parser


def build_parser() -> _Parser:
    """Build the full argument tree, all seven subcommands under the
    top-level parser, fresh on every call (the module docstring says why
    nothing is cached)."""
    parser = _Parser(prog="descent-forge", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (help_text, _) in _COMMANDS.items():
        _add_command_arguments(commands.add_parser(name, help=help_text), name)
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse ``argv`` as ``build_parser().parse_args(argv)`` would, building
    the full tree only when the command's own parser cannot stand in for it."""
    if argv and argv[0] in _COMMANDS:
        args, extras = _command_parser(argv[0]).parse_known_args(argv[1:])
        if not extras:
            return args
    return build_parser().parse_args(argv)


def _cmd_search(args) -> tuple[dict, int]:
    target = args.target
    if target in _RESOLVENT_IDS:
        if not args.require_coprime:
            raise ValueError("coprimality is part of resolvent solution-hood; --no-coprime only applies to quartic targets")
        bound = search.DEFAULT_RESOLVENT_BOUND if args.bound is None else args.bound
        report = search.search_resolvent(
            resolvent_by_id(target),
            bound,
            include_trivial=args.include_trivial,
            threads=args.threads,
        )
    else:
        eq = equation_by_id(target)
        bound = search.DEFAULT_QUARTIC_BOUND if args.bound is None else args.bound
        report = search.search_quartic(
            eq,
            bound,
            require_coprime=args.require_coprime,
            include_trivial=args.include_trivial,
            threads=args.threads,
        )
    return report.to_dict(args.timing), EXIT_OK


def _cmd_reduce(args) -> tuple[dict, int]:
    x, y, z = _require_arity(args.values, 3)
    if args.target == "E2":
        _, trace = reduction.forward_reduce_biquadratic(x, y, z)
    else:
        _, trace = reduction.sextic_to_resolvent(x, y, z)
    reduction.replay_trace(trace)
    return trace.to_dict(), EXIT_OK


def _cmd_lift(args) -> tuple[dict, int]:
    x, y, xp, yp = _require_arity(args.values, 4)
    if args.target == "E2":
        _, trace = reduction.backward_lift_biquadratic(x, y, xp, yp)
    else:
        _, trace = reduction.resolvent_to_sextic(x, y, xp, yp)
    reduction.replay_trace(trace)
    return trace.to_dict(), EXIT_OK


def _cmd_descend(args) -> tuple[dict, int]:
    x, y, xp, yp = _require_arity(args.values, 4)
    trace = descent.descent_chain(x, y, xp, yp, system=resolvent_by_id(args.target))
    document = trace.to_dict()
    failed = trace.terminal is not None and trace.terminal.kind == descent.TERMINAL_STAGE_FAILURE
    return document, EXIT_FINDING if failed else EXIT_OK


def _cmd_residues(args) -> tuple[dict, int]:
    system = resolvent_by_id(args.target)
    if args.nu_bound:
        bound = descent.nu_lower_bound(system)
        reports = [descent.residue_obstruction(system, modulus).to_dict() for modulus in (2, 3)]
        return {"system": system.id, "nu_lower_bound": bound, "reports": reports}, EXIT_OK
    report = descent.residue_obstruction(system, args.modulus)
    return report.to_dict(), EXIT_OK


def _cmd_verify_table(args) -> tuple[dict, int]:
    outcomes = search.verify_table(
        quartic_bound=args.bound,
        resolvent_bound=args.resolvent_bound,
        threads=args.threads,
    )
    consistent = search.all_consistent(outcomes)
    document = {
        "quartic_bound": args.bound,
        "resolvent_bound": args.resolvent_bound,
        "targets": [outcome.to_dict(args.timing) for outcome in outcomes],
        "verdict": search.VERDICT_CONSISTENT if consistent else search.VERDICT_COUNTEREXAMPLE,
    }
    return document, EXIT_OK if consistent else EXIT_FINDING


def _cmd_catalog(args) -> tuple[dict, int]:
    document = {
        "equations": [
            {
                "id": entry.equation.id,
                "coefficients": [
                    entry.equation.a,
                    entry.equation.b,
                    entry.equation.c,
                    entry.equation.d,
                    entry.equation.e,
                ],
                "form": entry.equation.form(),
                "resolvent": entry.membership,
            }
            for entry in list_catalog()
        ],
        "resolvents": [
            {
                "id": system.id,
                "coefficients": [system.m, system.n, system.k, system.l],
                "form": system.form(),
            }
            for system in (resolvent_by_id("R1"), resolvent_by_id("R2"))
        ],
    }
    return document, EXIT_OK


def _render_json(document: dict) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"


def _csv_rows(document: dict, command: str) -> list[list]:
    if command == "search":
        header = ["x", "y", "xp", "yp"] if document["target"] in _RESOLVENT_IDS else ["x", "y", "z"]
        return [header] + [list(sol) for sol in document["solutions"]]
    if command == "verify-table":
        rows = [["target", "verdict", "solution_count", "orbit_count"]]
        for outcome in document["targets"]:
            rows.append(
                [
                    outcome["target"],
                    outcome["verdict"],
                    len(outcome["report"]["solutions"]),
                    outcome["report"]["orbit_count"],
                ]
            )
        return rows
    if command == "catalog":
        rows = [["id", "kind", "form", "resolvent"]]
        for eq in document["equations"]:
            rows.append([eq["id"], "quartic", eq["form"], eq["resolvent"]])
        for system in document["resolvents"]:
            rows.append([system["id"], "resolvent", system["form"], ""])
        return rows
    rows = [["key", "value"]]
    for key in sorted(document):
        value = document[key]
        rows.append([key, value if isinstance(value, (str, int, float, bool)) else json.dumps(value, sort_keys=True)])
    return rows


def _render_csv(document: dict, command: str) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerows(_csv_rows(document, command))
    return buffer.getvalue()


def _render_text(document: dict, command: str) -> str:
    lines: list[str] = []
    if command == "search":
        options = document["options"]
        lines.append(
            f"{document['target']} bound {document['bound']}"
            f" (coprime={str(options['require_coprime']).lower()},"
            f" trivial={str(options['include_trivial']).lower()})"
        )
        for sol in document["solutions"]:
            lines.append("  " + ", ".join(str(v) for v in sol))
        lines.append(f"solutions: {len(document['solutions'])}")
        lines.append(f"orbit count: {document['orbit_count']}")
    elif command == "verify-table":
        for outcome in document["targets"]:
            report = outcome["report"]
            lines.append(
                f"{outcome['target']}: {outcome['verdict']}"
                f" (solutions {len(report['solutions'])}, orbits {report['orbit_count']})"
            )
        lines.append(f"verdict: {document['verdict']}")
    elif command == "catalog":
        for eq in document["equations"]:
            lines.append(f"{eq['id']}: {eq['form']}  [resolvent: {eq['resolvent']}]")
        for system in document["resolvents"]:
            lines.append(f"{system['id']}: {system['form']}")
    elif command == "residues" and "forced" in document:
        verdict = "forced" if document["forced"] else "not forced"
        lines.append(
            f"{document['system']} mod {document['modulus']}"
            f" (analyzed mod {document['analysis_modulus']}): {verdict};"
            f" surviving products {document['surviving_products']}"
        )
    else:
        return json.dumps(document, sort_keys=True, indent=2) + "\n"
    return "\n".join(lines) + "\n"


def _render(document: dict, fmt: str, command: str) -> str:
    if fmt == "json":
        return _render_json(document)
    if fmt == "csv":
        return _render_csv(document, command)
    return _render_text(document, command)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        document, status = args.handler(args)
    except StageFailure as exc:
        document = {
            "error": "StageFailure",
            "stage": exc.stage,
            "values": exc.values,
            "message": str(exc),
        }
        sys.stdout.write(_render(document, args.format, args.command))
        print(f"descent-forge: {exc}", file=sys.stderr)
        return EXIT_FINDING
    except InternalInvariantBroken as exc:
        print(f"descent-forge: internal invariant broken: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except DescentForgeError as exc:
        print(f"descent-forge: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyError as exc:
        print(f"descent-forge: error: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"descent-forge: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    sys.stdout.write(_render(document, args.format, args.command))
    return status


def console_main() -> None:
    raise SystemExit(main())
