"""Workload inputs and the ops that drive descent_forge's public API.

A pass is a list of ops. Each op has a reference key, a kind and a
zero-argument call into the package; the call's outcome is canonicalised
after the pass (outside the timed region) and checked against the
recorded reference. Every op a seeded generator can draw comes from a
finite domain listed here, and the reference holds an entry for every
member of that domain, so an unseen seed is still checked.

Ops look package functions up through their module at call time, so the
traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

from descent_forge import cli, core_arith, descent
from descent_forge.errors import DescentForgeError, StageFailure

WORKLOADS = ("table-quartic", "table-resolvent", "cli-burst")
FORMATS = ("json", "csv", "text")
QUARTIC_IDS = ("E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "X1")

# The two verify-table scans, and the toy sizes the self-check uses.
# One worker each: the package's search pool is threads under one
# interpreter lock, so two workers add no speed on verify-table 600/60
# and their lock hand-offs roughly double the run-to-run spread on a
# shared host. cli-burst runs its searches with --threads 2.
TABLES = {
    "table-quartic": {"bound": 600, "resolvent_bound": 60, "threads": 1},
    "table-resolvent": {"bound": 100, "resolvent_bound": 350, "threads": 1},
}
TOY_TABLES = {
    "table-quartic": {"bound": 40, "resolvent_bound": 20, "threads": 1},
    "table-resolvent": {"bound": 20, "resolvent_bound": 40, "threads": 1},
}

CLI_SEARCH_BOUNDS = (10, 15, 20, 25, 30)
CLI_MODULI = range(2, 31)
# Commands per class in one cli-burst pass (200 in all), set from measured
# per-class time: one default verify-table costs about 120 ms against
# 1.5-4 ms for the other commands, so with one per pass no class takes
# more than about a quarter of the pass time (shares in bench/README.md;
# each run's result file lists them as time_share_by_kind).
CLI_MIX = {
    "search-quartic": 60,
    "search-resolvent": 20,
    "reduce": 30,
    "lift": 20,
    "descend": 20,
    "residues-modulus": 30,
    "residues-nu-bound": 9,
    "catalog": 10,
    "verify-table": 1,
}
# Descent-stage chains per pass, called through the library: no command
# reaches the stages, since R1 has no nontrivial point to descend from.
# Each takes about 35 us, so together they are well under 1 % of a pass.
STAGE_DRAWS = 20
GENERATOR_LIMIT = 40


@dataclass(frozen=True)
class Op:
    key: str
    kind: str
    call: Callable[[], object]
    # Work items the op stands for in the workload's rate (cells, pairs or
    # calls), counted from the input.
    work: int = 1


# -- arithmetic the benchmark does itself -------------------------------------


def analysis_modulus(modulus: int) -> int:
    """Modulus the residue enumeration runs at: odd as given, even at 2-adic depth 3."""
    two_adic = (modulus & -modulus).bit_length() - 1
    return modulus if two_adic == 0 else modulus << max(0, 3 - two_adic)


def residue_classes(modulus: int) -> int:
    """Pairs one residue_obstruction call enumerates: deep^2 on each side."""
    return 2 * analysis_modulus(modulus) ** 2


def quartic_cells(bound: int) -> int:
    return (bound + 1) ** 2


def _omega_sieve(limit: int) -> list[int]:
    """omega[n] = number of distinct primes dividing n, for n <= limit."""
    omega = [0] * (limit + 1)
    for p in range(2, limit + 1):
        if omega[p] == 0:
            for multiple in range(p, limit + 1, p):
                omega[multiple] += 1
    return omega


def resolvent_work(bound: int) -> dict[str, int]:
    """Counts for one resolvent scan at this bound, from the input alone.

    pairs: the (x, y) grid; coprime_pairs: those with gcd 1;
    divisor_candidates: sum of 2^omega(x*y) over coprime pairs with
    x*y != 0, the unitary-divisor splits of x*y the scan tests.
    """
    omega = _omega_sieve(bound)
    coprime = candidates = 0
    for x in range(bound + 1):
        for y in range(bound + 1):
            if math.gcd(x, y) != 1:
                continue
            coprime += 1
            if x and y:
                candidates += 1 << (omega[x] + omega[y])
    return {"pairs": (bound + 1) ** 2, "coprime_pairs": coprime, "divisor_candidates": candidates}


# -- canonical outcomes ---------------------------------------------------------


def canonical(value):
    """JSON-ready form of a call's result or raised exception."""
    if isinstance(value, BaseException):
        out = {"raised": type(value).__name__}
        if isinstance(value, StageFailure):
            out.update(stage=value.stage, values=canonical(value.values))
        return out
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, dict):
        return {str(key): canonical(item) for key, item in value.items()}
    return value


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest(outcome) -> str:
    return sha256_text(json.dumps(canonical(outcome), sort_keys=True, separators=(",", ":")))


def _guarded(fn: Callable[[], object]) -> Callable[[], object]:
    """Run fn; the package's own errors are outcomes, anything else propagates."""

    def call():
        try:
            return fn()
        except DescentForgeError as exc:
            return exc

    return call


# -- table workloads --------------------------------------------------------------


def run_cli(argv: list[str]) -> tuple[int, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        status = cli.main(argv)
    return status, stdout.getvalue()


def table_argv(spec: dict) -> list[str]:
    return [
        "verify-table",
        "--bound", str(spec["bound"]),
        "--resolvent-bound", str(spec["resolvent_bound"]),
        "--threads", str(spec["threads"]),
    ]


def table_key(spec: dict) -> str:
    return " ".join(table_argv(spec))


def table_pass(workload: str, spec: dict) -> list[Op]:
    """One verify-table run; its work is the quartic cells or the resolvent pairs."""
    if workload == "table-quartic":
        work = len(QUARTIC_IDS) * quartic_cells(spec["bound"])
    else:
        work = 2 * quartic_cells(spec["resolvent_bound"])
    argv = table_argv(spec)
    return [Op(table_key(spec), "table", lambda: run_cli(argv), work)]


# -- cli-burst ---------------------------------------------------------------------------


def primitive_e4_points() -> list[tuple[int, int, int]]:
    """The trivial points of E4 (x^4 + 6x^2y^2 + y^4 = z^2) the reduction accepts.

    With x*y = 0, E4 reads z = +-x^2 or z = +-y^2, and sextic_to_resolvent
    needs gcd(x, y) = 1, so these are (+-1, 0, +-1) and (0, +-1, +-1).
    E2 has none: forward_reduce_biquadratic refuses every trivial input.
    """
    out = []
    for s in (1, -1):
        for sz in (1, -1):
            out += [(s, 0, sz), (0, s, sz)]
    return out


def trivial_r1_tuples() -> list[tuple[int, int, int, int]]:
    """All trivial solutions of R1: x*y = 0 forces (+-1, 0) against (+-1, 0) or (0, +-1)."""
    out = []
    for sx in (1, -1):
        for sp in (1, -1):
            out.append((sx, 0, sp, 0))
            out.append((sx, 0, 0, sp))
    return out


def generator_pairs(limit: int) -> list[tuple[int, int]]:
    """Coprime (u, v), u > v >= 1, of opposite parity: primitive triple generators."""
    return [
        (u, v)
        for u in range(2, limit + 1)
        for v in range(1, u)
        if (u - v) % 2 == 1 and math.gcd(u, v) == 1
    ]


def _stage_chain(u: int, v: int) -> dict:
    """Descent-stage calls on inputs built from the primitive triple (a, b, c) of (u, v).

    The stages see p = a, q = c, r = 1, s = b, so x = a*c, y = b,
    x' = a, y' = b*c. Each stage reaches its last check: the four-gcd
    split and the first inner triple (a, b, c) succeed, while the
    rearranged identity, the difference form and the second inner triple
    fail, as they must on any input, since R1 has no nontrivial point.
    """
    a, b, c = u * u - v * v, 2 * u * v, u * u + v * v
    calls = {
        "pythagorean": lambda: core_arith.pythagorean_decompose(a, b, c),
        "coprime_split": lambda: core_arith.coprime_split(a * c, b, a, b * c),
        "nu": lambda: core_arith.nu(a * b * c),
        "split": lambda: descent.split_stage(a * c, b, a, b * c),
        "sum_difference": lambda: descent.sum_difference_stage(a, c, 1, b),
        "inner_triples": lambda: descent.inner_triples_stage(a, c, 1, b),
    }
    return {kind: _guarded(call)() for kind, call in calls.items()}


def _stage_op(u: int, v: int) -> Op:
    return Op(f"stages:{u},{v}", "stages", lambda: _stage_chain(u, v))


def _tuple_text(values) -> str:
    return ",".join(str(v) for v in values)


def cli_class_domain() -> dict[str, list[list[str]]]:
    """For each command class of the burst, every argv it can draw."""
    r1 = trivial_r1_tuples()
    # Tuples go in as --tuple=..., since argparse takes a separate
    # "-1,0,1" for an option and would reject every negative variant.
    domain = {
        "search-quartic": [
            ["search", "--target", target, "--bound", str(bound), "--threads", "2"] + extra
            for target in QUARTIC_IDS
            for bound in CLI_SEARCH_BOUNDS
            for extra in ([], ["--include-trivial"])
        ],
        "search-resolvent": [
            ["search", "--target", target, "--bound", str(bound), "--threads", "2"] + extra
            for target in ("R1", "R2")
            for bound in CLI_SEARCH_BOUNDS
            for extra in ([], ["--include-trivial"])
        ],
        "reduce": [["reduce", "--target", "E4", "--tuple=" + _tuple_text(p)] for p in primitive_e4_points()],
        "lift": [
            ["lift", "--target", eq_id, "--tuple=" + _tuple_text(quad)]
            for eq_id in ("E2", "E4")
            for quad in r1
        ],
        "descend": [["descend", "--target", "R1", "--tuple=" + _tuple_text(quad)] for quad in r1],
        "residues-modulus": [
            ["residues", "--target", target, "--modulus", str(m)]
            for target in ("R1", "R2")
            for m in CLI_MODULI
        ],
        "residues-nu-bound": [["residues", "--target", t, "--nu-bound"] for t in ("R1", "R2")],
        "catalog": [["catalog"]],
        "verify-table": [["verify-table"]],
    }
    return {
        name: [argv + ["--format", fmt] for argv in argvs for fmt in FORMATS]
        for name, argvs in domain.items()
    }


def _cli_op(name: str, argv: list[str]) -> Op:
    return Op(" ".join(argv), f"cli:{name}", lambda: run_cli(argv))


def burst_pass(rng: random.Random, scale: float = 1.0) -> list[Op]:
    domain = cli_class_domain()
    ops = []
    for name, count in CLI_MIX.items():
        ops += [_cli_op(name, rng.choice(domain[name])) for _ in range(max(1, int(count * scale)))]
    pairs = rng.sample(generator_pairs(GENERATOR_LIMIT), max(1, int(STAGE_DRAWS * scale)))
    ops += [_stage_op(u, v) for u, v in pairs]
    rng.shuffle(ops)
    return ops


def burst_domain() -> list[Op]:
    """Every op burst_pass can draw."""
    ops = [_cli_op(name, argv) for name, argvs in cli_class_domain().items() for argv in argvs]
    return ops + [_stage_op(u, v) for u, v in generator_pairs(GENERATOR_LIMIT)]


# -- entry points -----------------------------------------------------------------------


def pass_ops(workload: str, seed: int, index: int, toy: bool = False) -> list[Op]:
    """The ops of pass `index` of a run with this seed."""
    if workload in TABLES:
        return table_pass(workload, (TOY_TABLES if toy else TABLES)[workload])
    if workload == "cli-burst":
        rng = random.Random(f"{workload}:{seed}:{index}")
        return burst_pass(rng, 0.25 if toy else 1.0)
    raise ValueError(f"unknown workload {workload!r}")
