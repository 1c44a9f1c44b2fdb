"""Acceptance suite: one test and one summary line per criterion.

Each test computes its clauses, records a single PASS/FAIL line for the
run summary, and then asserts. Criterion 2's negative control checks that
the residue analysis can answer "unforced" at a prime beyond 2 and 3; it
uses 7, the smallest such prime for R1. Modulus 5 is forced (see the
README for the argument), and that finding is pinned in
`tests/test_descent.py::test_mod_5_obstruction_is_forced_too`.
"""

from __future__ import annotations

import json
import math
import random
import time

import pytest

from descent_forge import cli
from descent_forge.core_arith import (
    coprime_split,
    nu,
    pythagorean_compose,
    pythagorean_decompose,
)
from descent_forge.descent import (
    TERMINAL_STAGE_FAILURE,
    TERMINAL_TRIVIAL_INPUT,
    descent_chain,
    nu_lower_bound,
    residue_obstruction,
)
from descent_forge.equations import R1, equation_by_id, eval_quartic
from descent_forge.errors import NotPrimitive, TrivialInput
from descent_forge.reduction import (
    backward_lift_biquadratic,
    forward_reduce_biquadratic,
    replay_trace,
    resolvent_to_sextic,
    sextic_to_resolvent,
)
from descent_forge.search import search_resolvent, verify_table

SEED = 20260814

_table_cache: list | None = None


def _table_outcomes():
    global _table_cache
    if _table_cache is None:
        _table_cache = verify_table(quartic_bound=100, resolvent_bound=60, threads=1)
    return _table_cache


@pytest.fixture
def record(request):
    def _record(number: int, ok: bool, detail: str) -> None:
        status = "PASS" if ok else "FAIL"
        request.config._criterion_lines.append(f"criterion {number}: {status} - {detail}")

    return _record


def test_criterion_1_catalog_scan_consistency(record):
    start = time.perf_counter()
    outcomes = _table_outcomes()
    elapsed = time.perf_counter() - start
    consistent = sum(1 for o in outcomes if o.verdict == "CONSISTENT")
    clean = all(o.report.solutions == () for o in outcomes)
    ok = consistent == 14 and clean and elapsed < 60.0
    record(
        1,
        ok,
        f"{consistent}/14 targets consistent, no nontrivial solutions, "
        f"{elapsed:.1f}s single-threaded (budget 60s)",
    )
    assert ok


def test_criterion_2_residue_obstructions(record):
    forced_2 = residue_obstruction(R1, 2).forced
    forced_3 = residue_obstruction(R1, 3).forced
    bound = nu_lower_bound(R1)
    forced_7 = residue_obstruction(R1, 7).forced

    clauses = {
        "mod 2 forced": forced_2 is True,
        "mod 3 forced": forced_3 is True,
        "factor-count bound 2": bound == 2,
        # Negative control: the analysis must be able to answer "unforced"
        # at a prime beyond 2 and 3. Mod 5 cannot serve: it is forced (a
        # unit-square argument, pinned in test_descent.py). 7 is the
        # smallest prime with a unit survivor, e.g. (x, y, xp, yp) =
        # (1, 2, 3, 3): 1 - 4 = 9 + 9 = 4 and x*y = xp*yp = 2 (mod 7).
        "mod 7 unforced control": forced_7 is False,
    }
    failing = [name for name, good in clauses.items() if not good]
    ok = not failing
    detail = (
        "mod 2 and mod 3 forced, bound = 2, mod 7 unforced"
        if ok
        else f"failing clause(s): {', '.join(failing)} "
        f"(mod 2 forced={forced_2}, mod 3 forced={forced_3}, bound = {bound}, "
        f"mod 7 forced={forced_7})"
    )
    record(2, ok, detail)
    assert ok, detail


def test_criterion_3_reduction_identities(record):
    rng = random.Random(SEED)
    failures = 0
    for _ in range(1000):
        a, b = rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)
        if (a * a + b * b) ** 2 + 4 * (a * b) ** 2 != a**4 + 6 * a * a * b * b + b**4:
            failures += 1
    for _ in range(1000):
        lam, gam = rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)
        if (lam * lam - gam * gam) ** 2 + (2 * lam * gam) ** 2 != (lam * lam + gam * gam) ** 2:
            failures += 1
    for _ in range(1000):
        lp, gp = rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)
        if (lp * lp + gp * gp) ** 2 - (2 * lp * gp) ** 2 != (lp * lp - gp * gp) ** 2:
            failures += 1
    ok = failures == 0
    record(3, ok, f"3000 exact identity checks, {failures} failures")
    assert ok


def test_criterion_4_triple_round_trip(record):
    failures = 0
    cases = 0
    for u in range(1, 201):
        for v in range(u):
            if math.gcd(u, v) != 1 or (u - v) % 2 == 0:
                continue
            cases += 1
            triple = pythagorean_compose(u, v)
            if pythagorean_decompose(triple.a, triple.b, triple.c) != (u, v):
                failures += 1
    ok = failures == 0 and cases > 0
    record(4, ok, f"{cases} generator pairs with u <= 200 round-trip, {failures} failures")
    assert ok


def test_criterion_5_split_oracle(record):
    rng = random.Random(SEED)
    failures = 0
    cases = 0
    while cases < 500:
        parts = [rng.randint(1, 10**4) for _ in range(4)]
        if any(
            math.gcd(parts[i], parts[j]) != 1
            for i in range(4)
            for j in range(i + 1, 4)
        ):
            continue
        cases += 1
        p, q, r, s = parts
        if coprime_split(p * q, r * s, p * r, q * s) != (p, q, r, s):
            failures += 1
    ok = failures == 0
    record(5, ok, f"500 pairwise-coprime splits reproduced, {failures} failures")
    assert ok


def _trivial_solutions(eq_id: str, limit: int = 10):
    eq = equation_by_id(eq_id)
    for x in range(-limit, limit + 1):
        for y in range(-limit, limit + 1):
            for sol in eval_quartic(eq, x, y):
                if sol.trivial and abs(sol.z) <= limit:
                    yield sol


def test_criterion_6_trivial_orbit_pipeline(record):
    violations = []

    for sol in _trivial_solutions("E2"):
        # Triviality is outside the forward map's domain, always.
        try:
            forward_reduce_biquadratic(*sol.as_tuple())
            violations.append(("E2", sol.as_tuple(), "accepted"))
        except TrivialInput:
            pass

    e4 = equation_by_id("E4")
    for sol in _trivial_solutions("E4"):
        try:
            trace = sextic_to_resolvent(*sol.as_tuple())
        except NotPrimitive:
            if math.gcd(sol.x, sol.y) == 1:
                violations.append(("E4", sol.as_tuple(), "rejected primitive"))
            continue
        if math.gcd(sol.x, sol.y) != 1:
            violations.append(("E4", sol.as_tuple(), "accepted imprimitive"))
            continue
        replay_trace(trace)
        lift_trace = resolvent_to_sextic(*trace.final.as_tuple())
        replay_trace(lift_trace)
        if not e4.is_solution(*lift_trace.final.as_tuple()):
            violations.append(("E4", sol.as_tuple(), "lift broke the equation"))

    e2 = equation_by_id("E2")
    trivial_resolvent = search_resolvent(R1, 10, include_trivial=True).solutions
    for quad in trivial_resolvent:
        lifted = backward_lift_biquadratic(*quad).final
        if not e2.is_solution(*lifted.as_tuple()):
            violations.append(("R1", quad, "biquadratic lift inexact"))
        symmetric = resolvent_to_sextic(*quad).final
        if not e4.is_solution(*symmetric.as_tuple()):
            violations.append(("R1", quad, "symmetric lift inexact"))

    ok = not violations
    record(6, ok, f"trivial-orbit contract checks, {len(violations)} violations")
    assert ok, violations


def test_criterion_7_descent_termination(record):
    report = search_resolvent(R1, 60, include_trivial=True)
    stage_failures = 0
    bad_terminals = 0
    over_cap = 0
    for quad in report.solutions:
        trace = descent_chain(*quad)
        if trace.terminal.kind == TERMINAL_STAGE_FAILURE:
            stage_failures += 1
        elif trace.terminal.kind != TERMINAL_TRIVIAL_INPUT:
            bad_terminals += 1
        product = quad[0] * quad[1]
        cap = (nu(product) if product != 0 else 0) + 1
        if len(trace.steps) > cap:
            over_cap += 1
    counterexamples = sum(1 for o in _table_outcomes() if o.verdict != "CONSISTENT")
    ok = (
        bool(report.solutions)
        and stage_failures == 0
        and bad_terminals == 0
        and over_cap == 0
        and counterexamples == 0
    )
    record(
        7,
        ok,
        f"{len(report.solutions)} chains ended TrivialInput within bound, "
        f"{stage_failures} stage failures, {counterexamples} counterexamples",
    )
    assert ok


def test_criterion_8_byte_identical_reports(record, capsys, monkeypatch):
    argv = ["verify-table", "--bound", "100"]
    monkeypatch.delenv("DESCENT_FORGE_THREADS", raising=False)
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert cli.main(argv) == 0
    second = capsys.readouterr().out
    monkeypatch.setenv("DESCENT_FORGE_THREADS", "4")
    assert cli.main(argv) == 0
    third = capsys.readouterr().out
    ok = first == second == third and json.loads(first)["verdict"] == "CONSISTENT"
    record(
        8,
        ok,
        "verify-table JSON byte-identical across two runs and a 4-thread run",
    )
    assert ok
