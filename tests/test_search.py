"""Bounded searches: determinism, orbit accounting, catalog verification."""

from __future__ import annotations

import math
import threading
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from descent_forge import reduction, search
from descent_forge.core_arith import isqrt_exact
from descent_forge.equations import (
    R1,
    R2,
    QuarticEquation,
    ResolventSystem,
    check_resolvent,
    equation_by_id,
    eval_quartic,
    list_catalog,
)
from descent_forge.errors import BoundExceeded, StageFailure
from descent_forge.search import (
    QUARTIC_BOUND_LIMIT,
    RESOLVENT_BOUND_LIMIT,
    VERDICT_CONSISTENT,
    SearchReport,
    VerifyOutcome,
    VERDICT_COUNTEREXAMPLE,
    _SIEVE_MODULI,
    _cross_check,
    _judged,
    _quartic_outcome,
    _sieve_tables,
    all_consistent,
    search_quartic,
    search_resolvent,
    thread_count,
    verify_table,
)


def test_thread_count_resolution(monkeypatch):
    monkeypatch.delenv("DESCENT_FORGE_THREADS", raising=False)
    assert thread_count() == 1
    assert thread_count(3) == 3
    monkeypatch.setenv("DESCENT_FORGE_THREADS", "4")
    assert thread_count() == 4
    monkeypatch.setenv("DESCENT_FORGE_THREADS", "zero")
    with pytest.raises(ValueError):
        thread_count()
    with pytest.raises(ValueError):
        thread_count(0)


def test_biquadratic_scan_is_empty_but_counts_trivial_orbits():
    report = search_quartic(equation_by_id("E2"), 100)
    assert report.solutions == ()
    # (1, 0, +-1) and (0, 1, +-2) are the only solution orbits in range.
    assert report.orbit_count == 8
    assert report.partitions == 1


def test_symmetric_sum_scan_contains_the_diagonal_point():
    report = search_quartic(equation_by_id("E3"), 50, include_trivial=True)
    assert (1, 1, 1) in report.solutions


def test_non_member_equation_scan_is_empty():
    assert search_quartic(equation_by_id("X1"), 100).solutions == ()


def test_quartic_scan_canonical_listing():
    report = search_quartic(equation_by_id("E1"), 1, include_trivial=True)
    assert report.solutions == ((1, 0, 1), (1, 1, 0))
    assert report.orbit_count == 8


def test_quartic_scan_without_coprime_filter():
    report = search_quartic(
        equation_by_id("E3"), 10, require_coprime=False, include_trivial=True
    )
    assert (2, 2, 4) in report.solutions
    assert all(
        math.gcd(x, y) == 1 for x, y, _ in search_quartic(
            equation_by_id("E3"), 10, include_trivial=True
        ).solutions
    )


@pytest.mark.parametrize("bound", [0, -1, 10**4 + 1])
def test_quartic_bound_limits(bound):
    with pytest.raises(BoundExceeded):
        search_quartic(equation_by_id("E1"), bound)


@pytest.mark.parametrize("bound", [0, 2001])
def test_resolvent_bound_limits(bound):
    with pytest.raises(BoundExceeded):
        search_resolvent(R1, bound)


def test_resolvent_scan_trivial_solutions():
    assert search_resolvent(R1, 60).solutions == ()
    included = search_resolvent(R1, 60, include_trivial=True)
    assert included.solutions == ((1, 0, 0, 1), (1, 0, 1, 0))
    assert included.orbit_count == 8

    assert search_resolvent(R2, 60).solutions == ()
    companion = search_resolvent(R2, 60, include_trivial=True)
    assert companion.solutions == ((1, 0, 1, 0),)
    assert companion.orbit_count == 4


def test_resolvent_scan_at_the_bound_limit_is_empty_and_quick():
    # The quartic scan over the split takes under 1 s per system on a
    # 2-vCPU VM; a unitary-divisor candidate scan took 15-17 s there.
    for system in (R1, R2):
        report = search_resolvent(system, RESOLVENT_BOUND_LIMIT)
        assert report.solutions == ()
        assert report.elapsed_ms < 10_000


def test_resolvent_scan_runs_the_kernel_of_its_split_quartic(monkeypatch):
    scanned = []
    kernel = search._quartic_rows

    def spy(eq, bound, require_coprime):
        scanned.append((eq, bound, require_coprime))
        return kernel(eq, bound, require_coprime)

    monkeypatch.setattr(search, "_quartic_rows", spy)
    systems = (R1, R2, ResolventSystem("T", 2, 3, 5, 7))
    for system in systems:
        search_resolvent(system, 30)
    assert scanned == [(system.split_quartic(), 30, True) for system in systems]


@pytest.mark.parametrize("bound", [50, 300, 2000])
def test_resolvent_kernel_survivors_are_the_e1_and_e8_scan_points(bound):
    # R1's split quartic is E1; R2's is E8 with z = 2w. Their coprime
    # scans therefore list the same (q, r) with the same orbits.
    def scan(eq):
        return search_quartic(eq, bound, require_coprime=True, include_trivial=True)

    r1, e1 = scan(R1.split_quartic()), scan(equation_by_id("E1"))
    assert r1.solutions == e1.solutions and r1.orbit_count == e1.orbit_count
    r2, e8 = scan(R2.split_quartic()), scan(equation_by_id("E8"))
    assert r2.solutions == tuple((x, y, 2 * w) for x, y, w in e8.solutions)
    assert r2.orbit_count == e8.orbit_count
    assert r1.solutions and r2.solutions


def _resolvent_oracle(system, bound):
    """Canonical solutions and total orbit size of a resolvent scan, by brute force.

    The primed side runs over every divisor xp of x*y, not only the
    unitary ones, with yp = x*y // xp; when x*y = 0 it runs over every
    (xp, 0) and (0, yp) up to 2*bound. check_resolvent alone decides, and
    an orbit is every sign pattern of a solution that check_resolvent accepts.
    """
    solutions, orbits = [], 0
    for x in range(bound + 1):
        for y in range(bound + 1):
            n = x * y
            if n:
                primed = [(xp, n // xp) for xp in range(1, n + 1) if n % xp == 0]
            else:
                primed = [(v, 0) for v in range(2 * bound + 1)]
                primed += [(0, v) for v in range(1, 2 * bound + 1)]
            for xp, yp in primed:
                quad = (x, y, xp, yp)
                if not check_resolvent(system, *quad):
                    continue
                solutions.append(quad)
                orbit = set()
                for signs in product((1, -1), repeat=4):
                    signed = tuple(sign * value for sign, value in zip(signs, quad))
                    if check_resolvent(system, *signed):
                        orbit.add(signed)
                orbits += len(orbit)
    return solutions, orbits


# R1 and R2 have only trivial solutions, so four synthetic systems with
# nontrivial ones pin the candidate generator too: T1 has (x, y, y, x),
# T2 has (6, 1, 2, 3) and T3 has (4, 15, 5, 12), which need partial
# unitary splits of x and of y. T1 and T4 have a free D = N = 0 family
# of the split x = p*q, y = r*s, at (q, r) = (1, 1) and (2, 1).
_SYNTHETIC = (
    ResolventSystem("T1", 1, 1, 1, 1),
    ResolventSystem("T2", 1, 3, 3, 3),
    ResolventSystem("T3", 2, 2, 2, 3),
    ResolventSystem("T4", 1, 4, 4, 1),
)


@settings(max_examples=15, deadline=None)
@given(bound=st.integers(1, 40), include_trivial=st.booleans())
def test_resolvent_scan_matches_divisor_oracle(bound, include_trivial):
    for system in (R1, R2, *_SYNTHETIC):
        solutions, orbits = _resolvent_oracle(system, bound)
        if not include_trivial:
            solutions = [quad for quad in solutions if quad[0] * quad[1] != 0]
        report = search_resolvent(system, bound, include_trivial=include_trivial)
        assert report.solutions == tuple(sorted(solutions))
        assert report.orbit_count == orbits


# Reference counts, measured with a unitary-divisor candidate scan.
@pytest.mark.parametrize(
    ("system", "solutions", "orbits"),
    [(_SYNTHETIC[0], 27_433, 219_448), (_SYNTHETIC[3], 16_020, 128_152)],
    ids=["T1", "T4"],
)
def test_dense_resolvent_scan_counts(system, solutions, orbits):
    report = search_resolvent(system, 150, include_trivial=True)
    assert len(report.solutions) == solutions
    assert report.orbit_count == orbits
    assert all(check_resolvent(system, *quad) for quad in report.solutions)


def _quartic_oracle(eq, bound, require_coprime):
    """(solution, trivial) pairs and total orbit size of a quartic scan, by brute force.

    Every cell of 0..bound is tried: the root comes from math.isqrt and
    eq.is_solution alone decides, so neither the residue sieve nor
    eval_quartic is involved. An orbit is every sign pattern of a
    solution that eq.is_solution accepts.
    """
    solutions, orbits = [], 0
    for x in range(bound + 1):
        for y in range(bound + 1):
            if require_coprime and math.gcd(x, y) != 1:
                continue
            lhs = eq.lhs(x, y)
            if lhs % eq.d or lhs // eq.d < 0:
                continue
            z = math.isqrt(lhs // eq.d)
            if eq.e == 4:
                z = math.isqrt(z)
            if not eq.is_solution(x, y, z):
                continue
            solutions.append(((x, y, z), x * y == 0 or x == y))
            orbits += len(
                {
                    (sx * x, sy * y, sz * z)
                    for sx, sy, sz in product((1, -1), repeat=3)
                    if eq.is_solution(sx * x, sy * y, sz * z)
                }
            )
    return solutions, orbits


def _assert_quartic_scan_matches_oracle(eq, bound, require_coprime, include_trivial):
    solutions, orbits = _quartic_oracle(eq, bound, require_coprime)
    listed = sorted(sol for sol, trivial in solutions if include_trivial or not trivial)
    report = search_quartic(
        eq, bound, require_coprime=require_coprime, include_trivial=include_trivial
    )
    assert report.solutions == tuple(listed), eq
    assert report.orbit_count == orbits, eq


@settings(max_examples=10, deadline=None)
@given(bound=st.integers(1, 70), require_coprime=st.booleans(), include_trivial=st.booleans())
def test_quartic_scan_matches_grid_oracle_on_the_catalog(bound, require_coprime, include_trivial):
    for entry in list_catalog():
        _assert_quartic_scan_matches_oracle(entry.equation, bound, require_coprime, include_trivial)


_SIGNED_A = st.integers(1, 6).flatmap(lambda v: st.sampled_from((v, -v)))


@st.composite
def _synthetic_scans(draw):
    """(equation, bound) with coefficients from small ranges. Half the
    draws take d from a fixed set; the other half set d so that a
    nontrivial (x0, y0, 1) inside the bound is a solution, in whatever
    residue class (x0, y0) falls."""
    a, b, c = draw(_SIGNED_A), draw(st.integers(-12, 12)), draw(st.integers(-6, 6))
    bound = draw(st.integers(1, 70))
    if draw(st.booleans()):
        d = draw(st.sampled_from((1, -1, 2, -2, 3, 4, 5, 8, 16, 64, 128)))
    else:
        x0, y0 = draw(st.integers(1, bound)), draw(st.integers(1, bound))
        d = a * x0**4 + b * x0 * x0 * y0 * y0 + c * y0**4
        assume(d != 0)
    return QuarticEquation("S", a, b, c, d, draw(st.sampled_from((2, 4)))), bound


# Every cell of (x^2 + y^2)^2 = z^2 and of -(x^2 - y^2)^2 = -z^2 is a
# solution, and every cell with x and y of equal parity is one of
# 2(x^2 - y^2)^2 = 8z^2, so at bound 70 these catch a sieve that drops any
# residue class mod 64.
@example(scan=(QuarticEquation("D1", 1, 2, 1, 1, 2), 70), require_coprime=True, include_trivial=False)
@example(scan=(QuarticEquation("D2", -1, 2, -1, -1, 2), 70), require_coprime=False, include_trivial=True)
@example(scan=(QuarticEquation("D3", 2, -4, 2, 8, 2), 70), require_coprime=False, include_trivial=False)
@settings(max_examples=150, deadline=None)
@given(
    scan=_synthetic_scans(),
    require_coprime=st.booleans(),
    include_trivial=st.booleans(),
)
def test_quartic_scan_matches_grid_oracle_on_synthetic_equations(scan, require_coprime, include_trivial):
    eq, bound = scan
    _assert_quartic_scan_matches_oracle(eq, bound, require_coprime, include_trivial)


# Synthetic equations with many solutions off the diagonal: negative d,
# d = 8 and one e = 4 case.
_SIEVE_PROBES = (
    QuarticEquation("S1", -1, -5, 0, -1, 2),
    QuarticEquation("S2", -2, 2, -3, -3, 2),
    QuarticEquation("S3", -1, 6, 0, 8, 2),
    QuarticEquation("S4", -1, 2, -1, -1, 2),
    QuarticEquation("S5", 1, -2, 1, 1, 4),
)


def test_residue_table_admits_every_solution_below_192():
    for eq in (*(entry.equation for entry in list_catalog()), *_SIEVE_PROBES):
        tables = _sieve_tables(eq.a, eq.b, eq.c, eq.d)
        assert [len(table) for table in tables] == list(_SIEVE_MODULI)
        hits = 0
        for x, y in product(range(192), repeat=2):
            if eval_quartic(eq, x, y):
                hits += 1
                for m, table in zip(_SIEVE_MODULI, tables):
                    assert table[x % m][y % m], (eq, m, x, y)
        assert hits, eq
    # Off-diagonal classes are exercised, not only x*y = 0 and x = y.
    assert any(
        eval_quartic(_SIEVE_PROBES[0], x, y) for x, y in product(range(1, 64), repeat=2) if x != y
    )


@pytest.mark.parametrize("modulus", _SIEVE_MODULI)
def test_square_flag_tables_match_brute_force(modulus):
    # Each sieve table against its definition over a full period: byte r
    # of row u is set exactly when a*u^4 + b*u^2*r^2 + c*r^4 = d*s^2 mod m
    # for some s, including for negative d and d sharing primes with m.
    index = _SIEVE_MODULI.index(modulus)
    for a, b, c in ((1, 0, -1), (1, 6, 1), (-2, 2, -3)):
        for d in (1, -1, 2, 8, 11, 63, 64, 128, 195):
            table = _sieve_tables(a, b, c, d)[index]
            assert len(table) == modulus
            targets = {d * s * s % modulus for s in range(modulus)}
            for u in range(modulus):
                assert len(table[u]) == modulus
                expected = [
                    (a * u**4 + b * u * u * r * r + c * r**4) % modulus in targets
                    for r in range(modulus)
                ]
                assert list(map(bool, table[u])) == expected, (a, b, c, d, u)


@pytest.mark.parametrize("require_coprime", [True, False])
def test_quartic_scan_matches_grid_oracle_past_chunk_and_period_edges(require_coprime):
    # Bound 140 is past the 128-row block edge and past every sieve
    # modulus, so each table row is repeated across the width.
    assert 140 >= max(_SIEVE_MODULI) and 140 > search._CHUNK_ROWS
    for eq in (*(entry.equation for entry in list_catalog()), *_SIEVE_PROBES):
        _assert_quartic_scan_matches_oracle(eq, 140, require_coprime, include_trivial=True)


@pytest.mark.parametrize("require_coprime", [True, False])
def test_quartic_scan_matches_grid_oracle_where_moduli_meet_the_width(require_coprime):
    # A modulus below bound + 1 is packed up front and one at or above it
    # row by row; bounds m - 1 and m put each modulus on either side.
    bounds = sorted({b for m in _SIEVE_MODULI for b in (m - 1, m)})
    for bound in bounds:
        for eq in (*(entry.equation for entry in list_catalog()), *_SIEVE_PROBES):
            _assert_quartic_scan_matches_oracle(eq, bound, require_coprime, include_trivial=True)


def test_sieve_leaves_few_cells_for_eval_quartic(monkeypatch):
    # The sieve leaves 26 cells here and its mod-64 table alone 374 602,
    # so a weakened sieve fails this test instead of showing only as a
    # slowdown.
    calls = []
    original = search.eval_quartic

    def counting(eq, x, y):
        calls.append((eq.id, x, y))
        return original(eq, x, y)

    monkeypatch.setattr(search, "eval_quartic", counting)
    for entry in list_catalog():
        search_quartic(entry.equation, 300, include_trivial=True)
    assert 0 < len(calls) < 200


@pytest.mark.parametrize("eq_id", ["E2", "E4"])
def test_quartic_outcome_scans_once_and_matches_two_scans(eq_id, monkeypatch):
    eq = equation_by_id(eq_id)
    # The construction verify_table used before: one scan for the report,
    # a second, trivial-inclusive one for the cross-checks.
    report = search_quartic(eq, 200, include_trivial=False, threads=1)
    listed = search_quartic(eq, 200, include_trivial=True, threads=1)
    assert report.partitions == 2
    cross_checks = [_cross_check(eq_id, *sol) for sol in listed.solutions]
    assert cross_checks
    consistent = not report.solutions and all(check["ok"] for check in cross_checks)
    expected = {
        "target": eq_id,
        "report": report.to_dict(),
        "verdict": VERDICT_CONSISTENT if consistent else VERDICT_COUNTEREXAMPLE,
        "cross_checks": cross_checks,
    }

    calls = []
    original = search.search_quartic

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(search, "search_quartic", counting)
    assert _quartic_outcome(eq, 200, 1).to_dict() == expected
    assert len(calls) == 1


def test_cross_check_of_an_imprimitive_e4_point_expects_not_primitive():
    assert _cross_check("E4", 2, 0, 4) == {
        "solution": [2, 0, 4], "expected": "NotPrimitive", "actual": "NotPrimitive", "ok": True,
    }


def test_a_stage_failure_in_a_cross_check_makes_a_counterexample(monkeypatch):
    def failing(*_):
        raise StageFailure("TripleDecompose", {"t": 1, "s": 0, "z": 1})

    monkeypatch.setattr(reduction, "sextic_to_resolvent", failing)
    check = _cross_check("E4", 1, 0, 1)
    assert check == {
        "solution": [1, 0, 1], "expected": "ok", "actual": "StageFailure:TripleDecompose", "ok": False,
    }
    report = search_quartic(equation_by_id("E4"), 1)
    assert report.solutions == ()
    assert _judged("E4", report, (check,)).verdict == VERDICT_COUNTEREXAMPLE


def test_reports_are_identical_across_partitionings_and_threads():
    # Bound 200 spans two 128-row blocks; no thread count changes a report.
    eq = equation_by_id("E4")
    base = search_quartic(eq, 200, include_trivial=True)
    assert base.partitions == 2
    again = search_quartic(eq, 200, include_trivial=True)
    threaded = search_quartic(eq, 200, include_trivial=True, threads=3)
    assert base.to_dict() == again.to_dict() == threaded.to_dict()

    resolvent_base = search_resolvent(R1, 150, include_trivial=True)
    resolvent_threaded = search_resolvent(R1, 150, include_trivial=True, threads=4)
    assert resolvent_base.to_dict() == resolvent_threaded.to_dict()


def test_thread_count_starts_no_thread(monkeypatch):
    def refuse(self):
        raise AssertionError("a search started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    eq = equation_by_id("E4")
    assert (
        search_quartic(eq, 300, include_trivial=True, threads=4).to_dict()
        == search_quartic(eq, 300, include_trivial=True, threads=1).to_dict()
    )
    assert (
        search_resolvent(R1, 300, include_trivial=True, threads=4).to_dict()
        == search_resolvent(R1, 300, include_trivial=True, threads=1).to_dict()
    )


@pytest.mark.parametrize("bound", [1, 126, 127, 128, 255, 256, 10_000])
def test_partitions_count_128_row_blocks(bound):
    # The count the field has always reported: one per 128-row block of
    # rows 0..bound.
    expected = len(range(0, bound + 1, 128))
    assert search_quartic(equation_by_id("E2"), bound).partitions == expected
    if bound <= RESOLVENT_BOUND_LIMIT:
        assert search_resolvent(R1, bound).partitions == expected


def test_report_serialization_shape():
    report = search_quartic(equation_by_id("E1"), 5)
    data = report.to_dict()
    assert set(data) == {"target", "bound", "options", "solutions", "orbit_count", "partitions"}
    timed = report.to_dict(include_timing=True)
    assert timed["elapsed_ms"] >= 0


def test_every_orbit_member_satisfies_its_equation_below_20():
    for entry in list_catalog():
        eq = entry.equation
        report = search_quartic(eq, 20, include_trivial=True)
        for x, y, z in report.solutions:
            for sx, sy, sz in product((1, -1), repeat=3):
                assert eq.is_solution(sx * x, sy * y, sz * z)


def test_symmetric_scan_agrees_with_direct_square_testing():
    eq = equation_by_id("E4")
    expected = set()
    for x in range(51):
        for y in range(51):
            if math.gcd(x, y) != 1:
                continue
            root = isqrt_exact(x**4 + 6 * x * x * y * y + y**4)
            if root is not None:
                expected.add((x, y, root))
    report = search_quartic(eq, 50, include_trivial=True)
    assert set(report.solutions) == expected


def test_verify_table_is_consistent_everywhere():
    outcomes = verify_table()
    assert [o.target_id for o in outcomes] == [
        "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "X1", "R1", "R2",
    ]
    assert all_consistent(outcomes)
    for outcome in outcomes:
        assert outcome.verdict == VERDICT_CONSISTENT
        assert outcome.report.solutions == ()
    cross_checked = {o.target_id: o.cross_checks for o in outcomes}
    assert cross_checked["E2"] and cross_checked["E4"]
    assert all(check["ok"] for o in outcomes for check in o.cross_checks)


def test_verify_table_at_unit_bound_sees_only_trivial_orbits():
    outcomes = verify_table(quartic_bound=1, resolvent_bound=1)
    assert all_consistent(outcomes)
    assert all(o.report.solutions == () for o in outcomes)


@pytest.mark.parametrize(
    ("quartic_bound", "resolvent_bound"),
    [(100, RESOLVENT_BOUND_LIMIT + 1), (0, 60)],
)
def test_verify_table_refuses_bad_bounds_before_any_scan(quartic_bound, resolvent_bound, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a scan ran before the bounds were checked")

    monkeypatch.setattr(search, "search_quartic", refuse)
    monkeypatch.setattr(search, "search_resolvent", refuse)
    with pytest.raises(BoundExceeded):
        verify_table(quartic_bound, resolvent_bound, threads=1)
    with pytest.raises(ValueError):
        verify_table(threads=0)


def test_counterexample_shape_via_injected_equation():
    # (x^2 + y^2)^2 = z^2 under a foreign id: every cell is a solution, so
    # the nontrivial scan is non-empty and the report carries the witnesses.
    fake = QuarticEquation("FAKE", 1, 2, 1, 1, 2)
    outcome = _quartic_outcome(fake, 2, threads=1)
    assert outcome.verdict == VERDICT_COUNTEREXAMPLE
    assert outcome.report.solutions == ((1, 2, 5), (2, 1, 5))
    data = outcome.to_dict()
    assert data["verdict"] == VERDICT_COUNTEREXAMPLE
    assert data["report"]["solutions"] == [[1, 2, 5], [2, 1, 5]]


def test_refused_quartic_search_builds_no_scan_state():
    # Bound just past the limit: were the per-scan tables built before the
    # check, the test would fail without allocating a huge table.
    fresh = QuarticEquation("fresh", 7, 11, 13, 17, 2)
    before = _sieve_tables.cache_info()
    with pytest.raises(BoundExceeded):
        search_quartic(fresh, QUARTIC_BOUND_LIMIT + 1)
    with pytest.raises(ValueError):
        search_quartic(fresh, 10, threads=0)
    assert _sieve_tables.cache_info() == before


_REPORT_FIELDS = {
    "target_id": "E2", "bound": 10, "require_coprime": True, "include_trivial": False,
    "solutions": ((1, 0, 1),), "orbit_count": 4, "partitions": 1, "elapsed_ms": 0.5,
}
_REPORT_REPR = (
    "SearchReport(target_id='E2', bound=10, require_coprime=True, include_trivial=False,"
    " solutions=((1, 0, 1),), orbit_count=4, partitions=1, elapsed_ms=0.5)"
)


def test_search_report_value_class(check_value_class):
    check_value_class(SearchReport, _REPORT_FIELDS, repr_text=_REPORT_REPR)


def test_verify_outcome_value_class(check_value_class):
    check_value_class(
        VerifyOutcome,
        {
            "target_id": "E2", "report": SearchReport(**_REPORT_FIELDS),
            "verdict": VERDICT_CONSISTENT, "cross_checks": ({"ok": True},),
        },
        defaults={"cross_checks": ()},
        repr_text=f"VerifyOutcome(target_id='E2', report={_REPORT_REPR},"
        " verdict='CONSISTENT', cross_checks=({'ok': True},))",
    )
