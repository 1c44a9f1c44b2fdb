"""Catalog contents, quartic evaluation, resolvent membership checks."""

from __future__ import annotations

from itertools import product

import pytest

from descent_forge.core_arith import isqrt_exact
from descent_forge.equations import (
    R1,
    R2,
    MEMBER_BOTH,
    MEMBER_NONE,
    MEMBER_R1,
    MEMBER_R2,
    QuarticEquation,
    ResolventSystem,
    check_resolvent,
    classify_trivial,
    equation_by_id,
    eval_quartic,
    list_catalog,
    membership_of,
    quartic_solution,
    resolvent_by_id,
    resolvent_solution,
)
from descent_forge.errors import NotAResolventSolution, NotASolution

EXPECTED_CATALOG = {
    "E1": ((1, 0, -1, 1, 2), MEMBER_R1),
    "E2": ((1, 0, 4, 1, 2), MEMBER_R1),
    "E3": ((1, 0, 1, 2, 2), MEMBER_R1),
    "E4": ((1, 6, 1, 1, 2), MEMBER_R1),
    "E5": ((1, -6, 1, 1, 2), MEMBER_R1),
    "E6": ((1, 0, 1, 1, 2), MEMBER_R2),
    "E7": ((1, 0, -4, 1, 2), MEMBER_R2),
    "E8": ((1, 0, -1, 2, 2), MEMBER_R2),
    "E9": ((1, 12, 4, 1, 2), MEMBER_R2),
    "E10": ((1, -12, 4, 1, 2), MEMBER_R2),
    "E11": ((1, 0, 1, 1, 4), MEMBER_BOTH),
    "X1": ((1, 0, 2, 1, 2), MEMBER_NONE),
}


def test_catalog_rows_and_memberships():
    entries = list_catalog()
    assert [e.equation.id for e in entries] == list(EXPECTED_CATALOG)
    for entry in entries:
        eq = entry.equation
        coeffs, membership = EXPECTED_CATALOG[eq.id]
        assert (eq.a, eq.b, eq.c, eq.d, eq.e) == coeffs
        assert entry.membership == membership
        assert membership_of(eq.id) == membership


def test_fourth_power_right_side_is_unique_to_the_fermat_entry():
    quartic_exponent = [e.equation.id for e in list_catalog() if e.equation.e == 4]
    assert quartic_exponent == ["E11"]


def test_sign_variant_rows_are_distinct_entries():
    assert equation_by_id("E4").b == -equation_by_id("E5").b == 6
    assert equation_by_id("E9").b == -equation_by_id("E10").b == 12


def test_resolvent_constants():
    assert (R1.m, R1.n, R1.k, R1.l) == (1, -1, 1, 1)
    assert (R2.m, R2.n, R2.k, R2.l) == (1, -2, 1, 2)
    assert resolvent_by_id("R1") is R1
    assert resolvent_by_id("R2") is R2


@pytest.mark.parametrize("bad_id", ["E0", "E12", "R3", "", "e1"])
def test_unknown_ids_are_rejected(bad_id):
    with pytest.raises(KeyError):
        equation_by_id(bad_id)
    with pytest.raises(KeyError):
        resolvent_by_id(bad_id)


def test_malformed_equation_is_rejected_at_construction():
    with pytest.raises(ValueError):
        QuarticEquation("BAD", 0, 1, 1, 1, 2)
    with pytest.raises(ValueError):
        QuarticEquation("BAD", 1, 0, 1, 1, 3)


@pytest.mark.parametrize("coefficients", [(0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)])
def test_resolvent_system_with_a_zero_coefficient_is_rejected(coefficients):
    with pytest.raises(ValueError, match="zero coefficient"):
        ResolventSystem("BAD", *coefficients)


@pytest.mark.parametrize(
    "eq_id,form",
    [
        ("E2", "x^4 + 4y^4 = z^2"),
        ("E5", "x^4 - 6x^2y^2 + y^4 = z^2"),
        ("E3", "x^4 + y^4 = 2z^2"),
        ("E11", "x^4 + y^4 = z^4"),
    ],
)
def test_equation_rendering(eq_id, form):
    assert equation_by_id(eq_id).form() == form


def test_resolvent_rendering_states_all_side_conditions():
    text = R1.form()
    assert "x^2 - y^2 = x'^2 + y'^2" in text
    assert "xy = x'y'" in text and "gcd" in text


def test_eval_quartic_identity_case():
    solutions = eval_quartic(equation_by_id("E2"), 1, 0)
    assert [s.z for s in solutions] == [-1, 1]
    assert all(s.trivial and s.primitive for s in solutions)


def test_eval_quartic_non_square_value_is_empty():
    # 1 + 6 + 1 = 8 sits strictly between 2^2 and 3^2.
    assert isqrt_exact(8) is None
    assert eval_quartic(equation_by_id("E4"), 1, 1) == []


def test_eval_quartic_symmetric_trivial_case():
    solutions = eval_quartic(equation_by_id("E3"), 1, 1)
    assert [s.z for s in solutions] == [-1, 1]
    assert all(s.trivial for s in solutions)


def test_eval_quartic_respects_divisibility_by_right_coefficient():
    # For 2z^2 a left side of 1 is not even divisible by 2.
    assert eval_quartic(equation_by_id("E3"), 1, 0) == []


def test_eval_quartic_zero_root_is_single():
    solutions = eval_quartic(equation_by_id("E1"), 1, 1)
    assert [(s.x, s.y, s.z) for s in solutions] == [(1, 1, 0)]
    assert solutions[0].trivial


def test_eval_quartic_fourth_power_case():
    solutions = eval_quartic(equation_by_id("E11"), 1, 0)
    assert [s.z for s in solutions] == [-1, 1]
    assert eval_quartic(equation_by_id("E11"), 2, 3) == []


def test_eval_quartic_returns_roots_in_pairs():
    for entry in list_catalog():
        for x, y in product(range(13), repeat=2):
            zs = [s.z for s in eval_quartic(entry.equation, x, y)]
            assert sorted(zs) == sorted(-z for z in zs)


def test_quartic_solution_factory_checks_membership():
    sol = quartic_solution(equation_by_id("E2"), 1, 0, -1)
    assert sol.trivial and sol.primitive
    with pytest.raises(NotASolution):
        quartic_solution(equation_by_id("E2"), 1, 1, 2)


@pytest.mark.parametrize(
    "eq_id,point,expected",
    [("E1", (1, 1, 0), True), ("E2", (1, 0, 1), True), ("E3", (2, 1, None), None)],
)
def test_classify_trivial_examples(eq_id, point, expected):
    eq = equation_by_id(eq_id)
    x, y, z = point
    if expected is None:
        # 16 + 4 = 20 is not a perfect square, so no solution exists to classify.
        assert eval_quartic(equation_by_id("E2"), 2, 1) == []
        return
    assert classify_trivial(quartic_solution(eq, x, y, z)) is expected


def test_classify_trivial_is_sign_and_swap_invariant():
    # Even powers make every sign flip of a solution a solution again, so the
    # flipped tuples can go straight through the validating factory.
    for entry in list_catalog():
        eq = entry.equation
        for x, y in product(range(9), repeat=2):
            for sol in eval_quartic(eq, x, y):
                base = classify_trivial(sol)
                for sx, sy, sz in product((1, -1), repeat=3):
                    flipped = quartic_solution(eq, sx * sol.x, sy * sol.y, sz * sol.z)
                    assert classify_trivial(flipped) is base
                if eq.a == eq.c:
                    swapped = quartic_solution(eq, sol.y, sol.x, sol.z)
                    assert classify_trivial(swapped) is base


@pytest.mark.parametrize(
    "quad,expected",
    [
        ((1, 0, 1, 0), True),
        ((6, 35, 10, 21), False),
        ((2, 2, 2, 2), False),
        ((1, 0, 0, 1), True),
        ((0, 1, 0, 1), False),
    ],
)
def test_check_resolvent_r1(quad, expected):
    assert check_resolvent(R1, *quad) is expected


def test_check_resolvent_r2_trivial_case():
    assert check_resolvent(R2, 1, 0, 1, 0) is True
    assert check_resolvent(R2, 1, 0, 0, 1) is False


def test_resolvent_solution_factory():
    sol = resolvent_solution(R1, 1, 0, 1, 0)
    assert sol.trivial and sol.as_tuple() == (1, 0, 1, 0)
    with pytest.raises(NotAResolventSolution):
        resolvent_solution(R1, 2, 1, 2, 1)
