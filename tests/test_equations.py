"""Catalog contents, quartic evaluation, resolvent membership checks."""

from __future__ import annotations

from itertools import combinations, product

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from descent_forge.core_arith import isqrt_exact
from descent_forge.equations import (
    R1,
    R2,
    MEMBER_BOTH,
    MEMBER_NONE,
    MEMBER_R1,
    MEMBER_R2,
    CatalogEntry,
    QuarticEquation,
    QuarticSolution,
    ResolventSolution,
    ResolventSystem,
    check_resolvent,
    equation_by_id,
    eval_quartic,
    list_catalog,
    list_resolvents,
    quartic_solution,
    resolvent_by_id,
    resolvent_solution,
)
from descent_forge.errors import NotASolution

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
    assert list_resolvents() == [R1, R2]


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
def test_trivial_flag_examples(eq_id, point, expected):
    eq = equation_by_id(eq_id)
    x, y, z = point
    if expected is None:
        # 16 + 1 = 17 is not twice a square, so no solution exists to classify.
        assert eval_quartic(eq, x, y) == []
        return
    assert quartic_solution(eq, x, y, z).trivial is expected


def test_trivial_flag_is_sign_and_swap_invariant():
    # Even powers make every sign flip of a solution a solution again, so the
    # flipped tuples can go straight through the validating factory.
    for entry in list_catalog():
        eq = entry.equation
        for x, y in product(range(9), repeat=2):
            for sol in eval_quartic(eq, x, y):
                base = sol.trivial
                for sx, sy, sz in product((1, -1), repeat=3):
                    flipped = quartic_solution(eq, sx * sol.x, sy * sol.y, sz * sol.z)
                    assert flipped.trivial is base
                if eq.a == eq.c:
                    swapped = quartic_solution(eq, sol.y, sol.x, sol.z)
                    assert swapped.trivial is base


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


def test_split_forms_of_the_resolvents():
    # (D, N) = (m q^2 - k r^2, l q^2 - n r^2).
    assert R1.split_forms(3, 2) == (5, 13)
    assert R2.split_forms(3, 2) == (5, 26)
    assert ResolventSystem("T", 2, 3, 5, 7).split_forms(1, 1) == (-3, 4)


def test_split_quartics_are_the_catalogue_rows_e1_and_e8():
    e1, e8 = equation_by_id("E1"), equation_by_id("E8")
    assert R1.split_quartic() == QuarticEquation("R1", e1.a, e1.b, e1.c, e1.d, e1.e)
    # 2q^4 - 2r^4 = z^2 is E8, q^4 - r^4 = 2w^2, scaled by 2 with z = 2w.
    r2 = R2.split_quartic()
    assert r2 == QuarticEquation("R2", 2 * e8.a, 2 * e8.b, 2 * e8.c, 2 * e8.d // 2**2, e8.e)
    for x, y, w in product(range(6), range(6), range(-3, 30)):
        assert r2.is_solution(x, y, 2 * w) == e8.is_solution(x, y, w)


def _equivalent_rows(quartic):
    """Catalogue rows whose equation is the quartic after z = c*w, c in {1, 2}."""
    rows = []
    for entry in list_catalog():
        eq = entry.equation
        for c in (1, 2):
            left = (quartic.a, quartic.b, quartic.c, quartic.d * c * c)
            right = (eq.a, eq.b, eq.c, eq.d)
            proportional = all(
                left[i] * right[j] == left[j] * right[i] for i, j in combinations(range(4), 2)
            )
            if proportional and quartic.e == eq.e:
                rows.append(entry)
    return rows


def test_membership_column_agrees_with_the_split_quartics():
    for system, eq_id in ((R1, "E1"), (R2, "E8")):
        rows = _equivalent_rows(system.split_quartic())
        assert [entry.equation.id for entry in rows] == [eq_id]
        assert rows[0].membership == system.id


_coefficients = st.integers(-6, 6).filter(bool)


@st.composite
def _split_points(draw):
    """A system and pairwise-coprime nonzero (p, q, r, s).

    Each of the primes 2 to 11 goes to one part or to none, so the parts
    are coprime by construction. About half of the time m, k and n are
    scaled by s^2, q^2 s^2 and q^2 and l is solved for, so that the split
    point lies on the system whenever that l is nonzero.
    """
    parts = [draw(st.sampled_from((1, -1))) for _ in range(4)]
    for prime in (2, 3, 5, 7, 11):
        owner = draw(st.integers(0, 4))
        if owner < 4:
            parts[owner] *= prime
    p, q, r, s = parts
    m, n, k, l = (draw(_coefficients) for _ in range(4))
    solved = p * p * (m - k * r * r) + n * r * r
    if draw(st.booleans()) and solved:
        m, k, n, l = m * s * s, k * q * q * s * s, n * q * q, solved
    return ResolventSystem("T", m, n, k, l), (p, q, r, s)


@given(_split_points())
@example((ResolventSystem("T1", 1, 1, 1, 1), (1, 1, 1, 1)))
@example((ResolventSystem("T2", 1, 3, 3, 3), (2, 3, 1, 1)))
def test_split_point_solves_the_system_iff_p2_d_equals_s2_n(case):
    system, (p, q, r, s) = case
    d_value, n_value = system.split_forms(q, r)
    on_system = check_resolvent(system, p * q, r * s, p * r, q * s)
    assert on_system == (p * p * d_value == s * s * n_value)


def test_resolvent_solution_factory():
    sol = resolvent_solution(R1, 1, 0, 1, 0)
    assert sol.trivial and sol.as_tuple() == (1, 0, 1, 0)
    with pytest.raises(NotASolution):
        resolvent_solution(R1, 2, 1, 2, 1)


_E2_FIELDS = {"id": "E2", "a": 1, "b": 0, "c": 4, "d": 1, "e": 2}
_E2_REPR = "QuarticEquation(id='E2', a=1, b=0, c=4, d=1, e=2)"


@pytest.mark.parametrize(
    "cls,values,repr_text",
    [
        (QuarticEquation, _E2_FIELDS, _E2_REPR),
        (
            ResolventSystem,
            {"id": "R1", "m": 1, "n": -1, "k": 1, "l": 1},
            "ResolventSystem(id='R1', m=1, n=-1, k=1, l=1)",
        ),
        (
            QuarticSolution,
            {"x": 1, "y": 0, "z": 1, "primitive": True, "trivial": True},
            "QuarticSolution(x=1, y=0, z=1, primitive=True, trivial=True)",
        ),
        (
            ResolventSolution,
            {"system_id": "R1", "x": 1, "y": 0, "xp": 1, "yp": 0, "trivial": True},
            "ResolventSolution(system_id='R1', x=1, y=0, xp=1, yp=0, trivial=True)",
        ),
        (
            CatalogEntry,
            {"equation": QuarticEquation(**_E2_FIELDS), "membership": MEMBER_R1},
            f"CatalogEntry(equation={_E2_REPR}, membership='R1')",
        ),
    ],
)
def test_record_value_classes(check_value_class, cls, values, repr_text):
    check_value_class(cls, values, repr_text=repr_text)
    # A solution record's coordinates, in field order, are what as_tuple
    # returns and what named() maps by name.
    coordinates = [name for name in values if name in ("x", "y", "z", "xp", "yp")]
    if coordinates:
        point = cls(**values)
        assert cls.coordinates == tuple(coordinates)
        assert point.as_tuple() == tuple(values[name] for name in coordinates)
        assert list(point.named().items()) == [(name, values[name]) for name in coordinates]


def test_catalog_records_equal_freshly_built_ones():
    assert equation_by_id("E2") == QuarticEquation(**_E2_FIELDS)
    assert resolvent_by_id("R1") == ResolventSystem("R1", 1, -1, 1, 1)
    assert list_catalog()[1] == CatalogEntry(QuarticEquation(**_E2_FIELDS), MEMBER_R1)
    assert eval_quartic(equation_by_id("E2"), 1, 0) == [
        QuarticSolution(1, 0, -1, True, True),
        QuarticSolution(1, 0, 1, True, True),
    ]
    assert resolvent_solution(R1, 1, 0, 1, 0) == ResolventSolution("R1", 1, 0, 1, 0, True)
