"""Residue obstructions, the valuation bound, and the staged descent engine."""

from __future__ import annotations

import math
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from descent_forge import descent
from descent_forge.core_arith import coprime_split, factorize
from descent_forge.descent import (
    MODULUS_LIMIT,
    STAGE_INNER_TRIPLES,
    STAGE_REARRANGE,
    STAGE_SUM_DIFFERENCE,
    TERMINAL_NON_SOLUTION,
    TERMINAL_STAGE_FAILURE,
    TERMINAL_TRIVIAL_INPUT,
    TERMINAL_TRIVIAL_REACHED,
    DescentStep,
    ObstructionReport,
    descent_chain,
    descent_step,
    inner_triples_stage,
    nu_lower_bound,
    residue_obstruction,
    split_stage,
    sum_difference_stage,
)
from descent_forge.equations import R1, R2, ResolventSolution, ResolventSystem, resolvent_solution
from descent_forge.errors import (
    BoundExceeded,
    InternalInvariantBroken,
    NotASolution,
    SplitPreconditionFailed,
    StageFailure,
    TrivialInput,
    UnsupportedResolvent,
)
from descent_forge.search import search_resolvent


def test_mod_2_obstruction_is_forced():
    report = residue_obstruction(R1, 2)
    assert report.forced is True
    # Odd squares are constant mod 8, so the even modulus is analyzed at
    # 2-adic depth 3; plain mod-2 residues cannot separate the two sides.
    assert report.analysis_modulus == 8
    assert report.surviving_products == (0,)


def test_mod_3_obstruction_is_forced():
    report = residue_obstruction(R1, 3)
    assert report.forced is True
    assert report.analysis_modulus == 3
    assert report.surviving_products == (0,)
    assert report.survivor_classes == 8


def test_mod_5_obstruction_is_forced_too():
    # Unit squares mod 5 are {1, 4}: the difference side then takes values
    # {0, 2, 3} with unit products {1, 4}, {2, 3}, {2, 3} respectively, while
    # the sum side pairs those same values with unit products {2, 3}, {1, 4},
    # {1, 4}. The product-equality constraint therefore kills every survivor
    # with a unit product, and enumeration confirms only multiples of 5
    # remain. Deeper two-adic or mod-25 analysis does not change this.
    report = residue_obstruction(R1, 5)
    assert report.forced is True
    assert report.surviving_products == (0,)


def test_mod_4_obstruction_is_not_forced():
    # (x, y, xp, yp) = (1, 2, 1, 2) survives mod 8 with product 2, so 4 does
    # not divide every surviving product; this is a genuine unforced control.
    report = residue_obstruction(R1, 4)
    assert report.forced is False
    assert 2 in report.surviving_products


def test_mod_9_obstruction_is_not_forced():
    report = residue_obstruction(R1, 9)
    assert report.forced is False
    assert set(report.surviving_products) == {0, 3, 6}


def test_obstruction_handles_the_companion_system():
    assert residue_obstruction(R2, 2).forced is True
    assert residue_obstruction(R2, 3).forced is True


def _direct_residue_obstruction(system: ResolventSystem, modulus: int) -> ObstructionReport:
    """Oracle: enumerate all deep^2 pair classes mod the analysis modulus."""
    deep = descent._analysis_modulus(modulus)
    primes = [prime for prime, _ in factorize(modulus)]

    # Group pairs by (quadratic value, product) mod the analysis modulus;
    # a survivor is a left pair and a right pair in the same group. Both
    # sides range over the same pair classes, so one enumeration serves both.
    left: dict[tuple[int, int], list[int]] = {}
    right: dict[tuple[int, int], int] = {}
    for x in range(deep):
        x_zero = [q for q in primes if x % q == 0]
        for y in range(deep):
            if any(y % q == 0 for q in x_zero):
                continue
            product = x * y % deep
            left_key = ((system.m * x * x + system.n * y * y) % deep, product)
            left.setdefault(left_key, []).append(x * y % modulus)
            right_key = ((system.k * x * x + system.l * y * y) % deep, product)
            right[right_key] = right.get(right_key, 0) + 1

    surviving: set[int] = set()
    survivor_classes = 0
    for key, products in left.items():
        partners = right.get(key, 0)
        if partners:
            surviving.update(products)
            survivor_classes += partners * len(products)
    return ObstructionReport(
        system_id=system.id,
        modulus=modulus,
        analysis_modulus=deep,
        forced=all(value == 0 for value in surviving),
        surviving_products=tuple(sorted(surviving)),
        survivor_classes=survivor_classes,
    )


# S1 has no survivors at all modulo 3 or 8 (x^2 + y^2 = 3(x'^2 + y'^2)),
# so every multiple of 2 or 3 is forced only vacuously; S2 mixes forced
# and unforced moduli with no empty component below 60.
_ORACLE_SYSTEMS = (
    R1,
    R2,
    ResolventSystem("S1", 1, 1, 3, 3),
    ResolventSystem("S2", 2, -3, 5, 7),
)
# Prime powers whose unit-square orbits reach depth 2 and beyond.
_ORACLE_PRIME_POWERS = (125, 128, 169, 243, 256)


@pytest.mark.parametrize("system", _ORACLE_SYSTEMS, ids=lambda system: system.id)
def test_residue_obstruction_matches_direct_enumeration(system):
    mismatches = [
        modulus
        for modulus in (*range(2, 121), *_ORACLE_PRIME_POWERS)
        if residue_obstruction(system, modulus).to_dict()
        != _direct_residue_obstruction(system, modulus).to_dict()
    ]
    assert mismatches == []


def test_synthetic_oracle_systems_reach_the_empty_and_unforced_cases():
    assert residue_obstruction(_ORACLE_SYSTEMS[2], 3).survivor_classes == 0
    assert residue_obstruction(_ORACLE_SYSTEMS[2], 6).forced is True
    assert residue_obstruction(_ORACLE_SYSTEMS[3], 7).forced is False


# The largest accepted prime, 2^13, 97^2, 3^8 and 2 * 4999.
_WORST_CASE_MODULI = (9973, 8192, 9409, 6561, 9998)


@pytest.mark.parametrize("modulus", _WORST_CASE_MODULI)
def test_residue_obstruction_is_bounded_at_the_modulus_limit(modulus):
    assert modulus <= MODULUS_LIMIT
    start = time.perf_counter()
    report = residue_obstruction(R1, modulus)
    assert time.perf_counter() - start < 10.0
    assert report.analysis_modulus == descent._analysis_modulus(modulus)
    assert report.survivor_classes > 0
    assert all(0 <= value < modulus for value in report.surviving_products)


def test_residue_obstruction_factors_over_crt_components_at_the_limit():
    whole = residue_obstruction(R1, 9998)
    two, odd = residue_obstruction(R1, 2), residue_obstruction(R1, 4999)
    assert whole.survivor_classes == two.survivor_classes * odd.survivor_classes
    assert {value % 2 for value in whole.surviving_products} == set(two.surviving_products)
    assert {value % 4999 for value in whole.surviving_products} == set(odd.surviving_products)
    assert whole.forced is (two.forced and odd.forced)


@pytest.mark.parametrize("prime", [41, 9973])
def test_surviving_products_are_closed_under_unit_squares(prime):
    # Scaling a survivor by a unit t multiplies its product by t^2. The unit
    # squares mod a prime are the powers of g^2 for a primitive root g, so
    # closure under g^2 is closure under all of them. Mod 41 the survivors
    # of R1 carry 0 and the 20 squares only.
    g = next(
        g
        for g in range(2, prime)
        if all(pow(g, (prime - 1) // q, prime) != 1 for q, _ in factorize(prime - 1))
    )
    products = set(residue_obstruction(R1, prime).surviving_products)
    assert {value * g * g % prime for value in products} == products
    if prime == 41:
        assert products == {t * t % prime for t in range(prime)}


@pytest.mark.parametrize("modulus", [1, 0, -3, 10**4 + 1])
def test_obstruction_modulus_bounds(modulus):
    with pytest.raises(BoundExceeded):
        residue_obstruction(R1, modulus)


def test_obstruction_report_serialization():
    data = residue_obstruction(R1, 3).to_dict()
    assert data == {
        "system": "R1",
        "modulus": 3,
        "analysis_modulus": 3,
        "forced": True,
        "surviving_products": [0],
        "survivor_classes": 8,
    }


def test_nu_lower_bound_is_two_and_stateless():
    assert nu_lower_bound(R1) == 2
    assert nu_lower_bound(R1) == 2
    with pytest.raises(UnsupportedResolvent):
        nu_lower_bound(R2)


def test_split_stage_reproduces_pairwise_coprime_parts():
    # Stage 1 is the four-gcd split; reproduction on constructed quadruples.
    assert coprime_split(6, 35, 10, 21) == (2, 3, 5, 7)
    assert coprime_split(2 * 9, 25 * 7, 2 * 25, 9 * 7) == (2, 9, 25, 7)


def test_split_stage_enforces_the_rearranged_identity():
    with pytest.raises(StageFailure) as info:
        split_stage(6, 35, 10, 21)
    assert info.value.stage == STAGE_REARRANGE
    assert info.value.values == {"p": 2, "q": 3, "r": 5, "s": 7}


def test_split_stage_propagates_split_preconditions():
    with pytest.raises(SplitPreconditionFailed):
        split_stage(1, 0, 1, 0)


@given(st.integers(1, 500), st.integers(1, 500), st.integers(1, 500), st.integers(1, 500))
def test_rearranged_identity_is_equivalent_to_the_quadratic_equality(p, q, r, s):
    x, y, xp, yp = p * q, r * s, p * r, q * s
    quadratic = x * x - y * y == xp * xp + yp * yp
    rearranged = (p * p - s * s) * q * q == (p * p + s * s) * r * r
    assert quadratic == rearranged


def test_sum_difference_stage_accepts_the_degenerate_split():
    assert sum_difference_stage(1, 1, 1, 0) == (1, 1)


def test_sum_difference_stage_surfaces_the_shared_factor_two():
    # p and s both odd makes p^2 + s^2 and p^2 - s^2 share the factor 2; the
    # stage reports rather than repairs it.
    with pytest.raises(StageFailure) as info:
        sum_difference_stage(3, 1, 1, 1)
    assert info.value.stage == STAGE_SUM_DIFFERENCE
    assert info.value.values["gcd"] == 2


@pytest.mark.parametrize(
    "p,q,r,s",
    [
        (2, 3, 1, 1),  # q^2 = 9 != 5
        (4, 5, 1, 3),  # q matches 25 but r^2 = 1 != 7
    ],
)
def test_sum_difference_stage_rejects_non_square_forms(p, q, r, s):
    with pytest.raises(StageFailure) as info:
        sum_difference_stage(p, q, r, s)
    assert info.value.stage == STAGE_SUM_DIFFERENCE


@given(st.integers(1, 2000), st.integers(0, 2000))
def test_sum_and_difference_forms_share_at_most_a_factor_two(p, s):
    if math.gcd(p, s) != 1 or p <= s:
        return
    shared = math.gcd(p * p + s * s, p * p - s * s)
    assert shared in (1, 2)
    assert (shared == 2) == (p % 2 == 1 and s % 2 == 1)


def test_inner_triples_stage_degenerate_case():
    assert inner_triples_stage(1, 1, 1, 0) == ((1, 0), (1, 0))


def test_inner_triples_stage_reports_failed_decompositions():
    with pytest.raises(StageFailure) as info:
        inner_triples_stage(3, 5, 1, 4)
    assert info.value.stage == STAGE_INNER_TRIPLES
    assert "reason" in info.value.values


@pytest.mark.parametrize("quad", [(1, 0, 1, 0), (1, 0, 0, 1), (-1, 0, -1, 0)])
def test_descent_step_rejects_trivial_solutions(quad):
    with pytest.raises(TrivialInput):
        descent_step(*quad)


@pytest.mark.parametrize("quad", [(6, 35, 10, 21), (3, 1, 3, 1), (0, 1, 1, 0)])
def test_descent_step_rejects_non_solutions(quad):
    with pytest.raises(NotASolution):
        descent_step(*quad)


def test_descent_step_supports_only_the_first_resolvent():
    with pytest.raises(UnsupportedResolvent):
        descent_step(1, 0, 1, 0, system=R2)


def test_descent_step_domain_is_empty_at_desk_scale():
    report = search_resolvent(R1, 60, include_trivial=True)
    for quad in report.solutions:
        with pytest.raises(TrivialInput):
            descent_step(*quad)


def _trivial_solution() -> ResolventSolution:
    return resolvent_solution(R1, 1, 0, 1, 0)


def test_synthetic_step_validates_strict_decrease():
    step = DescentStep(
        input=_trivial_solution(),
        split=(1, 1, 1, 1),
        inner_solutions=((1, 0), (1, 0)),
        output=_trivial_solution(),
        nu_in=3,
        nu_out=2,
    )
    step.validate()
    data = step.to_dict()
    assert data["nu_in"] == 3 and data["nu_out"] == 2
    assert data["split"] == {"p": 1, "q": 1, "r": 1, "s": 1}


def test_synthetic_step_rejects_non_decreasing_valuation():
    step = DescentStep(
        input=_trivial_solution(),
        split=(1, 1, 1, 1),
        inner_solutions=((1, 0), (1, 0)),
        output=_trivial_solution(),
        nu_in=2,
        nu_out=2,
    )
    with pytest.raises(InternalInvariantBroken):
        step.validate()


def test_synthetic_step_rejects_invalid_output():
    # Bypass the factory to build a quadruple that fails the quadratic check.
    bogus = ResolventSolution("R1", 2, 1, 2, 1, trivial=False)
    step = DescentStep(
        input=_trivial_solution(),
        split=(1, 1, 1, 1),
        inner_solutions=((1, 0), (1, 0)),
        output=bogus,
        nu_in=3,
        nu_out=1,
    )
    with pytest.raises(InternalInvariantBroken):
        step.validate()


def test_descent_chain_trivial_input_terminal():
    trace = descent_chain(1, 0, 1, 0)
    assert trace.steps == []
    assert trace.terminal.kind == TERMINAL_TRIVIAL_INPUT
    data = trace.to_dict()
    assert data["source"] == [1, 0, 1, 0]
    assert data["terminal"]["kind"] == TERMINAL_TRIVIAL_INPUT


def test_descent_chain_non_solution_terminal():
    trace = descent_chain(3, 1, 3, 1)
    assert trace.steps == []
    assert trace.terminal.kind == TERMINAL_NON_SOLUTION


def test_descent_chain_supports_only_the_first_resolvent():
    with pytest.raises(UnsupportedResolvent):
        descent_chain(1, 0, 1, 0, system=R2)


def test_descent_chain_terminates_on_every_searched_solution():
    report = search_resolvent(R1, 60, include_trivial=True)
    for quad in report.solutions:
        trace = descent_chain(*quad)
        assert trace.terminal.kind == TERMINAL_TRIVIAL_INPUT
        assert trace.steps == []


# R1 has no nontrivial point, so the chain's step-driven paths run on a
# stand-in system that carries R1's id and has one, with descent_step
# replaced by a scripted fake.
_STAND_IN = ResolventSystem("R1", 1, 1, 1, 1)
_STAND_IN_POINT = (2, 3, 3, 2)


def _scripted_steps(monkeypatch, outputs):
    """Make descent.descent_step emit steps with the given outputs in turn."""
    calls = []

    def fake_step(x, y, xp, yp, system):
        calls.append((x, y, xp, yp))
        output = outputs[min(len(calls), len(outputs)) - 1]
        return DescentStep(
            input=ResolventSolution("R1", x, y, xp, yp, trivial=False),
            split=(1, 1, 1, 1),
            inner_solutions=((1, 0), (1, 0)),
            output=ResolventSolution("R1", *output, trivial=output[0] * output[1] == 0),
            nu_in=2,
            nu_out=1,
        )

    monkeypatch.setattr(descent, "descent_step", fake_step)
    return calls


def test_descent_chain_stage_failure_terminal(monkeypatch):
    def failing_step(x, y, xp, yp, system):
        raise StageFailure(STAGE_INNER_TRIPLES, {"p": 3, "s": 4, "reason": "not a triple"})

    monkeypatch.setattr(descent, "descent_step", failing_step)
    trace = descent_chain(*_STAND_IN_POINT, system=_STAND_IN)
    assert trace.steps == []
    assert trace.to_dict()["terminal"] == {
        "kind": TERMINAL_STAGE_FAILURE,
        "stage": STAGE_INNER_TRIPLES,
        "values": {"p": 3, "s": 4, "reason": "not a triple"},
    }


def test_descent_chain_trivial_reached_terminal(monkeypatch):
    calls = _scripted_steps(monkeypatch, [(3, 2, 2, 3), (1, 0, 1, 0)])
    trace = descent_chain(*_STAND_IN_POINT, system=_STAND_IN)
    assert calls == [_STAND_IN_POINT, (3, 2, 2, 3)]
    assert len(trace.steps) == 2
    assert trace.to_dict()["terminal"] == {
        "kind": TERMINAL_TRIVIAL_REACHED,
        "values": {"output": [1, 0, 1, 0]},
    }


def test_descent_chain_step_cap_raises(monkeypatch):
    calls = _scripted_steps(monkeypatch, [(3, 2, 2, 3)])
    # nu(2 * 3) + 1 = 3 steps are allowed; a chain that never ends is a bug.
    with pytest.raises(InternalInvariantBroken, match="exceeded 3 steps"):
        descent_chain(*_STAND_IN_POINT, system=_STAND_IN)
    assert len(calls) == 3
