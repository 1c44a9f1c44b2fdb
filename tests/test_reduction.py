"""Reduction and lifting maps, their traces, and the replay auditor."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from descent_forge import reduction
from descent_forge.equations import R1, equation_by_id
from descent_forge.errors import (
    InternalInvariantBroken,
    NotAResolventSolution,
    NotASolution,
    NotPrimitive,
    StageFailure,
    TrivialInput,
)
from descent_forge.reduction import (
    KIND_BIQUADRATIC_REDUCE,
    STAGE_ASSEMBLE,
    STAGE_DIFFERENCE_OF_SQUARES,
    STAGE_SQUARE_EXTRACT,
    STAGE_TRIPLE_DECOMPOSE,
    STAGE_TWIN_TRIPLE_DECOMPOSE,
    TraceStep,
    _forward_stages,
    backward_lift_biquadratic,
    forward_reduce_biquadratic,
    replay_trace,
    resolvent_to_sextic,
    sextic_to_resolvent,
)
from descent_forge.search import search_quartic, search_resolvent

coords = st.integers(-10**6, 10**6)


@given(coords, coords)
def test_symmetric_quartic_identity(a, b):
    assert (a * a + b * b) ** 2 + 4 * (a * b) ** 2 == a**4 + 6 * a * a * b * b + b**4


@given(coords, coords)
def test_sum_form_identity(lam, gam):
    assert (lam * lam - gam * gam) ** 2 + (2 * lam * gam) ** 2 == (lam * lam + gam * gam) ** 2


@given(coords, coords)
def test_difference_form_identity(lam_p, gam_p):
    lhs = (lam_p * lam_p + gam_p * gam_p) ** 2 - (2 * lam_p * gam_p) ** 2
    assert lhs == (lam_p * lam_p - gam_p * gam_p) ** 2


@pytest.mark.parametrize("triple", [(1, 0, 1), (0, 1, 2), (1, 0, -1), (-1, 0, 1)])
def test_forward_reduce_rejects_trivial_solutions(triple):
    with pytest.raises(TrivialInput):
        forward_reduce_biquadratic(*triple)


@pytest.mark.parametrize("triple", [(1, 1, 2), (1, 1, 0), (2, 1, 4), (0, 0, 1)])
def test_forward_reduce_rejects_non_solutions(triple):
    with pytest.raises(NotASolution):
        forward_reduce_biquadratic(*triple)


def test_forward_reduce_checks_solution_hood_before_triviality():
    # (0, 0, 0) satisfies the equation, so the zero tuple lands in the
    # triviality gate rather than the solution gate.
    with pytest.raises(TrivialInput):
        forward_reduce_biquadratic(0, 0, 0)


def test_forward_reduce_domain_is_empty_at_desk_scale():
    # The map's non-trivial primitive domain: a bounded scan certifies there
    # is nothing to feed it below 200.
    report = search_quartic(equation_by_id("E2"), 200)
    assert report.solutions == ()


def test_forward_stage_pipeline_on_the_degenerate_triple():
    result, trace = _forward_stages(1, 0, 1)
    assert result.as_tuple() == (1, 0, 1, 0)
    assert result.trivial
    assert [step.stage for step in trace.steps] == [
        STAGE_TRIPLE_DECOMPOSE,
        STAGE_SQUARE_EXTRACT,
        STAGE_DIFFERENCE_OF_SQUARES,
        STAGE_TWIN_TRIPLE_DECOMPOSE,
        STAGE_ASSEMBLE,
    ]
    assert trace.final is result
    replay_trace(trace)


@pytest.mark.parametrize(
    "reduce_map, args, checker, values",
    [
        (_forward_stages, (1, 0, 1), "resolvent_solution", {"lam": 1, "gam": 0, "lam_p": 1, "gam_p": 0}),
        (backward_lift_biquadratic, (1, 0, 1, 0), "quartic_solution", {"psi": 1, "phi": 1, "T": 1, "S": 0}),
        (sextic_to_resolvent, (1, 0, 1), "resolvent_solution", {"u": 1, "v": 0, "x": 1, "y": 0}),
        (resolvent_to_sextic, (1, 0, 1, 0), "quartic_solution", {"xp": 1, "yp": 0, "D": 1}),
    ],
)
def test_rejected_assembly_is_an_assemble_stage_failure(monkeypatch, reduce_map, args, checker, values):
    rejection = NotAResolventSolution if checker == "resolvent_solution" else NotASolution

    def reject(*_):
        raise rejection("rejected by the test")

    monkeypatch.setattr(reduction, checker, reject)
    with pytest.raises(StageFailure) as info:
        reduce_map(*args)
    assert info.value.stage == STAGE_ASSEMBLE
    assert info.value.values == {**values, "reason": "rejected by the test"}
    assert isinstance(info.value.__cause__, rejection)


def test_replay_rejects_tampered_outputs():
    _, trace = _forward_stages(1, 0, 1)
    good = trace.steps[0]
    trace.steps[0] = TraceStep(good.stage, good.inputs, {"u": 2, "v": 0})
    with pytest.raises(InternalInvariantBroken):
        replay_trace(trace)


def test_replay_rejects_unknown_stages():
    _, trace = _forward_stages(1, 0, 1)
    trace.steps.append(TraceStep("Bogus", {}, {}))
    with pytest.raises(InternalInvariantBroken):
        replay_trace(trace)


@pytest.mark.parametrize(
    "quad,expected",
    [((1, 0, 1, 0), (1, 0, 1)), ((1, 0, 0, 1), (1, 0, 1))],
)
def test_backward_lift_values(quad, expected):
    sol, trace = backward_lift_biquadratic(*quad)
    assert sol.as_tuple() == expected
    assert equation_by_id("E2").is_solution(*sol.as_tuple())
    replay_trace(trace)


def test_backward_lift_canonicalizes_signs():
    sol, trace = backward_lift_biquadratic(-1, 0, -1, 0)
    assert sol.as_tuple() == (1, 0, 1)
    assert trace.sign_changes == {"x": -1, "y": 1, "xp": -1, "yp": 1}


@pytest.mark.parametrize("quad", [(2, 1, 2, 1), (1, 1, 1, 1), (6, 35, 10, 21)])
def test_backward_lift_rejects_non_solutions(quad):
    with pytest.raises(NotAResolventSolution):
        backward_lift_biquadratic(*quad)


def test_sextic_reduce_degenerate_cases():
    result, trace = sextic_to_resolvent(1, 0, 1)
    assert result.as_tuple() == (1, 0, 1, 0)
    assert trace.steps[0].outputs == {"u": 1, "v": 0}
    replay_trace(trace)

    mirrored, trace = sextic_to_resolvent(0, 1, 1)
    assert mirrored.as_tuple() == (1, 0, 0, 1)
    replay_trace(trace)


def test_sextic_reduce_rejects_non_solutions_and_imprimitive_inputs():
    # 16 + 24 + 1 = 41 is not a perfect square.
    with pytest.raises(NotASolution):
        sextic_to_resolvent(2, 1, 6)
    with pytest.raises(NotPrimitive):
        sextic_to_resolvent(2, 0, 4)


@pytest.mark.parametrize(
    "quad,expected",
    [((1, 0, 1, 0), (1, 0, 1)), ((1, 0, 0, 1), (0, 1, 1))],
)
def test_resolvent_to_sextic_values(quad, expected):
    sol, trace = resolvent_to_sextic(*quad)
    assert sol.as_tuple() == expected
    assert trace.steps[0].inputs["value"] == 1
    replay_trace(trace)


def test_resolvent_to_sextic_rejects_non_solutions():
    with pytest.raises(NotAResolventSolution):
        resolvent_to_sextic(6, 35, 10, 21)


def test_lift_soundness_over_all_searched_resolvent_solutions():
    """Both lifts must send every found solution of R1 to exact solutions of
    their target equations, and reducing the symmetric lift's output must
    land back on R1 (orbit-level round trip, not tuple identity)."""
    e2 = equation_by_id("E2")
    e4 = equation_by_id("E4")
    report = search_resolvent(R1, 60, include_trivial=True)
    assert report.solutions, "searched domain unexpectedly empty"
    for quad in report.solutions:
        lifted, trace = backward_lift_biquadratic(*quad)
        assert e2.is_solution(*lifted.as_tuple())
        replay_trace(trace)

        symmetric, trace = resolvent_to_sextic(*quad)
        assert e4.is_solution(*symmetric.as_tuple())
        replay_trace(trace)

        back, trace = sextic_to_resolvent(*symmetric.as_tuple())
        assert back.system_id == "R1"
        replay_trace(trace)


def test_forward_trace_records_kind_and_signs():
    _, trace = _forward_stages(1, 0, 1)
    data = trace.to_dict()
    assert data["kind"] == KIND_BIQUADRATIC_REDUCE
    assert data["source"] == [1, 0, 1]
    assert data["final"] == [1, 0, 1, 0]
    assert set(data["sign_changes"]) == {"x", "y", "z"}
    assert all(step["stage"] for step in data["steps"])
