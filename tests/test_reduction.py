"""Reduction and lifting maps, their traces, and the replay auditor."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from descent_forge import reduction
from descent_forge.core_arith import isqrt_exact
from descent_forge.equations import (
    R1,
    QuarticSolution,
    ResolventSolution,
    equation_by_id,
    list_catalog,
    quartic_solution,
    resolvent_solution,
)
from descent_forge.errors import (
    InternalInvariantBroken,
    NotASolution,
    NotPrimitive,
    StageFailure,
    TrivialInput,
)
from descent_forge.reduction import (
    KIND_DESCENT,
    STAGE_ASSEMBLE,
    STAGE_DIFFERENCE_OF_SQUARES,
    STAGE_INNER_TRIPLES,
    STAGE_REARRANGE,
    STAGE_SQUARE_EXTRACT,
    STAGE_SUM_DIFFERENCE,
    STAGE_TRIPLE_DECOMPOSE,
    STAGE_TWIN_TRIPLE_DECOMPOSE,
    ReductionTrace,
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
    trace = _forward_stages(1, 0, 1)
    assert trace.final.as_tuple() == (1, 0, 1, 0)
    assert trace.final.trivial
    assert [step.stage for step in trace.steps] == [
        STAGE_TRIPLE_DECOMPOSE,
        STAGE_SQUARE_EXTRACT,
        STAGE_DIFFERENCE_OF_SQUARES,
        STAGE_TWIN_TRIPLE_DECOMPOSE,
        STAGE_ASSEMBLE,
    ]
    assert replay_trace(trace) is trace


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
    def reject(*_):
        raise NotASolution("rejected by the test")

    monkeypatch.setattr(reduction, checker, reject)
    with pytest.raises(StageFailure) as info:
        reduce_map(*args)
    assert info.value.stage == STAGE_ASSEMBLE
    assert info.value.values == {**values, "reason": "rejected by the test"}
    assert isinstance(info.value.__cause__, NotASolution)


@pytest.mark.parametrize(
    "reduce_map, args, exact_roots, stage_name, values",
    [
        (_forward_stages, (1, 0, 1), 0, STAGE_SQUARE_EXTRACT, {"u": 1, "v": 0}),
        (_forward_stages, (1, 0, 1), 1, STAGE_SQUARE_EXTRACT, {"u": 1, "v": 0}),
        (_forward_stages, (1, 0, 1), 2, STAGE_DIFFERENCE_OF_SQUARES, {"sum": 1, "difference": 1}),
        (_forward_stages, (1, 0, 1), 3, STAGE_DIFFERENCE_OF_SQUARES, {"sum": 1, "difference": 1}),
        (backward_lift_biquadratic, (1, 0, 1, 0), 0, STAGE_SQUARE_EXTRACT, {"T": 1, "S": 0}),
        (resolvent_to_sextic, (1, 0, 1, 0), 0, STAGE_SQUARE_EXTRACT, {"xp": 1, "yp": 0, "value": 1}),
    ],
    ids=["E2->R1 root 1", "E2->R1 root 2", "E2->R1 root 3", "E2->R1 root 4", "R1->E2", "R1->E4"],
)
def test_a_missing_exact_root_is_a_stage_failure(monkeypatch, reduce_map, args, exact_roots, stage_name, values):
    # The first exact_roots square roots are taken and every later one is
    # refused, so a stage fails on its first root as on its second.
    calls = []

    def refusing_root(n):
        calls.append(n)
        return isqrt_exact(n) if len(calls) <= exact_roots else None

    monkeypatch.setattr(reduction, "isqrt_exact", refusing_root)
    with pytest.raises(StageFailure) as info:
        reduce_map(*args)
    assert info.value.stage == stage_name
    assert info.value.values == values


def test_maps_pair_each_mapped_equation_with_its_reduce_and_lift():
    assert reduction.MAPPED_IDS == ("E2", "E4")
    assert reduction.maps("E2") == (forward_reduce_biquadratic, backward_lift_biquadratic)
    assert reduction.maps("E4") == (sextic_to_resolvent, resolvent_to_sextic)


def test_maps_exist_for_the_mapped_ids_alone():
    for entry in list_catalog():
        if entry.equation.id in reduction.MAPPED_IDS:
            assert len(reduction.maps(entry.equation.id)) == 2
        else:
            with pytest.raises(KeyError):
                reduction.maps(entry.equation.id)


def _rebuilt(trace, **changes):
    """A copy of the trace with the given fields replaced."""
    fields = {name: getattr(trace, name) for name in ReductionTrace.__match_args__}
    return ReductionTrace(**{**fields, **changes})


def test_replay_rejects_tampered_outputs():
    trace = _forward_stages(1, 0, 1)
    good = trace.steps[0]
    tampered = (TraceStep(good.stage, good.inputs, {"u": 2, "v": 0}),) + trace.steps[1:]
    with pytest.raises(InternalInvariantBroken, match="does not replay"):
        replay_trace(_rebuilt(trace, steps=tampered))


@pytest.mark.parametrize("name, value", [("alpha", 99), ("beta", 77)])
def test_replay_rejects_a_tampered_twin_triple_side(name, value):
    # The twin triples are (s, t, alpha) and (beta, t, s): each generator
    # pair must rebuild all three sides of its triple, not only s and t.
    trace = _forward_stages(1, 0, 1)
    index = [step.stage for step in trace.steps].index(STAGE_TWIN_TRIPLE_DECOMPOSE)
    twin = trace.steps[index]
    tampered = TraceStep(twin.stage, {**twin.inputs, name: value}, twin.outputs)
    steps = trace.steps[:index] + (tampered,) + trace.steps[index + 1:]
    with pytest.raises(InternalInvariantBroken, match="TwinTripleDecompose .* does not replay"):
        replay_trace(_rebuilt(trace, steps=steps))


def test_replay_rejects_unknown_stages():
    trace = _forward_stages(1, 0, 1)
    with pytest.raises(InternalInvariantBroken, match="stages"):
        replay_trace(_rebuilt(trace, steps=trace.steps + (TraceStep("Bogus", {}, {}),)))


def test_replay_rejects_unknown_kinds():
    trace = _forward_stages(1, 0, 1)
    with pytest.raises(InternalInvariantBroken, match="stages"):
        replay_trace(_rebuilt(trace, kind="E9->R1"))


def _descent_trace():
    """The one R1 -> R1 trace that replays, built by hand: a nontrivial
    source would give a split that passes SumDifferenceForms, so a
    nontrivial point (p, s, q*r) of E1, x^4 - y^4 = z^2, which has none."""
    source = {"x": 1, "y": 0, "xp": 1, "yp": 0}
    split = {"p": 1, "q": 1, "r": 1, "s": 0}
    generators = {"s0": 1, "t0": 0, "s0p": 1, "t0p": 0}
    steps = [
        TraceStep(STAGE_REARRANGE, source, split),
        TraceStep(STAGE_SUM_DIFFERENCE, dict(split), {"sum": 1, "difference": 1}),
        TraceStep(STAGE_INNER_TRIPLES, dict(split), generators),
        TraceStep(STAGE_ASSEMBLE, dict(generators), dict(source)),
    ]
    signs = dict.fromkeys(ResolventSolution.coordinates, 1)
    return reduction.replayed(KIND_DESCENT, (1, 0, 1, 0), signs, steps, resolvent_solution(R1, 1, 0, 1, 0))


# One trace of each kind.
_MAKE_TRACE = {
    "E2->R1": lambda: _forward_stages(1, 0, 1),
    "R1->E2": lambda: backward_lift_biquadratic(1, 0, 1, 0),
    "E4->R1": lambda: sextic_to_resolvent(0, 1, 1),
    "R1->E4": lambda: resolvent_to_sextic(1, 0, 1, 0),
    "R1->R1": _descent_trace,
}


@pytest.mark.parametrize("kind", _MAKE_TRACE)
def test_replay_rejects_reversed_steps(kind):
    trace = _MAKE_TRACE[kind]()
    assert trace.kind == kind
    replay_trace(trace)
    with pytest.raises(InternalInvariantBroken, match="stages"):
        replay_trace(_rebuilt(trace, steps=trace.steps[::-1]))


@pytest.mark.parametrize("kind", _MAKE_TRACE)
def test_replay_rejects_a_trace_without_steps(kind):
    trace = _MAKE_TRACE[kind]()
    with pytest.raises(InternalInvariantBroken, match="stages"):
        replay_trace(_rebuilt(trace, steps=()))


@pytest.mark.parametrize("kind", _MAKE_TRACE)
def test_replay_rejects_a_dropped_step(kind):
    trace = _MAKE_TRACE[kind]()
    # Dropping the first step leaves the last one, and so final, intact.
    with pytest.raises(InternalInvariantBroken, match="stages"):
        replay_trace(_rebuilt(trace, steps=trace.steps[1:]))


@pytest.mark.parametrize(
    "kind, other_final",
    [
        ("E2->R1", resolvent_solution(R1, 1, 0, 0, 1)),
        ("R1->E2", quartic_solution(equation_by_id("E2"), 0, 1, 2)),
        ("E4->R1", resolvent_solution(R1, 1, 0, 1, 0)),
        ("R1->E4", quartic_solution(equation_by_id("E4"), 0, 1, 1)),
        ("R1->R1", resolvent_solution(R1, 1, 0, 0, 1)),
    ],
    ids=list(_MAKE_TRACE),
)
def test_replay_rejects_a_replaced_final(kind, other_final):
    trace = _MAKE_TRACE[kind]()
    assert other_final != trace.final
    with pytest.raises(InternalInvariantBroken, match="final"):
        replay_trace(_rebuilt(trace, final=other_final))


# Each tampering leaves the steps and final as the map recorded them.
_UNCANONICAL = {
    "negative source": lambda trace: {"source": (-1,) + trace.source[1:]},
    "foreign sign names": lambda trace: {"sign_changes": {"x": 7}},
    "a sign of 0": lambda trace: {"sign_changes": {**trace.sign_changes, "y": 0}},
    "signs out of order": lambda trace: {"sign_changes": dict(reversed(trace.sign_changes.items()))},
    "a sign missing": lambda trace: {"sign_changes": dict(list(trace.sign_changes.items())[:-1])},
}


@pytest.mark.parametrize("tampering", _UNCANONICAL)
@pytest.mark.parametrize("kind", _MAKE_TRACE)
def test_replay_rejects_an_uncanonical_source_or_sign_changes(kind, tampering):
    trace = _MAKE_TRACE[kind]()
    with pytest.raises(InternalInvariantBroken, match="not canonical"):
        replay_trace(_rebuilt(trace, **_UNCANONICAL[tampering](trace)))


# Signed inputs of three kinds (E2 has no non-trivial point to reduce).
_SIGNED_MAPS = {
    "R1->E2": lambda: backward_lift_biquadratic(-1, 0, -1, 0),
    "R1->E4": lambda: resolvent_to_sextic(-1, 0, -1, 0),
    "E4->R1": lambda: sextic_to_resolvent(-1, 0, 1),
}


@pytest.mark.parametrize("kind", _SIGNED_MAPS)
def test_replay_accepts_a_signed_input_but_not_a_signed_source(monkeypatch, kind):
    trace = _SIGNED_MAPS[kind]()
    assert trace.sign_changes["x"] == -1
    replay_trace(trace)
    # Every stage identity is even in the signs, so only the source check
    # sees that a sign-keeping canonicalization's first step read a signed
    # point, and the map's own replay refuses the trace it built.
    canonicalize = reduction._canonicalize
    monkeypatch.setattr(reduction, "_canonicalize", lambda point: (point.named(), canonicalize(point)[1]))
    with pytest.raises(InternalInvariantBroken, match=r"source \(-1, 0, .* not canonical"):
        _SIGNED_MAPS[kind]()


def test_replay_rejects_a_symmetric_triple_not_built_from_x_and_y():
    # (t, s, z) = (1, 0, 1) is generated by (1, 0) whatever x and y say, so
    # only the tie t = x^2 + y^2, s = 2xy sees a changed x.
    trace = sextic_to_resolvent(1, 0, 1)
    first = trace.steps[0]
    tampered = TraceStep(first.stage, {**first.inputs, "x": 2}, first.outputs)
    with pytest.raises(InternalInvariantBroken, match="TripleDecompose .* does not replay"):
        replay_trace(_rebuilt(trace, steps=(tampered,) + trace.steps[1:]))


# A step that lacks a name its check reads, or holds a string where the
# check does arithmetic: (the step's index, the name) per kind.
_MALFORMED_SITES = {"E4->R1": (0, "x"), "R1->R1": (1, "p")}
_MALFORMED = {
    "deleted key": lambda values, name: {key: value for key, value in values.items() if key != name},
    "string value": lambda values, name: {**values, name: str(values[name])},
}


@pytest.mark.parametrize("malformed", _MALFORMED)
@pytest.mark.parametrize("kind", _MALFORMED_SITES)
def test_replay_refuses_a_malformed_step(kind, malformed):
    trace = _MAKE_TRACE[kind]()
    index, name = _MALFORMED_SITES[kind]
    step = trace.steps[index]
    tampered = TraceStep(step.stage, _MALFORMED[malformed](step.inputs, name), step.outputs)
    check = reduction._REPLAY_SEQUENCES[kind][1][index][1]
    with pytest.raises((KeyError, TypeError)):
        check(tampered.inputs, tampered.outputs)
    # The check's KeyError or TypeError is a step that does not replay.
    steps = trace.steps[:index] + (tampered,) + trace.steps[index + 1:]
    with pytest.raises(InternalInvariantBroken, match=f"stage {step.stage} of {kind} does not replay"):
        replay_trace(_rebuilt(trace, steps=steps))


# Each tampering of one R1 -> R1 step breaks one clause of its replay check:
# (stage, changed inputs, changed outputs). The final point follows the
# Assemble outputs, so only the stage check can see a tampered output.
_DESCENT_TAMPERS = {
    "split does not rebuild the source": (STAGE_REARRANGE, {"x": 2}, {}),
    "split parts share a factor": (STAGE_REARRANGE, {"x": 2, "xp": 2}, {"q": 2, "r": 2}),
    "split fails p^2 D = s^2 N": (STAGE_REARRANGE, {"y": 1, "yp": 1}, {"s": 1}),
    "q^2 is not p^2 + s^2": (STAGE_SUM_DIFFERENCE, {"q": 2}, {}),
    "r^2 is not p^2 - s^2": (STAGE_SUM_DIFFERENCE, {"r": 2}, {}),
    "recorded sum is not p^2 + s^2": (STAGE_SUM_DIFFERENCE, {}, {"sum": 2}),
    "(s0, t0) does not generate (p, s, q)": (STAGE_INNER_TRIPLES, {"q": 2}, {}),
    "(s0p, t0p) does not generate (r, s, p)": (STAGE_INNER_TRIPLES, {"r": 2}, {}),
    "output is not the generators": (STAGE_ASSEMBLE, {}, {"xp": 0, "yp": 1}),
    "output is off R1": (
        STAGE_ASSEMBLE, {"s0": 2, "t0": 1, "s0p": 2, "t0p": 1}, {"x": 2, "y": 1, "xp": 2, "yp": 1},
    ),
}


@pytest.mark.parametrize("stage, inputs, outputs", _DESCENT_TAMPERS.values(), ids=list(_DESCENT_TAMPERS))
def test_replay_rejects_a_tampered_descent_step(stage, inputs, outputs):
    trace = _descent_trace()
    index = [step.stage for step in trace.steps].index(stage)
    step = trace.steps[index]
    tampered = TraceStep(stage, {**step.inputs, **inputs}, {**step.outputs, **outputs})
    steps = trace.steps[:index] + (tampered,) + trace.steps[index + 1:]
    # Replay reads only the final point's coordinates.
    final = ResolventSolution("R1", **steps[-1].outputs, trivial=False)
    with pytest.raises(InternalInvariantBroken, match=f"stage {stage} of R1->R1 does not replay"):
        replay_trace(_rebuilt(trace, steps=steps, final=final))


def test_replay_rejects_inner_triples_off_the_shared_leg():
    # (3, 2) generates (5, 12, 13), not (5, 4, 13), while (2, 1) generates
    # (3, 4, 5): only s = 2*s0*t0 fails. That clause, with y = r*s from
    # Rearrange, is the step's strict descent: nu(s0*t0) = nu(s) - 1 <
    # nu(x*y). No whole trace isolates it, since no nontrivial split
    # passes the stages before it, so the check is called directly.
    split = {"p": 5, "q": 13, "r": 3, "s": 4}
    assert not reduction._check_inner_triples(split, {"s0": 3, "t0": 2, "s0p": 2, "t0p": 1})


@pytest.mark.parametrize("kind", _MAKE_TRACE)
def test_every_map_returns_a_frozen_trace_whose_steps_own_their_dicts(kind):
    trace = _MAKE_TRACE[kind]()
    assert _MAKE_TRACE[kind]() == trace
    assert type(trace.steps) is tuple and isinstance(trace.final, (QuarticSolution, ResolventSolution))
    for name in ReductionTrace.__match_args__:
        with pytest.raises(AttributeError):
            setattr(trace, name, getattr(trace, name))
    dicts = [d for step in trace.steps for d in (step.inputs, step.outputs)]
    assert len({id(d) for d in dicts}) == len(dicts)


@pytest.mark.parametrize("kind", _MAKE_TRACE)
def test_a_trace_is_unhashable_and_replay_checks_its_dicts_as_they_stand(kind):
    # Its fields cannot be assigned, but its step dicts are not copied.
    trace = _MAKE_TRACE[kind]()
    with pytest.raises(TypeError, match="unhashable"):
        hash(trace)
    trace.steps[-1].outputs["x"] += 1
    with pytest.raises(InternalInvariantBroken, match="does not replay"):
        replay_trace(trace)


@pytest.mark.parametrize(
    "quad,expected",
    [((1, 0, 1, 0), (1, 0, 1)), ((1, 0, 0, 1), (1, 0, 1))],
)
def test_backward_lift_values(quad, expected):
    trace = backward_lift_biquadratic(*quad)
    assert trace.final.as_tuple() == expected
    assert equation_by_id("E2").is_solution(*trace.final.as_tuple())
    replay_trace(trace)


def test_backward_lift_canonicalizes_signs():
    trace = backward_lift_biquadratic(-1, 0, -1, 0)
    assert trace.final.as_tuple() == (1, 0, 1)
    assert trace.source == (1, 0, 1, 0)
    assert trace.sign_changes == {"x": -1, "y": 1, "xp": -1, "yp": 1}


@pytest.mark.parametrize("quad", [(2, 1, 2, 1), (1, 1, 1, 1), (6, 35, 10, 21)])
def test_backward_lift_rejects_non_solutions(quad):
    with pytest.raises(NotASolution):
        backward_lift_biquadratic(*quad)


def test_sextic_reduce_degenerate_cases():
    trace = sextic_to_resolvent(1, 0, 1)
    assert trace.final.as_tuple() == (1, 0, 1, 0)
    assert trace.steps[0].outputs == {"u": 1, "v": 0}
    replay_trace(trace)

    trace = sextic_to_resolvent(0, 1, 1)
    assert trace.final.as_tuple() == (1, 0, 0, 1)
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
    trace = resolvent_to_sextic(*quad)
    assert trace.final.as_tuple() == expected
    assert trace.steps[0].inputs["value"] == 1
    replay_trace(trace)


def test_resolvent_to_sextic_rejects_non_solutions():
    with pytest.raises(NotASolution):
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
        trace = backward_lift_biquadratic(*quad)
        assert e2.is_solution(*trace.final.as_tuple())
        replay_trace(trace)

        trace = resolvent_to_sextic(*quad)
        symmetric = trace.final
        assert e4.is_solution(*symmetric.as_tuple())
        replay_trace(trace)

        trace = sextic_to_resolvent(*symmetric.as_tuple())
        assert trace.final.system_id == "R1"
        replay_trace(trace)


@pytest.mark.parametrize(
    "kind, source_record, source, final",
    [
        ("E2->R1", QuarticSolution, [1, 0, 1], [1, 0, 1, 0]),
        ("R1->E2", ResolventSolution, [1, 0, 1, 0], [1, 0, 1]),
        ("E4->R1", QuarticSolution, [0, 1, 1], [1, 0, 0, 1]),
        ("R1->E4", ResolventSolution, [1, 0, 1, 0], [1, 0, 1]),
        ("R1->R1", ResolventSolution, [1, 0, 1, 0], [1, 0, 1, 0]),
    ],
    ids=list(_MAKE_TRACE),
)
def test_forward_trace_records_kind_and_signs(kind, source_record, source, final):
    trace = _MAKE_TRACE[kind]()
    data = trace.to_dict()
    assert data["kind"] == kind
    assert data["source"] == source
    assert data["final"] == final
    assert list(data["sign_changes"]) == list(source_record.coordinates)
    assert all(step["stage"] for step in data["steps"])


def test_trace_step_value_class(check_value_class):
    check_value_class(
        TraceStep,
        {"stage": STAGE_ASSEMBLE, "inputs": {"s": 1}, "outputs": {"x": 1}},
        repr_text="TraceStep(stage='Assemble', inputs={'s': 1}, outputs={'x': 1})",
    )


def test_reduction_trace_value_class(check_value_class):
    check_value_class(
        ReductionTrace,
        {
            "kind": "E4->R1", "source": (1, 0, 1), "sign_changes": {"x": 1}, "steps": (),
            "final": ResolventSolution("R1", 1, 0, 1, 0, True),
        },
        repr_text="ReductionTrace(kind='E4->R1', source=(1, 0, 1), sign_changes={'x': 1}, steps=(),"
        " final=ResolventSolution(system_id='R1', x=1, y=0, xp=1, yp=0, trivial=True))",
    )
