"""Constructive maps between catalog quartics and the first resolvent.

Two pairs of maps are implemented, each with a full audit trace:

* E2 (x^4 + 4y^4 = z^2)            <->  R1, via generator extraction from
  the primitive triple (x^2, 2y^2, z) and two further triple splits;
* E4 (x^4 + 6x^2y^2 + y^4 = z^2)   <->  R1, via the substitution
  t = x^2 + y^2, s = 2xy and one triple split.

maps(eq_id) returns either pair as (reduce, lift).

Every step a map takes is recorded as (stage, inputs, outputs) in one
immutable trace, so the whole derivation replays from the trace alone.
A map returns that trace alone, already replayed: the mapped point is its
final record. A descent step (descent.descent_step) is one more kind,
R1 -> R1; replayed() builds and replays the traces of every kind.
On a validated input each stage is forced to succeed; a failure is
raised as StageFailure with the witnessing values, since on a genuine
solution it would contradict the theorems this toolkit audits.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from itertools import combinations

from ._value import Frozen
from .core_arith import isqrt_exact, pythagorean_decompose
from .equations import (
    QuarticSolution,
    R1,
    ResolventSolution,
    check_resolvent,
    equation_by_id,
    quartic_solution,
    resolvent_solution,
)
from .errors import (
    InternalInvariantBroken,
    NotPrimitive,
    StageFailure,
    TrivialInput,
    stage,
)

STAGE_TRIPLE_DECOMPOSE = "TripleDecompose"
STAGE_SQUARE_EXTRACT = "SquareExtract"
STAGE_DIFFERENCE_OF_SQUARES = "DifferenceOfSquares"
STAGE_TWIN_TRIPLE_DECOMPOSE = "TwinTripleDecompose"
STAGE_ASSEMBLE = "Assemble"
# The descent step's own stages.
STAGE_REARRANGE = "Rearrange"
STAGE_SUM_DIFFERENCE = "SumDifferenceForms"
STAGE_INNER_TRIPLES = "InnerTriples"

KIND_BIQUADRATIC_REDUCE = "E2->R1"
KIND_BIQUADRATIC_LIFT = "R1->E2"
KIND_SYMMETRIC_REDUCE = "E4->R1"
KIND_SYMMETRIC_LIFT = "R1->E4"
KIND_DESCENT = "R1->R1"

# The catalogue equations that maps() pairs with R1.
MAPPED_IDS = ("E2", "E4")


class TraceStep(Frozen):
    __slots__ = __match_args__ = ("stage", "inputs", "outputs")

    def to_dict(self) -> dict:
        return {"stage": self.stage, "inputs": dict(self.inputs), "outputs": dict(self.outputs)}


class ReductionTrace(Frozen):
    """Ordered record of the stages one map application or descent step went through.

    sign_changes holds the multiplier (+1 or -1) applied to each input
    coordinate during canonicalization, so the original input is always
    recoverable from source and sign_changes.
    """

    __slots__ = __match_args__ = ("kind", "source", "sign_changes", "steps", "final")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "source": list(self.source),
            "sign_changes": dict(self.sign_changes),
            "steps": [step.to_dict() for step in self.steps],
            "final": list(self.final.as_tuple()),
        }


def _canonicalize(point: QuarticSolution | ResolventSolution) -> tuple[dict, dict]:
    """The point's coordinates by name as absolute values, plus the applied signs."""
    named = point.named()
    signs = {name: (-1 if value < 0 else 1) for name, value in named.items()}
    return {name: abs(value) for name, value in named.items()}, signs


def replayed(kind: str, source: tuple[int, ...], signs: dict, steps: list, final) -> ReductionTrace:
    """The trace of one map application or descent step, as replay_trace
    has checked it; every trace is built here."""
    return replay_trace(ReductionTrace(kind, source, signs, tuple(steps), final))


def _exact_roots(name: str, values: dict[str, int], **squares: int) -> dict[str, int]:
    """The exact root of each named square, by the root's name; a square
    without one raises StageFailure(name, values)."""
    roots = {root: isqrt_exact(square) for root, square in squares.items()}
    if None in roots.values():
        raise StageFailure(name, values)
    return roots


def forward_reduce_biquadratic(x: int, y: int, z: int) -> ReductionTrace:
    """Map a non-trivial primitive solution of E2 to a solution of R1.

    Pipeline: (x^2, 2y^2, z) is a primitive Pythagorean triple, so it has
    generators (u, v); u*v = y^2 with gcd(u, v) = 1 forces u = s^2 and
    v = t^2; then x^2 = (s^2 - t^2)(s^2 + t^2) with coprime odd factors,
    each of which must itself be a square (alpha^2 and beta^2); the two
    triples (s, t, alpha) and (beta, t, s) decompose into generator pairs
    which assemble into the output quadruple.

    The genuine domain of this map is empty (E2 has no non-trivial
    primitive solutions), so on real inputs it always raises TrivialInput,
    NotASolution or NotPrimitive. The pipeline itself is exercised through
    _forward_stages.
    """
    solution = quartic_solution(equation_by_id("E2"), x, y, z)
    if solution.trivial:
        raise TrivialInput(f"({x}, {y}, {z}) is a trivial solution of E2")
    canonical, signs = _canonicalize(solution)
    x, y, z = canonical.values()
    if math.gcd(x, 2 * y) != 1:
        raise NotPrimitive(f"gcd({x}, 2*{y}) != 1")
    return _forward_stages(x, y, z, signs)


def _forward_stages(x: int, y: int, z: int, signs: dict[str, int] | None = None) -> ReductionTrace:
    """The E2 -> R1 stage pipeline without the non-triviality gate.

    Exists as a seam: the public map's genuine non-trivial domain is empty,
    but every stage below is forced through by trivial solutions such as
    (1, 0, 1) and must behave identically on them.
    """
    a, b = x * x, 2 * y * y
    triple = {"a": a, "b": b, "c": z}
    with stage(STAGE_TRIPLE_DECOMPOSE, triple):
        u, v = pythagorean_decompose(a, b, z)
    steps = [TraceStep(STAGE_TRIPLE_DECOMPOSE, triple, {"u": u, "v": v})]

    # u*v = y^2 with gcd(u, v) = 1, so each factor is a perfect square.
    factors = {"u": u, "v": v}
    roots = _exact_roots(STAGE_SQUARE_EXTRACT, factors, s=u, t=v)
    s, t = roots.values()
    steps.append(TraceStep(STAGE_SQUARE_EXTRACT, factors, roots))

    # x^2 = s^4 - t^4 = (s^2 + t^2)(s^2 - t^2); the factors are coprime
    # (both odd since t is even), so each is a square in its own right.
    total = s * s + t * t
    diff = s * s - t * t
    forms = {"sum": total, "difference": diff}
    if math.gcd(total, diff) != 1:
        raise StageFailure(STAGE_DIFFERENCE_OF_SQUARES, {**forms, "gcd": math.gcd(total, diff)})
    roots = _exact_roots(STAGE_DIFFERENCE_OF_SQUARES, forms, alpha=total, beta=diff)
    alpha, beta = roots.values()
    steps.append(TraceStep(STAGE_DIFFERENCE_OF_SQUARES, {"x": x, "s": s, "t": t}, roots))

    # alpha^2 = s^2 + t^2 and beta^2 = s^2 - t^2 are primitive triples
    # sharing the legs; their generator pairs are the output.
    legs = {"s": s, "t": t, "alpha": alpha, "beta": beta}
    with stage(STAGE_TWIN_TRIPLE_DECOMPOSE, legs):
        lam, gam = pythagorean_decompose(s, t, alpha)
        lam_p, gam_p = pythagorean_decompose(beta, t, s)
    generators = {"lam": lam, "gam": gam, "lam_p": lam_p, "gam_p": gam_p}
    steps.append(TraceStep(STAGE_TWIN_TRIPLE_DECOMPOSE, legs, generators))

    with stage(STAGE_ASSEMBLE, generators):
        result = resolvent_solution(R1, lam, gam, lam_p, gam_p)
    steps.append(TraceStep(STAGE_ASSEMBLE, dict(generators), result.named()))
    signs = signs or dict.fromkeys(QuarticSolution.coordinates, 1)
    return replayed(KIND_BIQUADRATIC_REDUCE, (x, y, z), signs, steps, result)


def backward_lift_biquadratic(x: int, y: int, xp: int, yp: int) -> ReductionTrace:
    """Map a solution of R1 to a solution of E2 (the converse direction).

    With T = x^2 - y^2 and S = 2xy the closed forms T^2 + S^2 = (x^2+y^2)^2
    and T^2 - S^2 = (xp^2 - yp^2)^2 make both square roots exact, and the
    assembled triple (psi*phi, |T*S|, T^4 + S^4) satisfies the biquadratic
    identically:

        (psi*phi)^4 + 4(T*S)^4 = (T^4 + S^4)^2.
    """
    canonical, signs = _canonicalize(resolvent_solution(R1, x, y, xp, yp))
    source = x, y, xp, yp = tuple(canonical.values())

    big_t = x * x - y * y
    big_s = 2 * x * y
    steps = [TraceStep(STAGE_DIFFERENCE_OF_SQUARES, canonical, {"T": big_t, "S": big_s})]

    sides = {"T": big_t, "S": big_s}
    total, diff = big_t * big_t + big_s * big_s, big_t * big_t - big_s * big_s
    roots = _exact_roots(STAGE_SQUARE_EXTRACT, sides, psi=total, phi=diff)
    psi, phi = roots.values()
    steps.append(TraceStep(STAGE_SQUARE_EXTRACT, sides, roots))

    assembled = {**roots, **sides}
    with stage(STAGE_ASSEMBLE, assembled):
        result = quartic_solution(
            equation_by_id("E2"), psi * phi, abs(big_t * big_s), big_t**4 + big_s**4
        )
    steps.append(TraceStep(STAGE_ASSEMBLE, assembled, result.named()))
    return replayed(KIND_BIQUADRATIC_LIFT, source, signs, steps, result)


def sextic_to_resolvent(x: int, y: int, z: int) -> ReductionTrace:
    """Map a primitive solution of E4 to a solution of R1.

    t = x^2 + y^2 and s = 2xy satisfy t^2 + s^2 = z^2 with gcd(t, s) = 1,
    so (t, s, z) decomposes into generators (u, v) and the quadruple
    (u, v, x, y) satisfies R1. Trivial solutions are in the domain and map
    to trivial resolvent solutions.
    """
    solution = quartic_solution(equation_by_id("E4"), x, y, z)
    if not solution.primitive:
        raise NotPrimitive(f"gcd({x}, {y}) != 1")
    canonical, signs = _canonicalize(solution)
    source = x, y, z = tuple(canonical.values())

    t = x * x + y * y
    s = 2 * x * y
    # A ParityError (t even) would need x, y both odd, which the equation
    # excludes: the left side is then 8 mod 16, never a square.
    with stage(STAGE_TRIPLE_DECOMPOSE, {"t": t, "s": s, "z": z}):
        u, v = pythagorean_decompose(t, s, z)
    steps = [TraceStep(
        STAGE_TRIPLE_DECOMPOSE,
        {"t": t, "s": s, "z": z, "x": x, "y": y},
        {"u": u, "v": v},
    )]

    parts = {"u": u, "v": v, "x": x, "y": y}
    with stage(STAGE_ASSEMBLE, parts):
        result = resolvent_solution(R1, u, v, x, y)
    steps.append(TraceStep(STAGE_ASSEMBLE, parts, result.named()))
    return replayed(KIND_SYMMETRIC_REDUCE, source, signs, steps, result)


def resolvent_to_sextic(x: int, y: int, xp: int, yp: int) -> ReductionTrace:
    """Map a solution of R1 to a solution of E4 (the converse direction).

    The discriminant-style quantity xp^4 + 6 xp^2 yp^2 + yp^4 equals
    (xp^2 + yp^2)^2 + 4 (xp*yp)^2 which, on a solution of R1, collapses to
    (x^2 + y^2)^2; its root D completes (xp, yp) to a solution of E4.
    """
    canonical, signs = _canonicalize(resolvent_solution(R1, x, y, xp, yp))
    source = x, y, xp, yp = tuple(canonical.values())

    d_squared = equation_by_id("E4").lhs(xp, yp)
    completing = {"xp": xp, "yp": yp, "value": d_squared}
    root = _exact_roots(STAGE_SQUARE_EXTRACT, completing, D=d_squared)
    steps = [TraceStep(STAGE_SQUARE_EXTRACT, completing, root)]

    completed = {"xp": xp, "yp": yp, **root}
    with stage(STAGE_ASSEMBLE, completed):
        result = quartic_solution(equation_by_id("E4"), xp, yp, root["D"])
    steps.append(TraceStep(STAGE_ASSEMBLE, completed, result.named()))
    return replayed(KIND_SYMMETRIC_LIFT, source, signs, steps, result)


def maps(eq_id: str) -> tuple[Callable, Callable]:
    """The (reduce, lift) pair of maps between E2 or E4 and R1.

    The pair is looked up on each call, so a map replaced on this module
    after import (a tracer's wrapper, a test's stub) is the one returned.
    """
    if eq_id == "E2":
        return forward_reduce_biquadratic, backward_lift_biquadratic
    if eq_id == "E4":
        return sextic_to_resolvent, resolvent_to_sextic
    raise KeyError(f"no reduction maps for equation id {eq_id!r}")


def replay_trace(trace: ReductionTrace) -> ReductionTrace:
    """Re-derive a trace from its recorded inputs and return it.

    Raises InternalInvariantBroken unless the steps are their kind's stages
    in order, source is non-negative, sign_changes maps each coordinate of
    the kind's input record, in order, to 1 or -1, each step's outputs
    follow from its inputs under the stage's defining identity (a step
    missing a name its check reads, or holding a value of the wrong type,
    does not), and final holds the last step's outputs. Every map and
    descent step returns its trace through this check, so a caller needs
    it only for a trace changed after it was built.
    """
    point, sequence = _REPLAY_SEQUENCES.get(trace.kind, (None, ()))
    stages = [step.stage for step in trace.steps]
    expected = [name for name, _ in sequence]
    if not sequence or stages != expected:
        raise InternalInvariantBroken(f"stages {stages} of {trace.kind} are not {expected}")
    source, signs = trace.source, trace.sign_changes
    if any(value < 0 for value in source) or tuple(signs) != point.coordinates or set(signs.values()) - {1, -1}:
        raise InternalInvariantBroken(f"source {source} and sign changes {signs} of {trace.kind} are not canonical")
    for step, (_, check) in zip(trace.steps, sequence):
        try:
            replays = check(step.inputs, step.outputs)
        except (KeyError, TypeError):  # a missing name or a non-integer value
            replays = False
        if not replays:
            raise InternalInvariantBroken(
                f"stage {step.stage} of {trace.kind} does not replay: "
                f"{step.inputs} -> {step.outputs}"
            )
    final, last = trace.final, trace.steps[-1].outputs
    if final.named() != last:
        raise InternalInvariantBroken(
            f"final {final.as_tuple()} of {trace.kind} is not its last step's outputs {last}"
        )
    return trace


def _generated(u: int, v: int, a: int, b: int, c: int) -> bool:
    """Whether (u, v) generates the triple: a = u^2 - v^2, b = 2uv, c = u^2 + v^2."""
    return a == u * u - v * v and b == 2 * u * v and c == u * u + v * v


def _point(values: dict) -> tuple[int, ...]:
    """A resolvent point read from a step's dict by its coordinate names."""
    return tuple(values[name] for name in ResolventSolution.coordinates)


def _assembles_r1(*names: str) -> Callable[[dict, dict], bool]:
    """The check of an Assemble step into R1: the output point is the
    named inputs, in order, and satisfies R1."""
    def check(i: dict, o: dict) -> bool:
        quad = _point(o)
        return quad == tuple(i[name] for name in names) and check_resolvent(R1, *quad)

    return check


def _check_forward_triple(i: dict, o: dict) -> bool:
    return _generated(o["u"], o["v"], i["a"], i["b"], i["c"])


def _check_symmetric_triple(i: dict, o: dict) -> bool:
    x, y = i["x"], i["y"]
    return _generated(o["u"], o["v"], i["t"], i["s"], i["z"]) and i["t"] == x * x + y * y and i["s"] == 2 * x * y


def _check_forward_square_extract(i: dict, o: dict) -> bool:
    return i["u"] == o["s"] ** 2 and i["v"] == o["t"] ** 2


def _check_forward_difference(i: dict, o: dict) -> bool:
    s, t, x = i["s"], i["t"], i["x"]
    alpha, beta = o["alpha"], o["beta"]
    return (
        alpha * alpha == s * s + t * t
        and beta * beta == s * s - t * t
        and x * x == alpha * alpha * beta * beta
    )


def _check_twin_decompose(i: dict, o: dict) -> bool:
    return (
        _generated(o["lam"], o["gam"], i["s"], i["t"], i["alpha"])
        and _generated(o["lam_p"], o["gam_p"], i["beta"], i["t"], i["s"])
    )


def _check_lift_ts(i: dict, o: dict) -> bool:
    x, y, xp, yp = _point(i)
    return (
        o["T"] == x * x - y * y
        and o["S"] == 2 * x * y
        and o["T"] == xp * xp + yp * yp
        and o["S"] == 2 * xp * yp
    )


def _check_lift_square_extract(i: dict, o: dict) -> bool:
    big_t, big_s = i["T"], i["S"]
    return (
        o["psi"] ** 2 == big_t * big_t + big_s * big_s
        and o["phi"] ** 2 == big_t * big_t - big_s * big_s
    )


def _check_lift_assemble(i: dict, o: dict) -> bool:
    x, y, z = o["x"], o["y"], o["z"]
    return (
        x == i["psi"] * i["phi"]
        and y == abs(i["T"] * i["S"])
        and z == i["T"] ** 4 + i["S"] ** 4
        and equation_by_id("E2").is_solution(x, y, z)
    )


def _check_symmetric_root(i: dict, o: dict) -> bool:
    value = equation_by_id("E4").lhs(i["xp"], i["yp"])
    return i["value"] == value and o["D"] ** 2 == value


def _check_symmetric_final(i: dict, o: dict) -> bool:
    x, y, z = o["x"], o["y"], o["z"]
    return (x, y, z) == (i["xp"], i["yp"], i["D"]) and equation_by_id("E4").is_solution(x, y, z)


def _check_rearrange(i: dict, o: dict) -> bool:
    p, q, r, s = o["p"], o["q"], o["r"], o["s"]
    d_value, n_value = R1.split_forms(q, r)
    return (
        (p * q, r * s, p * r, q * s) == _point(i)
        and all(math.gcd(a, b) == 1 for a, b in combinations((p, q, r, s), 2))
        and p * p * d_value == s * s * n_value
    )


def _check_sum_difference(i: dict, o: dict) -> bool:
    p, q, r, s = i["p"], i["q"], i["r"], i["s"]
    return o["sum"] == p * p + s * s == q * q and o["difference"] == p * p - s * s == r * r


def _check_inner_triples(i: dict, o: dict) -> bool:
    p, q, r, s = i["p"], i["q"], i["r"], i["s"]
    return _generated(o["s0"], o["t0"], p, s, q) and _generated(o["s0p"], o["t0p"], r, s, p)


# Kind -> (the input record whose coordinates key sign_changes, the stages
# with their replay checks in order).
_REPLAY_SEQUENCES = {
    KIND_BIQUADRATIC_REDUCE: (QuarticSolution, (
        (STAGE_TRIPLE_DECOMPOSE, _check_forward_triple),
        (STAGE_SQUARE_EXTRACT, _check_forward_square_extract),
        (STAGE_DIFFERENCE_OF_SQUARES, _check_forward_difference),
        (STAGE_TWIN_TRIPLE_DECOMPOSE, _check_twin_decompose),
        (STAGE_ASSEMBLE, _assembles_r1("lam", "gam", "lam_p", "gam_p")),
    )),
    KIND_BIQUADRATIC_LIFT: (ResolventSolution, (
        (STAGE_DIFFERENCE_OF_SQUARES, _check_lift_ts),
        (STAGE_SQUARE_EXTRACT, _check_lift_square_extract),
        (STAGE_ASSEMBLE, _check_lift_assemble),
    )),
    KIND_SYMMETRIC_REDUCE: (QuarticSolution, (
        (STAGE_TRIPLE_DECOMPOSE, _check_symmetric_triple),
        (STAGE_ASSEMBLE, _assembles_r1("u", "v", "x", "y")),
    )),
    KIND_SYMMETRIC_LIFT: (ResolventSolution, (
        (STAGE_SQUARE_EXTRACT, _check_symmetric_root),
        (STAGE_ASSEMBLE, _check_symmetric_final),
    )),
    KIND_DESCENT: (ResolventSolution, (
        (STAGE_REARRANGE, _check_rearrange),
        (STAGE_SUM_DIFFERENCE, _check_sum_difference),
        (STAGE_INNER_TRIPLES, _check_inner_triples),
        (STAGE_ASSEMBLE, _assembles_r1("s0", "t0", "s0p", "t0p")),
    )),
}
