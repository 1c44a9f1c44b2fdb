"""Constructive maps between catalog quartics and the first resolvent.

Two pairs of maps are implemented, each with a full audit trace:

* E2 (x^4 + 4y^4 = z^2)            <->  R1, via generator extraction from
  the primitive triple (x^2, 2y^2, z) and two further triple splits;
* E4 (x^4 + 6x^2y^2 + y^4 = z^2)   <->  R1, via the substitution
  t = x^2 + y^2, s = 2xy and one triple split.

Every step a map takes is recorded as (stage, inputs, outputs) so the
whole derivation replays from the trace alone. On a validated input each
stage is forced to succeed; a failure is raised as StageFailure with the
witnessing values, since on a genuine solution it would contradict the
theorems this toolkit audits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    NotAResolventSolution,
    NotASolution,
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

KIND_BIQUADRATIC_REDUCE = "E2->R1"
KIND_BIQUADRATIC_LIFT = "R1->E2"
KIND_SYMMETRIC_REDUCE = "E4->R1"
KIND_SYMMETRIC_LIFT = "R1->E4"


@dataclass(frozen=True)
class TraceStep:
    stage: str
    inputs: dict[str, int]
    outputs: dict[str, int]

    def to_dict(self) -> dict:
        return {"stage": self.stage, "inputs": dict(self.inputs), "outputs": dict(self.outputs)}


@dataclass
class ReductionTrace:
    """Ordered record of the stages one map application went through.

    sign_changes holds the multiplier (+1 or -1) applied to each input
    coordinate during canonicalization, so the original input is always
    recoverable from source and sign_changes.
    """

    kind: str
    source: tuple[int, ...]
    sign_changes: dict[str, int]
    steps: list[TraceStep] = field(default_factory=list)
    final: QuarticSolution | ResolventSolution | None = None

    def add(self, stage: str, inputs: dict[str, int], outputs: dict[str, int]) -> None:
        self.steps.append(TraceStep(stage, dict(inputs), dict(outputs)))

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "source": list(self.source),
            "sign_changes": dict(self.sign_changes),
            "steps": [step.to_dict() for step in self.steps],
            "final": None if self.final is None else list(self.final.as_tuple()),
        }


def _canonicalize(values: dict[str, int]) -> tuple[dict[str, int], dict[str, int]]:
    """Componentwise absolute values plus the applied sign multipliers."""
    signs = {name: (-1 if value < 0 else 1) for name, value in values.items()}
    canon = {name: abs(value) for name, value in values.items()}
    return canon, signs


def forward_reduce_biquadratic(x: int, y: int, z: int) -> tuple[ResolventSolution, ReductionTrace]:
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
    eq = equation_by_id("E2")
    if not eq.is_solution(x, y, z):
        raise NotASolution(f"({x}, {y}, {z}) does not satisfy {eq.form()}")
    if x * y == 0:
        raise TrivialInput(f"({x}, {y}, {z}) is a trivial solution of E2")
    canon, signs = _canonicalize({"x": x, "y": y, "z": z})
    x, y, z = canon["x"], canon["y"], canon["z"]
    if math.gcd(x, 2 * y) != 1:
        raise NotPrimitive(f"gcd({x}, 2*{y}) != 1")
    return _forward_stages(x, y, z, signs)


def _forward_stages(
    x: int, y: int, z: int, signs: dict[str, int] | None = None
) -> tuple[ResolventSolution, ReductionTrace]:
    """The E2 -> R1 stage pipeline without the non-triviality gate.

    Exists as a seam: the public map's genuine non-trivial domain is empty,
    but every stage below is forced through by trivial solutions such as
    (1, 0, 1) and must behave identically on them.
    """
    trace = ReductionTrace(
        kind=KIND_BIQUADRATIC_REDUCE,
        source=(x, y, z),
        sign_changes=signs or {"x": 1, "y": 1, "z": 1},
    )

    a, b = x * x, 2 * y * y
    triple = {"a": a, "b": b, "c": z}
    with stage(STAGE_TRIPLE_DECOMPOSE, triple):
        u, v = pythagorean_decompose(a, b, z)
    trace.add(STAGE_TRIPLE_DECOMPOSE, triple, {"u": u, "v": v})

    # u*v = y^2 with gcd(u, v) = 1, so each factor is a perfect square.
    s = isqrt_exact(u)
    t = isqrt_exact(v)
    if s is None or t is None:
        raise StageFailure(STAGE_SQUARE_EXTRACT, {"u": u, "v": v})
    trace.add(STAGE_SQUARE_EXTRACT, {"u": u, "v": v}, {"s": s, "t": t})

    # x^2 = s^4 - t^4 = (s^2 + t^2)(s^2 - t^2); the factors are coprime
    # (both odd since t is even), so each is a square in its own right.
    total = s * s + t * t
    diff = s * s - t * t
    if math.gcd(total, diff) != 1:
        raise StageFailure(
            STAGE_DIFFERENCE_OF_SQUARES,
            {"sum": total, "difference": diff, "gcd": math.gcd(total, diff)},
        )
    alpha = isqrt_exact(total)
    beta = isqrt_exact(diff)
    if alpha is None or beta is None:
        raise StageFailure(STAGE_DIFFERENCE_OF_SQUARES, {"sum": total, "difference": diff})
    trace.add(
        STAGE_DIFFERENCE_OF_SQUARES,
        {"x": x, "s": s, "t": t},
        {"alpha": alpha, "beta": beta},
    )

    # alpha^2 = s^2 + t^2 and beta^2 = s^2 - t^2 are primitive triples
    # sharing the legs; their generator pairs are the output.
    legs = {"s": s, "t": t, "alpha": alpha, "beta": beta}
    with stage(STAGE_TWIN_TRIPLE_DECOMPOSE, legs):
        lam, gam = pythagorean_decompose(s, t, alpha)
        lam_p, gam_p = pythagorean_decompose(beta, t, s)
    generators = {"lam": lam, "gam": gam, "lam_p": lam_p, "gam_p": gam_p}
    trace.add(STAGE_TWIN_TRIPLE_DECOMPOSE, legs, generators)

    with stage(STAGE_ASSEMBLE, generators):
        result = resolvent_solution(R1, lam, gam, lam_p, gam_p)
    trace.add(
        STAGE_ASSEMBLE,
        generators,
        {"x": result.x, "y": result.y, "xp": result.xp, "yp": result.yp},
    )
    trace.final = result
    return result, trace


def backward_lift_biquadratic(
    x: int, y: int, xp: int, yp: int
) -> tuple[QuarticSolution, ReductionTrace]:
    """Map a solution of R1 to a solution of E2 (the converse direction).

    With T = x^2 - y^2 and S = 2xy the closed forms T^2 + S^2 = (x^2+y^2)^2
    and T^2 - S^2 = (xp^2 - yp^2)^2 make both square roots exact, and the
    assembled triple (psi*phi, |T*S|, T^4 + S^4) satisfies the biquadratic
    identically:

        (psi*phi)^4 + 4(T*S)^4 = (T^4 + S^4)^2.
    """
    if not check_resolvent(R1, x, y, xp, yp):
        raise NotAResolventSolution(f"({x}, {y}, {xp}, {yp}) does not satisfy R1")
    canon, signs = _canonicalize({"x": x, "y": y, "xp": xp, "yp": yp})
    x, y, xp, yp = canon["x"], canon["y"], canon["xp"], canon["yp"]
    trace = ReductionTrace(
        kind=KIND_BIQUADRATIC_LIFT, source=(x, y, xp, yp), sign_changes=signs
    )

    big_t = x * x - y * y
    big_s = 2 * x * y
    trace.add(
        STAGE_DIFFERENCE_OF_SQUARES,
        {"x": x, "y": y, "xp": xp, "yp": yp},
        {"T": big_t, "S": big_s},
    )

    psi = isqrt_exact(big_t * big_t + big_s * big_s)
    phi = isqrt_exact(big_t * big_t - big_s * big_s)
    if psi is None or phi is None:
        raise StageFailure(STAGE_SQUARE_EXTRACT, {"T": big_t, "S": big_s})
    trace.add(STAGE_SQUARE_EXTRACT, {"T": big_t, "S": big_s}, {"psi": psi, "phi": phi})

    out_x = psi * phi
    out_y = abs(big_t * big_s)
    out_z = big_t**4 + big_s**4
    roots = {"psi": psi, "phi": phi, "T": big_t, "S": big_s}
    with stage(STAGE_ASSEMBLE, roots):
        result = quartic_solution(equation_by_id("E2"), out_x, out_y, out_z)
    trace.add(STAGE_ASSEMBLE, roots, {"x": out_x, "y": out_y, "z": out_z})
    trace.final = result
    return result, trace


def sextic_to_resolvent(x: int, y: int, z: int) -> tuple[ResolventSolution, ReductionTrace]:
    """Map a primitive solution of E4 to a solution of R1.

    t = x^2 + y^2 and s = 2xy satisfy t^2 + s^2 = z^2 with gcd(t, s) = 1,
    so (t, s, z) decomposes into generators (u, v) and the quadruple
    (u, v, x, y) satisfies R1. Trivial solutions are in the domain and map
    to trivial resolvent solutions.
    """
    eq = equation_by_id("E4")
    if not eq.is_solution(x, y, z):
        raise NotASolution(f"({x}, {y}, {z}) does not satisfy {eq.form()}")
    if math.gcd(x, y) != 1:
        raise NotPrimitive(f"gcd({x}, {y}) != 1")
    canon, signs = _canonicalize({"x": x, "y": y, "z": z})
    x, y, z = canon["x"], canon["y"], canon["z"]
    trace = ReductionTrace(kind=KIND_SYMMETRIC_REDUCE, source=(x, y, z), sign_changes=signs)

    t = x * x + y * y
    s = 2 * x * y
    # A ParityError (t even) would need x, y both odd, which the equation
    # excludes: the left side is then 8 mod 16, never a square.
    with stage(STAGE_TRIPLE_DECOMPOSE, {"t": t, "s": s, "z": z}):
        u, v = pythagorean_decompose(t, s, z)
    trace.add(
        STAGE_TRIPLE_DECOMPOSE,
        {"t": t, "s": s, "z": z, "x": x, "y": y},
        {"u": u, "v": v},
    )

    parts = {"u": u, "v": v, "x": x, "y": y}
    with stage(STAGE_ASSEMBLE, parts):
        result = resolvent_solution(R1, u, v, x, y)
    trace.add(
        STAGE_ASSEMBLE,
        parts,
        {"x": result.x, "y": result.y, "xp": result.xp, "yp": result.yp},
    )
    trace.final = result
    return result, trace


def resolvent_to_sextic(
    x: int, y: int, xp: int, yp: int
) -> tuple[QuarticSolution, ReductionTrace]:
    """Map a solution of R1 to a solution of E4 (the converse direction).

    The discriminant-style quantity xp^4 + 6 xp^2 yp^2 + yp^4 equals
    (xp^2 + yp^2)^2 + 4 (xp*yp)^2 which, on a solution of R1, collapses to
    (x^2 + y^2)^2; its root D completes (xp, yp) to a solution of E4.
    """
    if not check_resolvent(R1, x, y, xp, yp):
        raise NotAResolventSolution(f"({x}, {y}, {xp}, {yp}) does not satisfy R1")
    canon, signs = _canonicalize({"x": x, "y": y, "xp": xp, "yp": yp})
    x, y, xp, yp = canon["x"], canon["y"], canon["xp"], canon["yp"]
    trace = ReductionTrace(kind=KIND_SYMMETRIC_LIFT, source=(x, y, xp, yp), sign_changes=signs)

    d_squared = xp**4 + 6 * xp * xp * yp * yp + yp**4
    d = isqrt_exact(d_squared)
    if d is None:
        raise StageFailure(STAGE_SQUARE_EXTRACT, {"xp": xp, "yp": yp, "value": d_squared})
    trace.add(
        STAGE_SQUARE_EXTRACT,
        {"xp": xp, "yp": yp, "value": d_squared},
        {"D": d},
    )

    completed = {"xp": xp, "yp": yp, "D": d}
    with stage(STAGE_ASSEMBLE, completed):
        result = quartic_solution(equation_by_id("E4"), xp, yp, d)
    trace.add(STAGE_ASSEMBLE, completed, {"x": xp, "y": yp, "z": d})
    trace.final = result
    return result, trace


def replay_trace(trace: ReductionTrace) -> None:
    """Re-derive every step of a trace from its recorded inputs.

    Raises InternalInvariantBroken on the first step whose outputs do not
    follow from its inputs under the stage's defining identity. A trace
    that replays cleanly is a complete, checkable derivation.
    """
    for step in trace.steps:
        checker = _REPLAY_CHECKS.get((trace.kind, step.stage))
        if checker is None:
            raise InternalInvariantBroken(
                f"no replay rule for stage {step.stage} in {trace.kind}"
            )
        if not checker(step.inputs, step.outputs):
            raise InternalInvariantBroken(
                f"stage {step.stage} of {trace.kind} does not replay: "
                f"{step.inputs} -> {step.outputs}"
            )


def _check_triple_decompose(i: dict, o: dict) -> bool:
    a, b, c = (i["a"], i["b"], i["c"]) if "a" in i else (i["t"], i["s"], i["z"])
    u, v = o["u"], o["v"]
    ok = a == u * u - v * v and b == 2 * u * v and c == u * u + v * v
    if "x" in i and "y" in i:
        ok = ok and a == i["x"] ** 2 + i["y"] ** 2 and b == 2 * i["x"] * i["y"]
    return ok


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
    s, t = i["s"], i["t"]
    lam, gam, lam_p, gam_p = o["lam"], o["gam"], o["lam_p"], o["gam_p"]
    return (
        s == lam * lam - gam * gam
        and t == 2 * lam * gam
        and s == lam_p * lam_p + gam_p * gam_p
        and t == 2 * lam_p * gam_p
    )


def _check_forward_assemble(i: dict, o: dict) -> bool:
    quad = (o["x"], o["y"], o["xp"], o["yp"])
    return quad == (i["lam"], i["gam"], i["lam_p"], i["gam_p"]) and check_resolvent(R1, *quad)


def _check_lift_ts(i: dict, o: dict) -> bool:
    x, y, xp, yp = i["x"], i["y"], i["xp"], i["yp"]
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
        and x**4 + 4 * y**4 == z * z
    )


def _check_symmetric_assemble(i: dict, o: dict) -> bool:
    quad = (o["x"], o["y"], o["xp"], o["yp"])
    return quad == (i["u"], i["v"], i["x"], i["y"]) and check_resolvent(R1, *quad)


def _check_symmetric_root(i: dict, o: dict) -> bool:
    xp, yp = i["xp"], i["yp"]
    value = xp**4 + 6 * xp * xp * yp * yp + yp**4
    return i["value"] == value and o["D"] ** 2 == value


def _check_symmetric_final(i: dict, o: dict) -> bool:
    x, y, z = o["x"], o["y"], o["z"]
    return (x, y, z) == (i["xp"], i["yp"], i["D"]) and x**4 + 6 * x * x * y * y + y**4 == z * z


_REPLAY_CHECKS = {
    (KIND_BIQUADRATIC_REDUCE, STAGE_TRIPLE_DECOMPOSE): _check_triple_decompose,
    (KIND_BIQUADRATIC_REDUCE, STAGE_SQUARE_EXTRACT): _check_forward_square_extract,
    (KIND_BIQUADRATIC_REDUCE, STAGE_DIFFERENCE_OF_SQUARES): _check_forward_difference,
    (KIND_BIQUADRATIC_REDUCE, STAGE_TWIN_TRIPLE_DECOMPOSE): _check_twin_decompose,
    (KIND_BIQUADRATIC_REDUCE, STAGE_ASSEMBLE): _check_forward_assemble,
    (KIND_BIQUADRATIC_LIFT, STAGE_DIFFERENCE_OF_SQUARES): _check_lift_ts,
    (KIND_BIQUADRATIC_LIFT, STAGE_SQUARE_EXTRACT): _check_lift_square_extract,
    (KIND_BIQUADRATIC_LIFT, STAGE_ASSEMBLE): _check_lift_assemble,
    (KIND_SYMMETRIC_REDUCE, STAGE_TRIPLE_DECOMPOSE): _check_triple_decompose,
    (KIND_SYMMETRIC_REDUCE, STAGE_ASSEMBLE): _check_symmetric_assemble,
    (KIND_SYMMETRIC_LIFT, STAGE_SQUARE_EXTRACT): _check_symmetric_root,
    (KIND_SYMMETRIC_LIFT, STAGE_ASSEMBLE): _check_symmetric_final,
}
