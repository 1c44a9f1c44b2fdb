"""Infinite descent on the first resolvent, with residue obstructions.

The descent step takes a hypothetical non-trivial solution of R1 apart
with the four-gcd split, forces the sum and difference forms

    q^2 = p^2 + s^2,    r^2 = p^2 - s^2,

decomposes both as primitive triples sharing the even leg s, and emits a
new solution whose product valuation is strictly smaller. Since no
non-trivial solution exists, the public entry points reject every real
input before the pipeline starts; each deduction stage is therefore also
exposed on its own so the machinery stays testable on synthetic values.

residue_obstruction reconstructs the congruence half of the argument: it
counts the residue classes compatible with the two defining equations and
the coprimality side conditions and reports whether a given modulus is
forced to divide the product x*y. It works one prime-power component at
a time, one orbit of products under the unit squares at a time, and
joins the components by CRT, so every accepted modulus takes well under
a second.
"""

from __future__ import annotations

import math

from ._value import Frozen, Record, set_field
from .core_arith import coprime_split, factorize, nu, pythagorean_decompose
from .equations import (
    R1,
    ResolventSolution,
    ResolventSystem,
    check_resolvent,
    resolvent_solution,
)
from .errors import (
    BoundExceeded,
    InternalInvariantBroken,
    NotASolution,
    StageFailure,
    TrivialInput,
    UnsupportedResolvent,
    stage,
)

MODULUS_LIMIT = 10**4

STAGE_SPLIT = "Split"
STAGE_REARRANGE = "Rearrange"
STAGE_SUM_DIFFERENCE = "SumDifferenceForms"
STAGE_INNER_TRIPLES = "InnerTriples"
STAGE_ASSEMBLE = "Assemble"

TERMINAL_TRIVIAL_INPUT = "TrivialInput"
TERMINAL_NON_SOLUTION = "NonSolutionInput"
TERMINAL_TRIVIAL_REACHED = "TrivialReached"
TERMINAL_STAGE_FAILURE = "StageFailure"


class ObstructionReport(Frozen):
    """Outcome of a residue enumeration for one system and modulus.

    forced is true when every surviving residue class has x*y divisible by
    the modulus. surviving_products lists the distinct values of x*y mod
    modulus over all survivors. analysis_modulus records the modulus the
    congruences were actually checked at: odd moduli are checked as given,
    even ones at 2-adic depth 3 (factor 8), because squares of odd
    integers are constant mod 8 and plain mod-2 residues cannot see that.
    """

    __slots__ = __match_args__ = (
        "system_id", "modulus", "analysis_modulus", "forced",
        "surviving_products", "survivor_classes",
    )

    def __init__(
        self,
        system_id: str,
        modulus: int,
        analysis_modulus: int,
        forced: bool,
        surviving_products: tuple[int, ...],
        survivor_classes: int,
    ) -> None:
        set_field(self, "system_id", system_id)
        set_field(self, "modulus", modulus)
        set_field(self, "analysis_modulus", analysis_modulus)
        set_field(self, "forced", forced)
        set_field(self, "surviving_products", surviving_products)
        set_field(self, "survivor_classes", survivor_classes)

    def to_dict(self) -> dict:
        return {
            "system": self.system_id,
            "modulus": self.modulus,
            "analysis_modulus": self.analysis_modulus,
            "forced": self.forced,
            "surviving_products": list(self.surviving_products),
            "survivor_classes": self.survivor_classes,
        }


def _analysis_modulus(modulus: int) -> int:
    two_adic = (modulus & -modulus).bit_length() - 1
    if two_adic == 0:
        return modulus
    return modulus << max(0, 3 - two_adic)


def _component_survivors(
    system: ResolventSystem, prime: int, depth: int, reported: int
) -> tuple[int, set[int]]:
    """Survivors of the system modulo one prime power P = prime**depth.

    Returns the number of surviving quadruple classes mod P and the set of
    their products x*y reduced mod `reported` (a divisor of P).

    Survivors with product pi number sum_v L(v) R(v), where L(v) and R(v)
    count the pairs with product pi on which m x^2 + n y^2, respectively
    k x^2 + l y^2, equals v. Scaling a whole quadruple by a unit t keeps
    it a survivor and sends pi to t^2 pi, so that number depends only on
    pi's orbit under the unit squares and is computed once per orbit. A
    pair that prime does not divide both members of has a unit member u:
    the pairs with product pi are (u, pi/u) and, when prime | pi,
    (pi/u, u). Their values depend on u only through u^2, and every unit
    square has the same number of roots u, so L and R are tallied over
    the unit squares alone.
    """
    modulus = prime**depth
    squares = {u * u % modulus for u in range(1, modulus) if u % prime}
    roots = (modulus - modulus // prime) // len(squares)  # per unit square
    inverse_pairs = [(square, pow(square, -1, modulus)) for square in squares]
    m, n, k, l = system.m, system.n, system.k, system.l

    seen = bytearray(modulus)
    classes = 0
    products: set[int] = set()
    for pi in range(modulus):
        if seen[pi]:
            continue
        orbit = {pi * square % modulus for square in squares}
        for member in orbit:
            seen[member] = 1
        # (x^2, y^2) over the pairs with product pi, one per unit square.
        pi_squared = pi * pi % modulus
        pairs = [(square, pi_squared * inverse % modulus) for square, inverse in inverse_pairs]
        if pi % prime == 0:
            pairs += [(y_square, x_square) for x_square, y_square in pairs]
        left: dict[int, int] = {}
        right: dict[int, int] = {}
        for x_square, y_square in pairs:
            value = (m * x_square + n * y_square) % modulus
            left[value] = left.get(value, 0) + 1
            value = (k * x_square + l * y_square) % modulus
            right[value] = right.get(value, 0) + 1
        count = roots * roots * sum(total * right.get(value, 0) for value, total in left.items())
        if count:
            classes += count * len(orbit)
            products.update(member % reported for member in orbit)
    return classes, products


def residue_obstruction(system: ResolventSystem, modulus: int) -> ObstructionReport:
    """Count the residue classes of the system modulo the given modulus.

    A quadruple class survives when it satisfies the quadratic congruence
    and the product congruence and no prime divisor of the modulus divides
    both members of either pair. The report says whether modulus | x*y
    holds across every survivor.

    The conditions split over the prime-power components of the analysis
    modulus (the 2-part at depth at least 3), so survivors are the CRT
    product of the component survivors: their counts multiply, and the
    surviving products are the CRT image of the component product sets.
    """
    if modulus < 2 or modulus > MODULUS_LIMIT:
        raise BoundExceeded(f"modulus {modulus} outside [2, {MODULUS_LIMIT}]")
    survivor_classes = 1
    surviving = {0}
    combined = 1
    for prime, exponent in factorize(modulus):
        depth = max(exponent, 3) if prime == 2 else exponent
        reported = prime**exponent
        classes, products = _component_survivors(system, prime, depth, reported)
        survivor_classes *= classes
        # Lift each combined residue mod `combined` and each component
        # product mod `reported` to their common residue mod the product.
        step = combined * pow(combined, -1, reported)
        surviving = {
            (base + (product - base) * step) % (combined * reported)
            for base in surviving
            for product in products
        }
        combined *= reported
    return ObstructionReport(
        system_id=system.id,
        modulus=modulus,
        analysis_modulus=_analysis_modulus(modulus),
        forced=all(value == 0 for value in surviving),
        surviving_products=tuple(sorted(surviving)),
        survivor_classes=survivor_classes,
    )


def nu_lower_bound(system: ResolventSystem) -> int:
    """Lower bound on nu(x*y) for a hypothetical non-trivial solution.

    Counts the moduli in {2, 3} whose obstruction is forced. Only R1 is
    supported; the companion system is out of scope for descent.
    """
    if system.id != R1.id:
        raise UnsupportedResolvent(f"nu_lower_bound only supports R1, got {system.id}")
    return sum(1 for modulus in (2, 3) if residue_obstruction(system, modulus).forced)


class DescentStep(Frozen):
    """One completed descent step with its full bookkeeping."""

    __slots__ = __match_args__ = (
        "input", "split", "inner_solutions", "output", "nu_in", "nu_out",
    )

    def __init__(
        self,
        input: ResolventSolution,
        split: tuple[int, int, int, int],
        inner_solutions: tuple[tuple[int, int], tuple[int, int]],
        output: ResolventSolution,
        nu_in: int,
        nu_out: int,
    ) -> None:
        set_field(self, "input", input)
        set_field(self, "split", split)
        set_field(self, "inner_solutions", inner_solutions)
        set_field(self, "output", output)
        set_field(self, "nu_in", nu_in)
        set_field(self, "nu_out", nu_out)

    def validate(self) -> None:
        """Check the two step invariants: strict descent and output validity."""
        if self.nu_out >= self.nu_in:
            raise InternalInvariantBroken(
                f"descent did not shrink: nu_out={self.nu_out} >= nu_in={self.nu_in}"
            )
        if not check_resolvent(
            R1, self.output.x, self.output.y, self.output.xp, self.output.yp
        ):
            raise InternalInvariantBroken(
                f"descent output {self.output.as_tuple()} does not satisfy R1"
            )

    def to_dict(self) -> dict:
        return {
            "stage": "DescentStep",
            "inputs": dict(
                zip(("x", "y", "xp", "yp"), self.input.as_tuple())
            ),
            "split": dict(zip(("p", "q", "r", "s"), self.split)),
            "outputs": dict(zip(("x", "y", "xp", "yp"), self.output.as_tuple())),
            "nu_in": self.nu_in,
            "nu_out": self.nu_out,
        }


class DescentTerminal(Frozen):
    __slots__ = __match_args__ = ("kind", "stage", "values")

    def __init__(self, kind: str, stage: str | None = None, values: dict | None = None) -> None:
        set_field(self, "kind", kind)
        set_field(self, "stage", stage)
        set_field(self, "values", values)

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.stage is not None:
            out["stage"] = self.stage
        if self.values is not None:
            out["values"] = dict(self.values)
        return out


class DescentTrace(Record):
    __match_args__ = ("source", "steps", "terminal")

    def __init__(
        self,
        source: tuple[int, int, int, int],
        steps: list[DescentStep] | None = None,
        terminal: DescentTerminal | None = None,
    ) -> None:
        self.source = source
        self.steps = [] if steps is None else steps
        self.terminal = terminal

    def to_dict(self) -> dict:
        return {
            "source": list(self.source),
            "steps": [step.to_dict() for step in self.steps],
            "terminal": None if self.terminal is None else self.terminal.to_dict(),
        }


def split_stage(x: int, y: int, xp: int, yp: int) -> tuple[int, int, int, int]:
    """Stages 1 and 2: four-gcd split plus the rearranged identity.

    Returns (p, q, r, s) with x = p*q, y = r*s, xp = p*r, yp = q*s and
    checks the rearrangement (p^2 - s^2) q^2 = (p^2 + s^2) r^2, which is
    equivalent to the quadratic equality of R1 on the rebuilt quadruple.
    """
    p, q, r, s = coprime_split(x, y, xp, yp)
    if (p * p - s * s) * q * q != (p * p + s * s) * r * r:
        raise StageFailure(
            STAGE_REARRANGE,
            {"p": p, "q": q, "r": r, "s": s},
        )
    return p, q, r, s


def sum_difference_stage(p: int, q: int, r: int, s: int) -> tuple[int, int]:
    """Stage 3: force q^2 = p^2 + s^2 and r^2 = p^2 - s^2.

    The rearranged identity with gcd(q, r) = 1 admits exactly this reading
    provided p^2 + s^2 and p^2 - s^2 are coprime. For coprime (p, s) their
    gcd is 1 or 2; the value 2 occurs when p and s are both odd, and is
    surfaced as a StageFailure rather than resolved, since no genuine
    input can reach it.
    """
    total = p * p + s * s
    diff = p * p - s * s
    shared = math.gcd(total, diff)
    if shared != 1:
        raise StageFailure(
            STAGE_SUM_DIFFERENCE,
            {"p": p, "s": s, "sum": total, "difference": diff, "gcd": shared},
        )
    if q * q != total:
        raise StageFailure(
            STAGE_SUM_DIFFERENCE, {"q": q, "sum": total, "p": p, "s": s}
        )
    if r * r != diff:
        raise StageFailure(
            STAGE_SUM_DIFFERENCE, {"r": r, "difference": diff, "p": p, "s": s}
        )
    return total, diff


def inner_triples_stage(
    p: int, q: int, r: int, s: int
) -> tuple[tuple[int, int], tuple[int, int]]:
    """Stage 4: decompose the twin triples (p, s, q) and (r, s, p).

    Yields (s0, t0) with p = s0^2 - t0^2, s = 2*s0*t0 from the sum form
    and (s0p, t0p) with p = s0p^2 + t0p^2, s = 2*s0p*t0p from the
    difference form.
    """
    with stage(STAGE_INNER_TRIPLES, {"p": p, "s": s, "q": q}):
        s0, t0 = pythagorean_decompose(p, s, q)
    with stage(STAGE_INNER_TRIPLES, {"r": r, "s": s, "p": p}):
        s0p, t0p = pythagorean_decompose(r, s, p)
    return (s0, t0), (s0p, t0p)


def descent_step(
    x: int, y: int, xp: int, yp: int, system: ResolventSystem = R1
) -> DescentStep:
    """One full descent step on a non-trivial solution of R1.

    The genuine domain is empty, so every real call raises TrivialInput or
    NotASolution during validation; the pipeline below is the audited
    construction that would manufacture a smaller solution if a
    non-trivial one were ever presented.
    """
    if system.id != R1.id:
        raise UnsupportedResolvent(f"descent only supports R1, got {system.id}")
    if not check_resolvent(system, x, y, xp, yp):
        raise NotASolution(f"({x}, {y}, {xp}, {yp}) does not satisfy R1")
    if x * y == 0:
        raise TrivialInput(f"({x}, {y}, {xp}, {yp}) is trivial")
    x, y, xp, yp = abs(x), abs(y), abs(xp), abs(yp)
    source = resolvent_solution(system, x, y, xp, yp)

    p, q, r, s = split_stage(x, y, xp, yp)
    sum_difference_stage(p, q, r, s)
    (s0, t0), (s0p, t0p) = inner_triples_stage(p, q, r, s)

    with stage(STAGE_ASSEMBLE, {"s0": s0, "t0": t0, "s0p": s0p, "t0p": t0p}):
        output = resolvent_solution(R1, s0, t0, s0p, t0p)
    step = DescentStep(
        input=source,
        split=(p, q, r, s),
        inner_solutions=((s0, t0), (s0p, t0p)),
        output=output,
        nu_in=nu(x * y),
        nu_out=nu(s0 * t0),
    )
    step.validate()
    return step


def descent_chain(
    x: int, y: int, xp: int, yp: int, system: ResolventSystem = R1
) -> DescentTrace:
    """Iterate descent_step until a terminal state is reached.

    Terminals: TrivialInput (the input itself was trivial),
    NonSolutionInput, TrivialReached (a step emitted a trivial solution)
    and StageFailure. descent_step validates every input, and each step
    checks that its output satisfies R1, so only the chain's own input can
    be rejected. The chain is capped at nu(x*y) + 1 steps; exceeding the
    cap would contradict strict descent and raises InternalInvariantBroken.
    """
    trace = DescentTrace(source=(x, y, xp, yp))
    current = trace.source
    while True:
        try:
            step = descent_step(*current, system=system)
        except (NotASolution, TrivialInput) as rejected:
            non_solution = isinstance(rejected, NotASolution)
            kind = TERMINAL_NON_SOLUTION if non_solution else TERMINAL_TRIVIAL_INPUT
            trace.terminal = DescentTerminal(kind, values={"input": [x, y, xp, yp]})
            return trace
        except StageFailure as failure:
            trace.terminal = DescentTerminal(
                TERMINAL_STAGE_FAILURE, stage=failure.stage, values=failure.values
            )
            return trace
        if not trace.steps:
            cap = nu(x * y) + 1
        trace.steps.append(step)
        if step.output.trivial:
            trace.terminal = DescentTerminal(
                TERMINAL_TRIVIAL_REACHED,
                values={"output": list(step.output.as_tuple())},
            )
            return trace
        if len(trace.steps) >= cap:
            raise InternalInvariantBroken(
                f"descent exceeded {cap} steps from {trace.source}"
            )
        current = step.output.as_tuple()
