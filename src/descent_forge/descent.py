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
enumerates residue classes compatible with the two defining equations and
the coprimality side conditions and reports whether a given modulus is
forced to divide the product x*y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class ObstructionReport:
    """Outcome of a residue enumeration for one system and modulus.

    forced is true when every surviving residue class has x*y divisible by
    the modulus. surviving_products lists the distinct values of x*y mod
    modulus over all survivors. analysis_modulus records the modulus the
    congruences were actually checked at: odd moduli are checked as given,
    even ones at 2-adic depth 3 (factor 8), because squares of odd
    integers are constant mod 8 and plain mod-2 residues cannot see that.
    """

    system_id: str
    modulus: int
    analysis_modulus: int
    forced: bool
    surviving_products: tuple[int, ...]
    survivor_classes: int

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


def residue_obstruction(system: ResolventSystem, modulus: int) -> ObstructionReport:
    """Enumerate residue classes of the system modulo the given modulus.

    A quadruple class survives when it satisfies the quadratic congruence
    and the product congruence and no prime divisor of the modulus divides
    both members of either pair. The report says whether modulus | x*y
    holds across every survivor.
    """
    if modulus < 2 or modulus > MODULUS_LIMIT:
        raise BoundExceeded(f"modulus {modulus} outside [2, {MODULUS_LIMIT}]")
    deep = _analysis_modulus(modulus)
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


def nu_lower_bound(system: ResolventSystem) -> int:
    """Lower bound on nu(x*y) for a hypothetical non-trivial solution.

    Counts the moduli in {2, 3} whose obstruction is forced. Only R1 is
    supported; the companion system is out of scope for descent.
    """
    if system.id != R1.id:
        raise UnsupportedResolvent(f"nu_lower_bound only supports R1, got {system.id}")
    return sum(1 for modulus in (2, 3) if residue_obstruction(system, modulus).forced)


@dataclass(frozen=True)
class DescentStep:
    """One completed descent step with its full bookkeeping."""

    input: ResolventSolution
    split: tuple[int, int, int, int]
    inner_solutions: tuple[tuple[int, int], tuple[int, int]]
    output: ResolventSolution
    nu_in: int
    nu_out: int

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


@dataclass(frozen=True)
class DescentTerminal:
    kind: str
    stage: str | None = None
    values: dict | None = None

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.stage is not None:
            out["stage"] = self.stage
        if self.values is not None:
            out["values"] = dict(self.values)
        return out


@dataclass
class DescentTrace:
    source: tuple[int, int, int, int]
    steps: list[DescentStep] = field(default_factory=list)
    terminal: DescentTerminal | None = None

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
