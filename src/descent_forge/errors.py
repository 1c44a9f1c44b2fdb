"""Exception types shared across the toolkit.

Every rejected input gets a dedicated class so callers can match on the
reason instead of parsing messages. StageFailure is the load-bearing one:
it carries the stage label and the witnessing values whenever a deduction
that should be impossible on a genuine solution fails to go through.
Callers are expected to surface it as a finding, not swallow it.

stage is the one StageFailure policy for the reduction and descent
pipelines: it decides which rejections inside a deduction stage count as
a failed deduction and what the resulting StageFailure reports.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager


class DescentForgeError(Exception):
    """Base class for all toolkit errors."""


class DegenerateInput(DescentForgeError):
    """Both arguments of a gcd were zero."""


class UndefinedValuation(DescentForgeError):
    """Valuation requested for 0."""


class NotPrime(DescentForgeError):
    """A prime-only argument failed its primality check."""


class InvalidGenerators(DescentForgeError):
    """Generator pair violates u > v >= 0 with gcd(u, v) = 1."""


class NotATriple(DescentForgeError):
    """Claimed Pythagorean triple does not satisfy a^2 + b^2 = c^2."""


class NotPrimitive(DescentForgeError):
    """A required coprimality condition does not hold."""


class ParityError(DescentForgeError):
    """Triple is not in canonical orientation (odd leg, even leg, positive)."""


class SplitPreconditionFailed(DescentForgeError):
    """coprime_split called outside its domain."""


class TrivialInput(DescentForgeError):
    """Operation requires a non-trivial solution."""


class NotASolution(DescentForgeError):
    """Claimed solution does not satisfy its equation."""


class NotAResolventSolution(DescentForgeError):
    """Claimed solution does not satisfy the resolvent system."""


class UnsupportedResolvent(DescentForgeError):
    """Requested analysis is only implemented for the first resolvent."""


class BoundExceeded(DescentForgeError):
    """Search or enumeration bound outside the permitted range."""


class InternalInvariantBroken(DescentForgeError):
    """An invariant the code relies on failed; a bug, not bad input."""


class StageFailure(DescentForgeError):
    """A deduction stage failed on values where theory says it cannot.

    On genuine solutions every stage of the reduction and descent pipelines
    is forced to succeed, so a StageFailure on validated input would be a
    counterexample to the underlying theorems. The exception therefore
    records the stage label and the offending values verbatim so the event
    can be reported and audited.
    """

    def __init__(self, stage: str, values: dict[str, object]):
        self.stage = stage
        self.values = dict(values)
        detail = ", ".join(f"{key}={value}" for key, value in sorted(self.values.items()))
        super().__init__(f"stage {stage} failed ({detail})")


@contextmanager
def stage(name: str, values: dict[str, object]) -> Iterator[None]:
    """Run a deduction stage, turning a rejected triple or solution record
    into StageFailure(name, values plus "reason").

    The rejections converted are NotATriple, NotPrimitive, ParityError,
    NotASolution and NotAResolventSolution; the original exception becomes
    the failure's __cause__. Every other exception passes through.
    """
    try:
        yield
    except (NotATriple, NotPrimitive, ParityError, NotASolution, NotAResolventSolution) as exc:
        raise StageFailure(name, {**values, "reason": str(exc)}) from exc
