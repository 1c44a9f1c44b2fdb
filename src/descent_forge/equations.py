"""Equation catalog, resolvent systems and solution records.

The catalog lists the quartic families this toolkit knows how to test,
keyed by stable string ids (E1..E11 plus the non-member control X1), and
the two quadratic resolvent systems R1 and R2 they reduce to. Equations,
systems and solutions are immutable plain classes on the package's
slotted Frozen base rather than dataclasses, which were slow to import.
Each lists its fields once, in __match_args__, and the base's one
constructor binds them; equations and systems then check their
coefficients. Solutions carry primitivity and triviality flags, and
each solution class names its coordinates once, in coordinates.
"""

from __future__ import annotations

import math
from operator import attrgetter

from ._value import Frozen
from .core_arith import isqrt_exact
from .errors import NotASolution

MEMBER_R1 = "R1"
MEMBER_R2 = "R2"
MEMBER_BOTH = "both"
MEMBER_NONE = "none"


class QuarticEquation(Frozen):
    """a*x^4 + b*x^2*y^2 + c*y^4 = d*z^e with a != 0, d != 0, e in {2, 4}."""

    __slots__ = __match_args__ = ("id", "a", "b", "c", "d", "e")

    def __init__(self, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)
        if self.a == 0 or self.d == 0 or self.e not in (2, 4):
            raise ValueError(f"malformed equation {self.id}")

    def lhs(self, x: int, y: int) -> int:
        return self.a * x**4 + self.b * x * x * y * y + self.c * y**4

    def is_solution(self, x: int, y: int, z: int) -> bool:
        return self.d * z**self.e == self.lhs(x, y)

    def form(self) -> str:
        """Human-readable rendering, e.g. 'x^4 + 4y^4 = z^2'."""
        terms = [_term(self.a, "x^4", first=True)]
        if self.b:
            terms.append(_term(self.b, "x^2y^2"))
        if self.c:
            terms.append(_term(self.c, "y^4"))
        rhs = f"{'' if self.d == 1 else self.d}z^{self.e}"
        return f"{' '.join(terms)} = {rhs}"


class ResolventSystem(Frozen):
    """m*x^2 + n*y^2 = k*x'^2 + l*y'^2 with x*y = x'*y' and coprime pairs."""

    __slots__ = __match_args__ = ("id", "m", "n", "k", "l")

    def __init__(self, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)
        if 0 in (self.m, self.n, self.k, self.l):
            raise ValueError(f"malformed resolvent system {self.id}: zero coefficient")

    def split_forms(self, q: int, r: int) -> tuple[int, int]:
        """The split forms (D, N) = (m q^2 - k r^2, l q^2 - n r^2).

        A coprime solution with x*y != 0 splits as x = p*q, y = r*s,
        x' = p*r, y' = q*s with p, q, r, s pairwise coprime (the four-gcd
        split). Substituted into the system, that quadruple is a solution
        exactly when p^2 D = s^2 N.
        """
        return self.m * q * q - self.k * r * r, self.l * q * q - self.n * r * r

    def split_quartic(self) -> QuarticEquation:
        """D*N = z^2 as a quartic in (q, r), under this system's id.

        p^2 D = s^2 N with gcd(p, s) = 1 gives D = t s^2 and N = t p^2, so
        D*N = ml q^4 - (mn + kl) q^2 r^2 + kn r^4 is a square. R1's is E1;
        R2's, 2q^4 - 2r^4 = z^2, is E8 (q^4 - r^4 = 2w^2) with z = 2w.
        """
        m, n, k, l = self.m, self.n, self.k, self.l
        return QuarticEquation(self.id, m * l, -(m * n + k * l), k * n, 1, 2)

    def form(self) -> str:
        left = f"{_term(self.m, 'x^2', first=True)} {_term(self.n, 'y^2')}"
        right = _term(self.k, "x'^2", first=True) + " " + _term(self.l, "y'^2")
        return f"{left} = {right}, xy = x'y', gcd(x, y) = gcd(x', y') = 1"


def _term(coeff: int, symbol: str, first: bool = False) -> str:
    mag = abs(coeff)
    body = symbol if mag == 1 else f"{mag}{symbol}"
    if first:
        return body if coeff > 0 else f"-{body}"
    return f"+ {body}" if coeff > 0 else f"- {body}"


class _Point(Frozen):
    """A solution record: the class tuple coordinates names its coordinate
    fields in order, and is the one home of those names."""

    __slots__ = ()
    coordinates: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        # A C-level getter: the quartic kernel calls as_tuple per solution.
        cls._coordinate_values = staticmethod(attrgetter(*cls.coordinates))

    def as_tuple(self) -> tuple[int, ...]:
        return self._coordinate_values(self)

    def named(self) -> dict[str, int]:
        """The coordinates by name, as a trace records a point."""
        return dict(zip(self.coordinates, self._coordinate_values(self)))


class QuarticSolution(_Point):
    """Integer point (x, y, z) on a catalog equation.

    trivial means x*y = 0 or |x| = |y|; primitive means gcd(x, y) = 1.
    """

    coordinates = ("x", "y", "z")
    __slots__ = __match_args__ = (*coordinates, "primitive", "trivial")


class ResolventSolution(_Point):
    """Integer point (x, y, xp, yp) on a resolvent system.

    trivial means x*y = 0. The side conditions (product equality and
    coprimality of both pairs) are part of solution-hood, so objects of
    this type always satisfy them.
    """

    coordinates = ("x", "y", "xp", "yp")
    __slots__ = __match_args__ = ("system_id", *coordinates, "trivial")


R1 = ResolventSystem("R1", 1, -1, 1, 1)
R2 = ResolventSystem("R2", 1, -2, 1, 2)


class CatalogEntry(Frozen):
    __slots__ = __match_args__ = ("equation", "membership")


_CATALOG: tuple[CatalogEntry, ...] = (
    CatalogEntry(QuarticEquation("E1", 1, 0, -1, 1, 2), MEMBER_R1),
    CatalogEntry(QuarticEquation("E2", 1, 0, 4, 1, 2), MEMBER_R1),
    CatalogEntry(QuarticEquation("E3", 1, 0, 1, 2, 2), MEMBER_R1),
    CatalogEntry(QuarticEquation("E4", 1, 6, 1, 1, 2), MEMBER_R1),
    CatalogEntry(QuarticEquation("E5", 1, -6, 1, 1, 2), MEMBER_R1),
    CatalogEntry(QuarticEquation("E6", 1, 0, 1, 1, 2), MEMBER_R2),
    CatalogEntry(QuarticEquation("E7", 1, 0, -4, 1, 2), MEMBER_R2),
    CatalogEntry(QuarticEquation("E8", 1, 0, -1, 2, 2), MEMBER_R2),
    CatalogEntry(QuarticEquation("E9", 1, 12, 4, 1, 2), MEMBER_R2),
    CatalogEntry(QuarticEquation("E10", 1, -12, 4, 1, 2), MEMBER_R2),
    CatalogEntry(QuarticEquation("E11", 1, 0, 1, 1, 4), MEMBER_BOTH),
    CatalogEntry(QuarticEquation("X1", 1, 0, 2, 1, 2), MEMBER_NONE),
)

_EQUATIONS = {entry.equation.id: entry.equation for entry in _CATALOG}
_RESOLVENTS = {system.id: system for system in (R1, R2)}


def list_catalog() -> list[CatalogEntry]:
    """All catalog equations with their resolvent membership."""
    return list(_CATALOG)


def list_resolvents() -> list[ResolventSystem]:
    """Both resolvent systems: R1, then R2."""
    return list(_RESOLVENTS.values())


def equation_by_id(eq_id: str) -> QuarticEquation:
    if eq_id not in _EQUATIONS:
        raise KeyError(f"unknown equation id {eq_id!r}")
    return _EQUATIONS[eq_id]


def resolvent_by_id(sys_id: str) -> ResolventSystem:
    if sys_id not in _RESOLVENTS:
        raise KeyError(f"unknown resolvent id {sys_id!r}")
    return _RESOLVENTS[sys_id]


def is_trivial(x: int, y: int) -> bool:
    """True when a quartic point (x, y, z) is trivial: x*y = 0 or |x| = |y|."""
    return x * y == 0 or abs(x) == abs(y)


def _flags(x: int, y: int) -> tuple[bool, bool]:
    # math.gcd(0, 0) = 0, so (0, 0) correctly counts as imprimitive.
    return math.gcd(x, y) == 1, is_trivial(x, y)


def eval_quartic(eq: QuarticEquation, x: int, y: int) -> list[QuarticSolution]:
    """All z completing (x, y) to a solution of eq, as solution records.

    Empty when the left side is not divisible by d or the quotient is not
    a perfect e-th power. Otherwise returns one record for z = 0 or two
    (negative root first) for z != 0.
    """
    lhs = eq.lhs(x, y)
    if lhs % eq.d != 0:
        return []
    quotient = lhs // eq.d
    if eq.e == 2:
        root = isqrt_exact(quotient)
    else:
        half = isqrt_exact(quotient)
        root = None if half is None else isqrt_exact(half)
    if root is None:
        return []
    primitive, trivial = _flags(x, y)
    zs = [0] if root == 0 else [-root, root]
    return [QuarticSolution(x, y, z, primitive, trivial) for z in zs]


def quartic_solution(eq: QuarticEquation, x: int, y: int, z: int) -> QuarticSolution:
    """Validate (x, y, z) against eq and wrap it as a QuarticSolution."""
    if not eq.is_solution(x, y, z):
        raise NotASolution(
            f"({x}, {y}, {z}) does not satisfy {eq.id}: {eq.form()}"
        )
    primitive, trivial = _flags(x, y)
    return QuarticSolution(x, y, z, primitive, trivial)


def check_resolvent(sys: ResolventSystem, x: int, y: int, xp: int, yp: int) -> bool:
    """Exact membership test for the resolvent system sys.

    Checks the quadratic equality, the product equality and coprimality of
    both pairs. Never raises; (0, 0) pairs simply fail coprimality.
    """
    if sys.m * x * x + sys.n * y * y != sys.k * xp * xp + sys.l * yp * yp:
        return False
    if x * y != xp * yp:
        return False
    return math.gcd(x, y) == 1 and math.gcd(xp, yp) == 1


def resolvent_solution(
    sys: ResolventSystem, x: int, y: int, xp: int, yp: int
) -> ResolventSolution:
    """Validate (x, y, xp, yp) against sys and wrap it."""
    if not check_resolvent(sys, x, y, xp, yp):
        raise NotASolution(
            f"({x}, {y}, {xp}, {yp}) does not satisfy {sys.id}"
        )
    return ResolventSolution(sys.id, x, y, xp, yp, trivial=x * y == 0)
