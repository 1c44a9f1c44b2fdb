"""Exact integer primitives used by every other module.

Everything operates on Python's arbitrary-precision integers and raises
instead of guessing when an operation is undefined (factorization or
valuation of zero, a split outside its domain, and so on). factorize is
the one trial-division routine: nu's factor count and the prime-power
components of the residue analysis come from it. Slow past desk scale,
exact everywhere.
"""

from __future__ import annotations

import math
from itertools import combinations

from ._value import Frozen
from .errors import (
    InternalInvariantBroken,
    InvalidGenerators,
    NotATriple,
    NotPrimitive,
    ParityError,
    SplitPreconditionFailed,
    UndefinedValuation,
)


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of |n| as ascending (prime, exponent) pairs.

    factorize(1) = factorize(-1) = []; factorize(0) is undefined.
    """
    if n == 0:
        raise UndefinedValuation("factorize(0) is undefined")
    n = abs(n)
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            exponent = 0
            while n % d == 0:
                n //= d
                exponent += 1
            factors.append((d, exponent))
        d += 1 if d == 2 else 2
    if n > 1:
        factors.append((n, 1))
    return factors


def nu(a: int) -> int:
    """Number of prime factors of |a| counted with multiplicity.

    nu(1) = nu(-1) = 0 (empty factorization); nu(0) is undefined.
    """
    if a == 0:
        raise UndefinedValuation("nu(0) is undefined")
    return sum(exponent for _, exponent in factorize(a))


def isqrt_exact(a: int) -> int | None:
    """Integer square root of a if a is a perfect square, else None."""
    if a < 0:
        return None
    r = math.isqrt(a)
    return r if r * r == a else None


class PythTriple(Frozen):
    """A Pythagorean triple (a, b, c) with optional generator pair.

    primitive is true exactly when gcd(a, b) = 1, which for generated
    triples coincides with the generators having opposite parity.
    """

    __slots__ = __match_args__ = ("a", "b", "c", "primitive", "generators")
    _defaults = {"generators": None}


def pythagorean_compose(u: int, v: int) -> PythTriple:
    """Build the triple (u^2 - v^2, 2uv, u^2 + v^2) from generators.

    Requires u > v >= 0 with gcd(u, v) = 1. The result is primitive if and
    only if u and v have opposite parity; both-odd generators produce a
    valid but imprimitive triple such as (3, 1) -> (8, 6, 10).
    """
    if not (u > v >= 0):
        raise InvalidGenerators(f"need u > v >= 0, got u={u}, v={v}")
    if math.gcd(u, v) != 1:
        raise InvalidGenerators(f"generators not coprime: u={u}, v={v}")
    a = u * u - v * v
    b = 2 * u * v
    c = u * u + v * v
    return PythTriple(a, b, c, primitive=(u - v) % 2 == 1, generators=(u, v))


def pythagorean_decompose(a: int, b: int, c: int) -> tuple[int, int]:
    """Recover the unique generators (u, v) of a primitive triple.

    The triple must be in canonical orientation: a odd, b even, both
    nonnegative, c > 0. Callers with an even first leg must pre-swap.
    Computed as u = sqrt((c + a) / 2), v = sqrt((c - a) / 2); both square
    roots are exact for every primitive triple in canonical orientation.
    """
    if a * a + b * b != c * c:
        raise NotATriple(f"{a}^2 + {b}^2 != {c}^2")
    if math.gcd(a, b) != 1:
        raise NotPrimitive(f"gcd({a}, {b}) = {math.gcd(a, b)} != 1")
    if a < 0 or b < 0 or c <= 0 or a % 2 == 0 or b % 2 != 0:
        raise ParityError(
            f"triple ({a}, {b}, {c}) not in canonical orientation (odd, even, positive)"
        )
    u = isqrt_exact((c + a) // 2)
    v = isqrt_exact((c - a) // 2)
    if u is None or v is None:
        # Unreachable for inputs passing the checks above.
        raise InternalInvariantBroken(
            f"generator extraction failed for ({a}, {b}, {c})"
        )
    return u, v


def coprime_split(x: int, y: int, xp: int, yp: int) -> tuple[int, int, int, int]:
    """Split x*y = xp*yp with coprime pairs into four pairwise-coprime parts.

    All arguments are taken by absolute value. Returns (p, q, r, s) with

        p = gcd(x, xp), q = gcd(x, yp), r = gcd(y, xp), s = gcd(y, yp),

    so that x = p*q, y = r*s, xp = p*r, yp = q*s. Unique factorization
    guarantees the reconstruction; it is asserted anyway.
    """
    x, y, xp, yp = abs(x), abs(y), abs(xp), abs(yp)
    if x * y == 0 or x * y != xp * yp:
        raise SplitPreconditionFailed(
            f"need x*y = xp*yp != 0, got {x}*{y} and {xp}*{yp}"
        )
    if math.gcd(x, y) != 1 or math.gcd(xp, yp) != 1:
        raise SplitPreconditionFailed(
            f"pairs not coprime: gcd({x}, {y}) = {math.gcd(x, y)}, "
            f"gcd({xp}, {yp}) = {math.gcd(xp, yp)}"
        )
    p = math.gcd(x, xp)
    q = math.gcd(x, yp)
    r = math.gcd(y, xp)
    s = math.gcd(y, yp)
    if (p * q, r * s, p * r, q * s) != (x, y, xp, yp):
        raise InternalInvariantBroken(
            f"split ({p}, {q}, {r}, {s}) does not rebuild ({x}, {y}, {xp}, {yp})"
        )
    for first, second in combinations((p, q, r, s), 2):
        if math.gcd(first, second) != 1:
            raise InternalInvariantBroken(
                f"split parts not pairwise coprime: ({p}, {q}, {r}, {s})"
            )
    return p, q, r, s
