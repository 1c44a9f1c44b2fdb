"""Bounded exhaustive searches over the catalog and the resolvents.

Quartic searches walk the coprime grid 0 <= x, y <= bound and ask for
exact z values. Since z^e is a square for e = 2 and e = 4, the left side
must be d times a square modulo every m. For each coefficient tuple and
each sieve modulus m (64, 63, 65, 11 and the primes 17 to 53), a lazily
built table lists for each x mod m the y mod m where that can hold
(square-residue sieving, Cohen, A Course in Computational Algebraic
Number Theory, Alg. 1.7.3). A scan repeats every table row across the
bound and packs it into an int, so row x ANDs one int per modulus and
rejects a whole row's cells at once. The few cells that survive (75 of
4.33 M over the catalog at bound 600) pass the gcd check and are
confirmed exactly by equations.eval_quartic, which alone finds roots and
judges triviality.

Resolvent searches run on the same row kernel. The four-gcd split
x = p*q, y = r*s, x' = p*r, y' = q*s of a coprime solution turns the
system into its split quartic D*N = z^2 in (q, r) (ResolventSystem's
split_quartic and split_forms); each of its coprime survivors is rebuilt
into at most one solution, or into a free (p, s) family when D = N = 0.
Reports list canonical (componentwise nonnegative) representatives sorted
lexicographically, plus the total number of signed solutions their
orbits contain, so results are bit-stable across runs and thread counts.

Both searches check the bound (_check_bound) and the thread count first,
and only then build any per-scan state; verify_table validates both of
its bounds before its first scan. Each is a row kernel run by one shared
loop, _search, over rows 0..bound on the calling thread. The threads
argument and the DESCENT_FORGE_THREADS environment variable (default 1)
are accepted and validated for compatibility but start no threads: the
kernel is CPU-bound Python under one interpreter lock, and on a 2-core
machine two threads were slower than one (verify_table(10000, 2000)
1.79 s against 2.22 s, search_quartic(E2, 10000) 0.160 s against
0.166 s, medians of 5 interleaved runs).
"""

from __future__ import annotations

import math
import os
import time
from collections.abc import Callable, Iterable
from functools import lru_cache
from itertools import product

from ._value import Frozen
from .equations import (
    QuarticEquation,
    ResolventSystem,
    check_resolvent,
    eval_quartic,
    is_trivial,
    list_catalog,
    list_resolvents,
)
from .errors import (
    BoundExceeded,
    NotPrimitive,
    StageFailure,
    TrivialInput,
)
from . import reduction

QUARTIC_BOUND_LIMIT = 10**4
RESOLVENT_BOUND_LIMIT = 2000
DEFAULT_QUARTIC_BOUND = 100
DEFAULT_RESOLVENT_BOUND = 60
THREADS_ENV_VAR = "DESCENT_FORGE_THREADS"

# Sizes only the byte-stable `partitions` report field: rows per block.
_CHUNK_ROWS = 128

VERDICT_CONSISTENT = "CONSISTENT"
VERDICT_COUNTEREXAMPLE = "COUNTEREXAMPLE"


def thread_count(explicit: int | None = None) -> int:
    """Resolve and validate the thread count: explicit argument, else env
    var, else 1. Scans run on one thread whatever it is."""
    if explicit is not None:
        value = explicit
    else:
        raw = os.environ.get(THREADS_ENV_VAR)
        if raw is None:
            return 1
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(
                f"{THREADS_ENV_VAR} must be a positive integer, got {raw!r}"
            ) from None
    if value < 1:
        raise ValueError(f"thread count must be >= 1, got {value}")
    return value


class SearchReport(Frozen):
    """Canonical outcome of one bounded search."""

    __slots__ = __match_args__ = (
        "target_id", "bound", "require_coprime", "include_trivial",
        "solutions", "orbit_count", "partitions", "elapsed_ms",
    )

    def to_dict(self, include_timing: bool = False) -> dict:
        out = {
            "target": self.target_id,
            "bound": self.bound,
            "options": {
                "require_coprime": self.require_coprime,
                "include_trivial": self.include_trivial,
            },
            "solutions": [list(sol) for sol in self.solutions],
            "orbit_count": self.orbit_count,
            "partitions": self.partitions,
        }
        if include_timing:
            out["elapsed_ms"] = self.elapsed_ms
        return out


def _check_bound(kind: str, bound: int, limit: int) -> None:
    if not 1 <= bound <= limit:
        raise BoundExceeded(f"{kind} bound {bound} outside [1, {limit}]")


def _search(
    target_id: str,
    bound: int,
    row_kernel: Callable[[int], Iterable[tuple[tuple[int, ...], int, bool]]],
    *,
    require_coprime: bool,
    include_trivial: bool,
) -> SearchReport:
    """Shared scan loop: run row_kernel over rows 0..bound and report.

    row_kernel(x) yields (solution, orbit size, trivial) for every
    canonical solution in row x. Every orbit is counted; trivial solutions
    are listed only when include_trivial is set.
    """
    start = time.perf_counter()
    solutions: list[tuple[int, ...]] = []
    orbit_count = 0
    for x in range(bound + 1):
        for solution, orbit_size, trivial in row_kernel(x):
            orbit_count += orbit_size
            if include_trivial or not trivial:
                solutions.append(solution)
    elapsed = (time.perf_counter() - start) * 1000.0
    return SearchReport(
        target_id=target_id,
        bound=bound,
        require_coprime=require_coprime,
        include_trivial=include_trivial,
        solutions=tuple(sorted(solutions)),
        orbit_count=orbit_count,
        partitions=-(-(bound + 1) // _CHUNK_ROWS),
        elapsed_ms=elapsed,
    )


def _quartic_orbit_size(x: int, y: int, z: int) -> int:
    return 2 ** ((x != 0) + (y != 0) + (z != 0))


# Sieve moduli, each at most 256 so that a residue fits in a byte. Over
# the 12 catalog scans at bound 600 (4.33 M cells), 64, 63, 65 and 11
# alone leave 54 253 cells for eval_quartic, with the primes 17-29 added
# 3 943, and with 17-53 added 75. Adding 59-73 as well cuts the 75 to 21
# but made a cold pass slower: each modulus costs table building and one
# AND per row.
_SIEVE_MODULI = (64, 63, 65, 11, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


# Bounded: callers may pass any number of distinct equations.
@lru_cache(maxsize=64)
def _sieve_tables(a: int, b: int, c: int, d: int) -> tuple[tuple[bytes, ...], ...]:
    """Per sieve modulus m, for each u = x mod m, the y residues mod m that
    can carry a solution of a*x^4 + b*x^2*y^2 + c*y^4 = d*z^e.

    Byte r of entry [i][u] is 1 exactly when a*u^4 + b*u^2*r^2 + c*r^4 is
    d times a square mod m = _SIEVE_MODULI[i]. z^e is a square for e = 2
    and e = 4 alike, and the condition has period m in x and y whatever d
    is, so every solution passes, for negative d and for d sharing primes
    with m too.
    """
    tables = []
    for m in _SIEVE_MODULI:
        square_of = bytes(r * r % m for r in range(m))
        squares = set(square_of)
        targets = {d * s % m for s in squares}
        # A row depends on u only through v = u^2 and on r only through r^2.
        rows = {}
        for v in squares:
            admits = bytearray(256)
            for w in squares:
                admits[w] = (a * v * v + b * v * w + c * w * w) % m in targets
            rows[v] = square_of.translate(admits)
        tables.append(tuple(rows[v] for v in square_of))
    return tuple(tables)


def _quartic_rows(eq: QuarticEquation, bound: int, require_coprime: bool):
    """The sieved row kernel of a quartic scan over 0 <= y <= bound.

    For each modulus m below bound + 1, each table row of _sieve_tables is
    repeated to bound + 1 bytes and packed into an int once per scan.
    Row x ANDs the ints for x mod m over those moduli and then, for each
    larger modulus, its table row x packed on the spot; it stops at the
    first zero and walks the y whose byte survived. A small scan thus
    packs only the masks its rows reach. A coprime scan starts even rows
    from the odd y and drops y = 0 from every row but x = 1, then checks
    the gcd of each survivor. eval_quartic alone finds roots, rejects a
    non-divisible or negative quotient and judges triviality; row x
    yields each solution with z >= 0.
    """
    width = bound + 1

    def spread(pattern: bytes) -> int:
        return int.from_bytes((pattern * (width // len(pattern) + 1))[:width], "little")

    # A modulus below the width repeats its residues across the rows, so
    # its masks are packed up front, residues with equal u^2 sharing one.
    # At or above the width, row x is the only row with residue x, so its
    # mask is packed only if the row reaches that modulus.
    sieves, single = [], []
    for m, table in zip(_SIEVE_MODULI, _sieve_tables(eq.a, eq.b, eq.c, eq.d)):
        if m < width:
            packed = {pattern: spread(pattern) for pattern in set(table)}
            sieves.append((m, [packed[pattern] for pattern in table]))
        else:
            single.append(table)
    every_y = spread(b"\1")
    # A coprime cell has x or y odd, and has y = 0 only at x = 1.
    odd_y, nonzero_y = spread(b"\0\1"), every_y ^ 1

    def row(x: int):
        if not require_coprime or x == 1:
            mask = every_y
        else:
            mask = nonzero_y if x & 1 else odd_y
        for m, masks in sieves:
            mask &= masks[x % m]
            if not mask:
                return
        for table in single:
            mask &= int.from_bytes(table[x][:width], "little")
            if not mask:
                return
        cells = mask.to_bytes(width, "little")
        y = cells.find(1)
        while y >= 0:
            if not require_coprime or math.gcd(x, y) == 1:
                for sol in eval_quartic(eq, x, y):
                    if sol.z >= 0:
                        yield sol.as_tuple(), _quartic_orbit_size(sol.x, sol.y, sol.z), sol.trivial
            y = cells.find(1, y + 1)

    return row


def search_quartic(
    eq: QuarticEquation,
    bound: int = DEFAULT_QUARTIC_BOUND,
    require_coprime: bool = True,
    include_trivial: bool = False,
    threads: int | None = None,
) -> SearchReport:
    """Exhaustive scan of 0 <= x, y <= bound for solutions of eq.

    The solutions list honors the coprimality and triviality options; the
    orbit count tallies every signed solution the scan saw (subject only
    to the coprimality option), so a scan that finds nothing but trivial
    orbits still reports their total size.
    """
    _check_bound("quartic", bound, QUARTIC_BOUND_LIMIT)
    thread_count(threads)
    return _search(
        eq.id, bound, _quartic_rows(eq, bound, require_coprime),
        require_coprime=require_coprime, include_trivial=include_trivial,
    )


# The only points with x*y = 0 whose two pairs are both coprime.
_AXIS_QUADS = ((0, 1, 1, 0), (0, 1, 0, 1), (1, 0, 1, 0), (1, 0, 0, 1))


def search_resolvent(
    system: ResolventSystem,
    bound: int = DEFAULT_RESOLVENT_BOUND,
    include_trivial: bool = False,
    threads: int | None = None,
) -> SearchReport:
    """Exhaustive scan for solutions of a resolvent system.

    A coprime solution with x*y != 0 splits uniquely as x = p*q, y = r*s,
    x' = p*r, y' = q*s with p, q, r, s >= 1 pairwise coprime, and then
    p^2 D = s^2 N for the split forms (D, N) = system.split_forms(q, r).
    Row q runs the sieved coprime row kernel of system.split_quartic(),
    D*N = z^2; a survivor with z > 0 gives t = sign(D) * gcd(D, N) with
    D = t s^2 and N = t p^2, and hence p and s, and one with D = N = 0
    leaves (p, s) free. The four points with x*y = 0 are tested directly.
    Coprimality is part of solution-hood here, so there is no coprimality
    option.
    """
    _check_bound("resolvent", bound, RESOLVENT_BOUND_LIMIT)
    thread_count(threads)
    quartic_row = _quartic_rows(system.split_quartic(), bound, require_coprime=True)

    def row(q: int):
        if q == 0:
            for quad in _AXIS_QUADS:
                if check_resolvent(system, *quad):
                    yield quad, 4, True
        for (_, r, z), _, _ in quartic_row(q):
            if q * r == 0:
                continue
            d_value, n_value = system.split_forms(q, r)
            if z:
                t = math.gcd(d_value, n_value) if d_value > 0 else -math.gcd(d_value, n_value)
                splits = [(math.isqrt(n_value // t), math.isqrt(d_value // t))]
            elif d_value == n_value == 0:
                splits = product(range(1, bound // q + 1), range(1, bound // r + 1))
            else:
                continue  # p = 0 or s = 0: x*y = 0
            for p, s in splits:
                x, y, xp, yp = p * q, r * s, p * r, q * s
                if x <= bound and y <= bound and math.gcd(x, y) == 1 and math.gcd(xp, yp) == 1:
                    # 16 sign patterns, halved by x*y = x'*y'.
                    yield (x, y, xp, yp), 8, False

    return _search(
        system.id, bound, row,
        require_coprime=True, include_trivial=include_trivial,
    )


class VerifyOutcome(Frozen):
    """Verdict for one verify-table target."""

    __slots__ = __match_args__ = ("target_id", "report", "verdict", "cross_checks")
    _defaults = {"cross_checks": ()}

    def to_dict(self, include_timing: bool = False) -> dict:
        return {
            "target": self.target_id,
            "report": self.report.to_dict(include_timing),
            "verdict": self.verdict,
            "cross_checks": [dict(check) for check in self.cross_checks],
        }


def _cross_check(eq_id: str, x: int, y: int, z: int) -> dict:
    """Check that the reduction maps accept or reject one solution of E2 or
    E4 (trivial ones included) exactly as their domains say."""
    if eq_id == "E2" and x * y == 0:
        expected = "TrivialInput"
    elif math.gcd(x, 2 * y if eq_id == "E2" else y) != 1:
        expected = "NotPrimitive"
    else:
        expected = "ok"
    reduce, lift = reduction.maps(eq_id)
    try:
        lift(*reduce(x, y, z).final.as_tuple())
        actual = "ok"
    except TrivialInput:
        actual = "TrivialInput"
    except NotPrimitive:
        actual = "NotPrimitive"
    except StageFailure as failure:
        actual = f"StageFailure:{failure.stage}"
    return {"solution": [x, y, z], "expected": expected, "actual": actual, "ok": expected == actual}


def _judged(
    target_id: str, report: SearchReport, cross_checks: tuple[dict, ...] = ()
) -> VerifyOutcome:
    """A target is consistent when its nontrivial scan found nothing and
    every cross-check came out as expected."""
    consistent = not report.solutions and all(check["ok"] for check in cross_checks)
    verdict = VERDICT_CONSISTENT if consistent else VERDICT_COUNTEREXAMPLE
    return VerifyOutcome(target_id, report, verdict, cross_checks)


def _quartic_outcome(eq: QuarticEquation, bound: int, threads: int) -> VerifyOutcome:
    # E2 and E4 are scanned once with trivial solutions listed: the
    # cross-checks need them, and the report drops them afterwards.
    checked = eq.id in reduction.MAPPED_IDS
    report = search_quartic(eq, bound, require_coprime=True, include_trivial=checked, threads=threads)
    cross_checks: tuple[dict, ...] = ()
    if checked:
        cross_checks = tuple(_cross_check(eq.id, *sol) for sol in report.solutions)
        nontrivial = tuple(sol for sol in report.solutions if not is_trivial(sol[0], sol[1]))
        report = SearchReport(
            report.target_id, report.bound, report.require_coprime, False,
            nontrivial, report.orbit_count, report.partitions, report.elapsed_ms,
        )
    return _judged(eq.id, report, cross_checks)


def verify_table(
    quartic_bound: int = DEFAULT_QUARTIC_BOUND,
    resolvent_bound: int = DEFAULT_RESOLVENT_BOUND,
    threads: int | None = None,
) -> list[VerifyOutcome]:
    """Scan every catalog target and judge it CONSISTENT or COUNTEREXAMPLE.

    A quartic target is consistent when the nontrivial coprime scan comes
    back empty and (for E2 and E4) every found trivial solution drives the
    reduction maps exactly as their contracts dictate. A resolvent target
    is consistent when its nontrivial scan comes back empty.
    """
    # Refuse a bad bound before the first scan, not after the quartic ones.
    # Each scan still gets the resolved count, which traces of its
    # arguments (bench/tracer.py) report as its worker count.
    workers = thread_count(threads)
    _check_bound("quartic", quartic_bound, QUARTIC_BOUND_LIMIT)
    _check_bound("resolvent", resolvent_bound, RESOLVENT_BOUND_LIMIT)
    outcomes = [
        _quartic_outcome(entry.equation, quartic_bound, workers)
        for entry in list_catalog()
    ]
    outcomes += [
        _judged(
            system.id,
            search_resolvent(system, resolvent_bound, include_trivial=False, threads=workers),
        )
        for system in list_resolvents()
    ]
    return outcomes


def all_consistent(outcomes: list[VerifyOutcome]) -> bool:
    return all(outcome.verdict == VERDICT_CONSISTENT for outcome in outcomes)
