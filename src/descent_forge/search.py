"""Bounded exhaustive searches over the catalog and the resolvents.

Quartic searches walk the coprime grid 0 <= x, y <= bound and ask for
exact z values. Since z^e is a square for e = 2 and e = 4, the left side
must be d times a square; a lazily built table, one per coefficient
tuple, lists for each x mod 64 the y mod 64 where that can hold, and row
x walks only those residue classes. The quotient lhs / d must then pass
the square-residue tables mod 63, 65, 11 and 64 (Cohen, A Course in
Computational Algebraic Number Theory, Alg. 1.7.3) before the gcd, and
the roughly 1 % of cells that survive are confirmed exactly by
equations.eval_quartic, which alone finds roots and judges triviality.

Resolvent searches run on the same row kernel. The four-gcd split
x = p*q, y = r*s, x' = p*r, y' = q*s of a coprime solution turns the
system into the quartic D*N = z^2 in (q, r), with D = m q^2 - k r^2 and
N = l q^2 - n r^2; each of its coprime survivors is rebuilt into at most
one solution, or into a free (p, s) family when D = N = 0.
Reports list canonical (componentwise nonnegative) representatives sorted
lexicographically, plus the total number of signed solutions their
orbits contain, so results are bit-stable across runs and partitionings.

Both searches validate the bound and the worker count first, through
_scan_workers, and only then build any per-scan state. Each is a row
kernel run by one shared engine, _search, which splits rows 0..bound
into fixed 128-row chunks, merges them in chunk order and assembles the
SearchReport. The DESCENT_FORGE_THREADS environment variable (default 1)
caps how many chunks are processed concurrently; the chunk layout does
not depend on it, so reports are identical at any thread count.
"""

from __future__ import annotations

import math
import os
import time
from collections.abc import Callable, Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import cache, lru_cache
from itertools import product

from .equations import (
    QuarticEquation,
    ResolventSystem,
    check_resolvent,
    eval_quartic,
    is_trivial,
    list_catalog,
    resolvent_by_id,
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

_CHUNK_ROWS = 128

VERDICT_CONSISTENT = "CONSISTENT"
VERDICT_COUNTEREXAMPLE = "COUNTEREXAMPLE"


def thread_count(explicit: int | None = None) -> int:
    """Resolve the worker cap: explicit argument, else env var, else 1."""
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


@dataclass(frozen=True)
class SearchReport:
    """Canonical outcome of one bounded search."""

    target_id: str
    bound: int
    require_coprime: bool
    include_trivial: bool
    solutions: tuple[tuple[int, ...], ...]
    orbit_count: int
    partitions: int
    elapsed_ms: float

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


def _run_chunks(worker, chunks: list[range], threads: int):
    # More workers than chunks would only idle; one chunk runs inline.
    workers = min(threads, len(chunks))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(worker, chunks))
    return [worker(chunk) for chunk in chunks]


def _scan_workers(kind: str, bound: int, limit: int, threads: int | None) -> int:
    """Validate a scan's bound and return its worker count."""
    if not 1 <= bound <= limit:
        raise BoundExceeded(f"{kind} bound {bound} outside [1, {limit}]")
    return thread_count(threads)


def _search(
    target_id: str,
    bound: int,
    row_kernel: Callable[[int], Iterable[tuple[tuple[int, ...], int, bool]]],
    *,
    require_coprime: bool,
    include_trivial: bool,
    workers: int,
) -> SearchReport:
    """Shared chunk engine: run row_kernel over rows 0..bound and merge.

    row_kernel(x) yields (solution, orbit size, trivial) for every
    canonical solution in row x. Every orbit is counted; trivial solutions
    are listed only when include_trivial is set.
    """
    start = time.perf_counter()

    def scan(rows: range) -> tuple[list[tuple[int, ...]], int]:
        found: list[tuple[int, ...]] = []
        orbits = 0
        for x in rows:
            for solution, orbit_size, trivial in row_kernel(x):
                orbits += orbit_size
                if include_trivial or not trivial:
                    found.append(solution)
        return found, orbits

    chunks = [
        range(first, min(first + _CHUNK_ROWS, bound + 1))
        for first in range(0, bound + 1, _CHUNK_ROWS)
    ]
    solutions: list[tuple[int, ...]] = []
    orbit_count = 0
    for found, orbits in _run_chunks(scan, chunks, workers):
        solutions.extend(found)
        orbit_count += orbits
    elapsed = (time.perf_counter() - start) * 1000.0
    return SearchReport(
        target_id=target_id,
        bound=bound,
        require_coprime=require_coprime,
        include_trivial=include_trivial,
        solutions=tuple(sorted(solutions)),
        orbit_count=orbit_count,
        partitions=len(chunks),
        elapsed_ms=elapsed,
    )


def _quartic_orbit_size(x: int, y: int, z: int) -> int:
    return 2 ** ((x != 0) + (y != 0) + (z != 0))


@cache
def _square_flags(modulus: int) -> bytes:
    """Byte i is 1 exactly when i is a square mod modulus."""
    flags = bytearray(modulus)
    for r in range(modulus):
        flags[r * r % modulus] = 1
    return bytes(flags)


# Bounded: callers may pass any number of distinct equations.
@lru_cache(maxsize=64)
def _admissible_residues(a: int, b: int, c: int, d: int) -> tuple[tuple[int, ...], ...]:
    """For each u = x mod 64, the ascending residues r = y mod 64 that can
    carry a solution of a*x^4 + b*x^2*y^2 + c*y^4 = d*z^e.

    z^e is a square for e = 2 and e = 4 alike, so the left side must be
    d times a square mod 64; that depends only on (u, r).
    """
    targets = {d * s % 64 for s, flag in enumerate(_square_flags(64)) if flag}
    return tuple(
        tuple(r for r in range(64) if (a * u**4 + b * u * u * r * r + c * r**4) % 64 in targets)
        for u in range(64)
    )


def _quartic_rows(eq: QuarticEquation, bound: int, require_coprime: bool):
    """The sieved row kernel of a quartic scan over 0 <= y <= bound.

    Row x visits only the y whose residue mod 64 is admissible for
    x mod 64 (and, for coprime scans, not both even). A cell whose
    quotient lhs / d is not an integer, is negative or is a non-square
    mod 63, 65, 11 or 64 is dropped before the gcd; eval_quartic confirms
    the survivors exactly, and row x yields each with z >= 0.
    """
    a, b, c, d = eq.a, eq.b, eq.c, eq.d
    admissible = _admissible_residues(a, b, c, d)
    q64, q63, q65, q11 = (_square_flags(m) for m in (64, 63, 65, 11))
    y_squares = [y * y for y in range(bound + 1)]
    c_y_fourths = [c * s * s for s in y_squares]

    def row(x: int):
        x_squared = x * x
        a_x_fourth = a * x_squared * x_squared
        b_x_squared = b * x_squared
        for r in admissible[x % 64]:
            if r > bound:
                break
            if require_coprime and not (x | r) & 1:
                continue  # x and y both even
            for y in range(r, bound + 1, 64):
                lhs = a_x_fourth + b_x_squared * y_squares[y] + c_y_fourths[y]
                if lhs % d:
                    continue
                q = lhs // d
                if q < 0 or not (q63[q % 63] and q65[q % 65] and q11[q % 11] and q64[q & 63]):
                    continue
                if require_coprime and math.gcd(x, y) != 1:
                    continue
                for sol in eval_quartic(eq, x, y):
                    if sol.z >= 0:
                        yield sol.as_tuple(), _quartic_orbit_size(sol.x, sol.y, sol.z), sol.trivial

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
    workers = _scan_workers("quartic", bound, QUARTIC_BOUND_LIMIT, threads)
    return _search(
        eq.id, bound, _quartic_rows(eq, bound, require_coprime),
        require_coprime=require_coprime, include_trivial=include_trivial, workers=workers,
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
    x' = p*r, y' = q*s with p, q, r, s >= 1 pairwise coprime (the
    descent's Split stage). Then p^2 D = s^2 N for D = m q^2 - k r^2 and
    N = l q^2 - n r^2, so D = t s^2 and N = t p^2: D*N is a square, the
    quartic ml q^4 - (mn + kl) q^2 r^2 + kn r^4 = z^2. Row q runs that
    quartic's sieved coprime row kernel; a survivor with z > 0 gives
    t = sign(D) * gcd(D, N) and hence p and s, and one with D = N = 0
    leaves (p, s) free. The four points with x*y = 0 are tested directly.
    Coprimality is part of solution-hood here, so there is no coprimality
    option.
    """
    workers = _scan_workers("resolvent", bound, RESOLVENT_BOUND_LIMIT, threads)
    m, n, k, l = system.m, system.n, system.k, system.l
    resolvent_quartic = QuarticEquation(system.id, m * l, -(m * n + k * l), k * n, 1, 2)
    quartic_row = _quartic_rows(resolvent_quartic, bound, require_coprime=True)

    def row(q: int):
        if q == 0:
            for quad in _AXIS_QUADS:
                if check_resolvent(system, *quad):
                    yield quad, 4, True
        for (_, r, z), _, _ in quartic_row(q):
            if q * r == 0:
                continue
            d_value, n_value = m * q * q - k * r * r, l * q * q - n * r * r
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
        require_coprime=True, include_trivial=include_trivial, workers=workers,
    )


@dataclass(frozen=True)
class VerifyOutcome:
    """Verdict for one verify-table target."""

    target_id: str
    report: SearchReport
    verdict: str
    cross_checks: tuple[dict, ...] = ()

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
    try:
        if eq_id == "E2":
            reduction.forward_reduce_biquadratic(x, y, z)
        else:
            result, trace = reduction.sextic_to_resolvent(x, y, z)
            reduction.replay_trace(trace)
            lifted, lift_trace = reduction.resolvent_to_sextic(*result.as_tuple())
            reduction.replay_trace(lift_trace)
        actual = "ok"
    except TrivialInput:
        actual = "TrivialInput"
    except NotPrimitive:
        actual = "NotPrimitive"
    except StageFailure as failure:
        actual = f"StageFailure:{failure.stage}"
    return {"solution": [x, y, z], "expected": expected, "actual": actual, "ok": expected == actual}


def _quartic_outcome(eq: QuarticEquation, bound: int, threads: int) -> VerifyOutcome:
    # E2 and E4 are scanned once with trivial solutions listed: the
    # cross-checks need them, and the report drops them afterwards.
    checked = eq.id in ("E2", "E4")
    report = search_quartic(eq, bound, require_coprime=True, include_trivial=checked, threads=threads)
    cross_checks: tuple[dict, ...] = ()
    if checked:
        cross_checks = tuple(_cross_check(eq.id, *sol) for sol in report.solutions)
        nontrivial = tuple(sol for sol in report.solutions if not is_trivial(sol[0], sol[1]))
        report = replace(report, include_trivial=False, solutions=nontrivial)
    consistent = not report.solutions and all(check["ok"] for check in cross_checks)
    return VerifyOutcome(
        target_id=eq.id,
        report=report,
        verdict=VERDICT_CONSISTENT if consistent else VERDICT_COUNTEREXAMPLE,
        cross_checks=cross_checks,
    )


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
    workers = thread_count(threads)
    outcomes = [
        _quartic_outcome(entry.equation, quartic_bound, workers)
        for entry in list_catalog()
    ]
    for sys_id in ("R1", "R2"):
        report = search_resolvent(
            resolvent_by_id(sys_id), resolvent_bound, include_trivial=False, threads=workers
        )
        outcomes.append(
            VerifyOutcome(
                target_id=sys_id,
                report=report,
                verdict=VERDICT_CONSISTENT if not report.solutions else VERDICT_COUNTEREXAMPLE,
            )
        )
    return outcomes


def all_consistent(outcomes: list[VerifyOutcome]) -> bool:
    return all(outcome.verdict == VERDICT_CONSISTENT for outcome in outcomes)
