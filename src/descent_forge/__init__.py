"""Exact-arithmetic toolkit for a family of quartic Diophantine equations.

The package catalogs quartic equations that reduce to one of two quadratic
resolvent systems, implements the reduction and lifting maps with
machine-checkable traces, runs residue-class obstruction analysis and an
audited infinite-descent engine, and provides bounded exhaustive searches
with deterministic reports plus a CLI wrapping all of it.
"""

from __future__ import annotations

from .core_arith import (
    PythTriple,
    coprime_split,
    isqrt_exact,
    nu,
    pythagorean_compose,
    pythagorean_decompose,
)
from .descent import (
    DescentTerminal,
    DescentTrace,
    ObstructionReport,
    descent_chain,
    descent_step,
    nu_lower_bound,
    residue_obstruction,
)
from .equations import (
    R1,
    R2,
    CatalogEntry,
    QuarticEquation,
    QuarticSolution,
    ResolventSolution,
    ResolventSystem,
    check_resolvent,
    equation_by_id,
    eval_quartic,
    list_catalog,
    quartic_solution,
    resolvent_by_id,
    resolvent_solution,
)
from .errors import (
    BoundExceeded,
    DescentForgeError,
    InternalInvariantBroken,
    InvalidGenerators,
    NotASolution,
    NotATriple,
    NotPrimitive,
    ParityError,
    SplitPreconditionFailed,
    StageFailure,
    TrivialInput,
    UndefinedValuation,
    UnsupportedResolvent,
)
from .reduction import (
    ReductionTrace,
    TraceStep,
    backward_lift_biquadratic,
    forward_reduce_biquadratic,
    replay_trace,
    resolvent_to_sextic,
    sextic_to_resolvent,
)
from .search import (
    SearchReport,
    VerifyOutcome,
    all_consistent,
    search_quartic,
    search_resolvent,
    verify_table,
)

__version__ = "0.1.0"

__all__ = [
    "BoundExceeded",
    "CatalogEntry",
    "DescentForgeError",
    "DescentTerminal",
    "DescentTrace",
    "InternalInvariantBroken",
    "InvalidGenerators",
    "NotASolution",
    "NotATriple",
    "NotPrimitive",
    "ObstructionReport",
    "ParityError",
    "PythTriple",
    "QuarticEquation",
    "QuarticSolution",
    "R1",
    "R2",
    "ReductionTrace",
    "ResolventSolution",
    "ResolventSystem",
    "SearchReport",
    "SplitPreconditionFailed",
    "StageFailure",
    "TraceStep",
    "TrivialInput",
    "UndefinedValuation",
    "UnsupportedResolvent",
    "VerifyOutcome",
    "all_consistent",
    "backward_lift_biquadratic",
    "check_resolvent",
    "coprime_split",
    "descent_chain",
    "descent_step",
    "equation_by_id",
    "eval_quartic",
    "forward_reduce_biquadratic",
    "isqrt_exact",
    "list_catalog",
    "nu",
    "nu_lower_bound",
    "pythagorean_compose",
    "pythagorean_decompose",
    "quartic_solution",
    "replay_trace",
    "residue_obstruction",
    "resolvent_by_id",
    "resolvent_solution",
    "resolvent_to_sextic",
    "search_quartic",
    "search_resolvent",
    "sextic_to_resolvent",
    "verify_table",
]
