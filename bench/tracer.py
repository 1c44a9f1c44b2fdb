"""In-memory tracing of descent_forge's public functions, for the traced run.

Modules bind names at import (``search`` calls its own ``eval_quartic``,
``reduction`` its own ``isqrt_exact``), so ``install`` replaces a traced
function at every module attribute of the package that holds it, and
``remove`` puts the originals back. Nothing here is imported by the
program; the untraced run never installs a wrapper.

Two kinds of wrapper:

* spanned layers record one span per call: name, start and end, parent
  span, op id, self time and a few call facts (bound, modulus, ...).
* counted layers (the per-cell ``eval_quartic`` and ``isqrt_exact``,
  called millions of times) keep only per-thread call, hit and self-time
  totals.

Self time is a call's wall-clock duration minus the part its traced
children cover. Children are the traced calls nested in it on the same
thread, which run one after another, so their coverage is the sum of
their durations. Per-cell calls on search pool threads have no traced
parent on their own thread: at --threads 2 a search span's self time
includes the time it waits for its workers, at --threads 1 the scan runs
inline and the per-cell time is subtracted.
"""

from __future__ import annotations

import importlib
import inspect
import threading
import time

from descent_forge.errors import StageFailure

PACKAGE = "descent_forge"
MODULES = ("core_arith", "equations", "reduction", "descent", "search", "cli")

SPANNED = {
    "cli.main": (("cli", "main"),),
    "search.verify_table": (("search", "verify_table"),),
    "search.quartic": (("search", "search_quartic"),),
    "search.resolvent": (("search", "search_resolvent"),),
    "descent.residue": (("descent", "residue_obstruction"),),
    "descent.chain": (("descent", "descent_chain"),),
    "descent.stage": (
        ("descent", "split_stage"),
        ("descent", "sum_difference_stage"),
        ("descent", "inner_triples_stage"),
    ),
    "core_arith.nu": (("core_arith", "nu"),),
    "core_arith.coprime_split": (("core_arith", "coprime_split"),),
    "core_arith.pythagorean_decompose": (("core_arith", "pythagorean_decompose"),),
    "reduction.map": (
        ("reduction", "forward_reduce_biquadratic"),
        ("reduction", "backward_lift_biquadratic"),
        ("reduction", "sextic_to_resolvent"),
        ("reduction", "resolvent_to_sextic"),
    ),
    "reduction.replay": (("reduction", "replay_trace"),),
}

COUNTED = {
    "equations.eval_quartic": (("equations", "eval_quartic"), bool),
    "core_arith.isqrt_exact": (("core_arith", "isqrt_exact"), lambda root: root is not None),
}


class _ThreadState:
    """Per-thread accounting; only its own thread writes it."""

    def __init__(self) -> None:
        # Child time covered so far, one entry per open traced call; [0] is the root.
        self.stack: list[float] = [0.0]
        self.span_stack: list[int] = []
        self.counted: dict[str, list] = {}


class Tracer:
    """Holds spans and counters for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op_id = 0
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    # -- per-thread state -------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState()
            with self._lock:
                self._states.append(state)
            self._local.state = state
            return state

    # -- wrappers ---------------------------------------------------------

    def _spanned(self, layer: str, fn):
        signature = inspect.signature(fn)
        tracer = self

        def wrapper(*args, **kwargs):
            state = tracer._state()
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            parent = state.span_stack[-1] if state.span_stack else None
            index = len(tracer.spans)
            span = {
                "name": layer,
                "fn": fn.__name__,
                "op": tracer.op_id,
                "parent": parent,
                "thread": threading.current_thread().name,
            }
            tracer.spans.append(span)
            state.span_stack.append(index)
            state.stack.append(0.0)
            raised = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                raised = exc
                raise
            finally:
                end = time.perf_counter()
                child = state.stack.pop()
                state.span_stack.pop()
                state.stack[-1] += end - start
                span.update(start=start, end=end, self_s=end - start - child)
                span["facts"] = _facts(fn.__name__, bound.arguments, raised)
            span["facts"].update(_result_facts(fn.__name__, result))
            return result

        return wrapper

    def _counted(self, layer: str, fn, is_hit):
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            start = clock()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                child = stack.pop()
                stack[-1] += end - start
                totals = state.counted.get(layer)
                if totals is None:
                    totals = state.counted[layer] = [0, 0, 0.0]
                totals[0] += 1
                totals[2] += end - start - child
            if is_hit(result):
                totals[1] += 1
            return result

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}
        # Keyed by id: module attributes include unhashable values.
        wrappers = {}
        for layer, sites in SPANNED.items():
            for module_name, attr in sites:
                original = getattr(modules[module_name], attr)
                wrappers[id(original)] = self._spanned(layer, original)
        for layer, ((module_name, attr), is_hit) in COUNTED.items():
            original = getattr(modules[module_name], attr)
            wrappers[id(original)] = self._counted(layer, original, is_hit)
        for module in [importlib.import_module(PACKAGE), *modules.values()]:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def remove(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.remove()

    # -- results ----------------------------------------------------------

    def counted_totals(self) -> dict[str, tuple[int, int, float]]:
        """layer -> (calls, hits, self seconds), summed over threads."""
        out: dict[str, list] = {layer: [0, 0, 0.0] for layer in COUNTED}
        for state in self._states:
            for layer, (calls, hits, self_s) in state.counted.items():
                out[layer][0] += calls
                out[layer][1] += hits
                out[layer][2] += self_s
        return {layer: tuple(values) for layer, values in out.items()}


def _facts(fn_name: str, arguments: dict, raised: BaseException | None) -> dict:
    """Call facts the per-layer metrics need, read from the arguments."""
    facts: dict = {}
    if fn_name == "search_quartic":
        facts.update(target=arguments["eq"].id, bound=arguments["bound"], threads=arguments["threads"])
    elif fn_name == "search_resolvent":
        facts.update(target=arguments["system"].id, bound=arguments["bound"], threads=arguments["threads"])
    elif fn_name == "residue_obstruction":
        facts.update(modulus=arguments["modulus"])
    elif fn_name == "replay_trace":
        facts.update(steps=len(arguments["trace"].steps))
    if raised is not None:
        facts["raised"] = type(raised).__name__
        facts["stage_failure"] = isinstance(raised, StageFailure)
    return facts


def _result_facts(fn_name: str, result) -> dict:
    if fn_name in ("search_quartic", "search_resolvent"):
        # Nontrivial solutions (x*y != 0) are the divisor candidates that passed.
        nontrivial = sum(1 for solution in result.solutions if solution[0] * solution[1])
        return {"partitions": result.partitions, "nontrivial": nontrivial}
    return {}
