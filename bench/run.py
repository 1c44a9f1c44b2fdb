"""descent-forge benchmark: one workload, one run, one JSON result line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: table-quartic, table-resolvent, cli-burst (see
bench/README.md). The program is imported from ./src, never from an
installed copy. Every op's outcome is checked against bench/reference.json,
recorded from the seed commit; any mismatch, unexpected exception or wrong
exit status counts as failed and makes the command exit 1.

--trace 0 runs passes back to back for --seconds and reports the
end-to-end metrics; --trace 1 alternates untraced and traced passes and
reports the per-layer metrics and the tracing overhead. The last stdout
line is {"correct", "attempted", "failed", "metrics"}; the lines before
it name every metric with its unit. A result file with the machine and
load facts goes to bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
REFERENCE = BENCH / "reference.json"
RESULTS = BENCH / "results"

# Set-up samples taken before the passes and again after them, so the
# median spans the whole run rather than one moment of a shared host.
SETUP_REPEATS = 11
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import descent_forge; descent_forge.list_catalog()"
)
PROBE_TIMEOUT_S = 60

# Each workload's work_per_s under its own name, with the work item's unit.
NAMED_RATE = {
    "table-quartic": ("quartic_cells_per_s", "cells/s"),
    "table-resolvent": ("resolvent_pairs_per_s", "pairs/s"),
    "cli-burst": ("calls_per_s", "calls/s"),
}

# Per-layer metrics in these units (BENCHMARK.json) are work counts or
# ratios of them: exact, so taken from the first traced pass. The others
# are times or rates: medians over the traced passes.
COUNT_UNITS = frozenset({"count", "ratio", "bytes"})


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _import_program():
    """Import descent_forge from this checkout's src, or return None."""
    if not (SRC / "descent_forge" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import descent_forge

    if Path(descent_forge.__file__).resolve().parent != SRC / "descent_forge":
        return None
    return descent_forge


def machine_facts() -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_model": cpu_model,
    }


def host_probe_ms(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop.

    The load average does not see work outside this system, such as
    other guests on a shared host; a slow reading here shows it.
    """
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        samples.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(samples)


def _timed_probe(command: list[str]) -> float:
    """Wall time from spawning command to its exit.

    Waits on a pidfd: subprocess's own wait with a timeout polls with
    sleeps of up to 50 ms, which would quantise the reading.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(command)
    pidfd = os.pidfd_open(proc.pid)
    try:
        exited, _, _ = select.select([pidfd], [], [], PROBE_TIMEOUT_S)
        elapsed = time.perf_counter() - start
    finally:
        os.close(pidfd)
        if proc.poll() is None:
            proc.kill()
        status = proc.wait()
    if not exited or status != 0:
        raise RuntimeError(f"set-up probe failed (exit status {status}): {command}")
    return elapsed


def setup_samples() -> list[float]:
    """Wall times of fresh interpreters importing the package."""
    command = [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)]
    _timed_probe(command)  # writes the bytecode caches
    return [_timed_probe(command) for _ in range(SETUP_REPEATS)]


# -- passes ---------------------------------------------------------------------------


class Unexpected:
    """An exception the op's contract does not allow."""

    def __init__(self, exc: BaseException) -> None:
        self.text = "".join(traceback.format_exception_only(type(exc), exc)).strip()


def run_pass(ops, tracer=None) -> dict:
    latencies = []
    outcomes = []
    start = time.perf_counter()
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = index
        op_start = time.perf_counter()
        try:
            outcome = op.call()
        except Exception as exc:  # an op must never raise: record it as failed
            outcome = Unexpected(exc)
        latencies.append(time.perf_counter() - op_start)
        outcomes.append(outcome)
    wall = time.perf_counter() - start
    return {"ops": ops, "latencies": latencies, "outcomes": outcomes, "wall": wall}


def check_pass(record: dict, reference: dict, workloads) -> list[dict]:
    """Compare each outcome with the reference; return the failures."""
    failures = []
    for op, outcome in zip(record["ops"], record["outcomes"]):
        if isinstance(outcome, Unexpected):
            failures.append({"op": op.key, "why": "unexpected exception", "detail": outcome.text})
            continue
        if op.kind == "table":
            expected = reference["tables"].get(op.key)
            status, stdout = outcome
            got = {"exit": status, "stdout_sha256": workloads.sha256_text(stdout)}
        else:
            expected = reference["ops"].get(op.key)
            got = workloads.digest(outcome)
        if expected is None:
            failures.append({"op": op.key, "why": "no reference recorded"})
        elif got != expected:
            failures.append({"op": op.key, "why": "output differs from reference"})
    return failures


def _percentile_ms(latencies: list[float], share: int) -> float:
    """The share-th percentile (1..99), in ms, by statistics.quantiles."""
    if len(latencies) == 1:
        return latencies[0] * 1000.0
    return statistics.quantiles(latencies, n=100, method="inclusive")[share - 1] * 1000.0


def summarize(record: dict) -> dict:
    """What the metrics need from a checked pass.

    Only this is kept, so memory does not grow with the number of passes
    and peak RSS does not depend on how fast the host runs.
    """
    latencies = record["latencies"]
    kind_s: dict[str, float] = {}
    for op, latency in zip(record["ops"], latencies):
        kind_s[op.kind] = kind_s.get(op.kind, 0.0) + latency
    return {
        "wall": record["wall"],
        "ops": len(latencies),
        # Work items ÷ the time of the ops that carry them.
        "work_per_s": sum(op.work for op in record["ops"]) / sum(latencies),
        "call_p50_ms": _percentile_ms(latencies, 50),
        "call_p95_ms": _percentile_ms(latencies, 95),
        "kind_s": kind_s,
        "stdout_bytes": stdout_bytes(record),
    }


def end_to_end(passes: list[dict]) -> dict:
    out = {name: statistics.median(p[name] for p in passes) for name in ("work_per_s", "call_p50_ms", "call_p95_ms")}
    out["wall_s"] = statistics.median(p["wall"] for p in passes)
    return out


def time_share_by_kind(passes: list[dict]) -> dict[str, float]:
    """Share of the passes' op time each kind of op took."""
    totals: dict[str, float] = {}
    for summary in passes:
        for kind, seconds in summary["kind_s"].items():
            totals[kind] = totals.get(kind, 0.0) + seconds
    whole = sum(totals.values())
    return {kind: round(seconds / whole, 4) for kind, seconds in sorted(totals.items())}


def run_passes(workload, seed, seconds, toy, reference, workloads, traced: bool):
    """Passes until the next one would overrun --seconds (at least one).

    Traced runs alternate an untraced and a traced pass on the same ops.
    Returns (untraced pass summaries, traced (summary, tracer) pairs,
    failures, attempted).
    """
    from tracer import Tracer

    # Warm-up on toy-sized input so lazy set-up is not timed.
    run_pass(workloads.pass_ops(workload, seed, -1, toy=True))
    plain, traced_records, failures = [], [], []
    attempted = 0
    start = time.perf_counter()
    index = 0
    while True:
        record = run_pass(workloads.pass_ops(workload, seed, index, toy))
        attempted += len(record["ops"])
        failures += check_pass(record, reference, workloads)
        plain.append(summarize(record))
        last = record["wall"]
        if traced:
            tracer = Tracer()
            with tracer:
                record = run_pass(workloads.pass_ops(workload, seed, index, toy), tracer)
            attempted += len(record["ops"])
            failures += check_pass(record, reference, workloads)
            traced_records.append((summarize(record), tracer))
            last += record["wall"]
        index += 1
        if time.perf_counter() - start + last > seconds:
            return plain, traced_records, failures, attempted


# -- per-layer metrics -------------------------------------------------------------------


def layer_metrics(record: dict, tracer, workloads) -> dict:
    spans = tracer.spans
    by_layer: dict[str, list[dict]] = {}
    for span in spans:
        by_layer.setdefault(span["name"], []).append(span)

    def calls(layer):
        return len(by_layer.get(layer, ()))

    def self_s(layer):
        return sum(span["self_s"] for span in by_layer.get(layer, ()))

    def wall(layer):
        return sum(span["end"] - span["start"] for span in by_layer.get(layer, ()))

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    out: dict[str, float] = {}
    quartic = by_layer.get("search.quartic", [])
    seen, rescans = set(), 0
    for span in quartic:
        key = (span["op"], span["facts"]["target"], span["facts"]["bound"])
        rescans += key in seen
        seen.add(key)
    cells = sum(workloads.quartic_cells(span["facts"]["bound"]) for span in quartic)
    out["search.quartic.calls"] = len(quartic)
    out["search.quartic.self_s"] = self_s("search.quartic")
    out["search.quartic.cells"] = cells
    out["search.quartic.cells_per_s"] = rate(cells, wall("search.quartic"))
    out["search.quartic.rescan_ratio"] = rate(rescans, len(quartic))

    counted = tracer.counted_totals()
    calls_eq, hits_eq, self_eq = counted["equations.eval_quartic"]
    out["equations.eval_quartic.calls"] = calls_eq
    out["equations.eval_quartic.self_s"] = self_eq
    out["equations.eval_quartic.hits"] = hits_eq
    calls_sq, squares, self_sq = counted["core_arith.isqrt_exact"]
    out["core_arith.isqrt_exact.calls"] = calls_sq
    out["core_arith.isqrt_exact.self_s"] = self_sq
    out["core_arith.isqrt_exact.square_ratio"] = rate(squares, calls_sq)

    resolvent = by_layer.get("search.resolvent", [])
    work = [workloads.resolvent_work(span["facts"]["bound"]) for span in resolvent]
    candidates = sum(w["divisor_candidates"] for w in work)
    pairs = sum(w["pairs"] for w in work)
    out["search.resolvent.calls"] = len(resolvent)
    out["search.resolvent.self_s"] = self_s("search.resolvent")
    out["search.resolvent.pairs"] = pairs
    out["search.resolvent.coprime_pairs"] = sum(w["coprime_pairs"] for w in work)
    out["search.resolvent.pairs_per_s"] = rate(pairs, wall("search.resolvent"))
    out["search.resolvent.divisor_candidates"] = candidates
    out["search.resolvent.hit_ratio"] = rate(
        sum(span["facts"]["nontrivial"] for span in resolvent), candidates
    )

    searches = quartic + resolvent
    out["search.verify_table.calls"] = calls("search.verify_table")
    out["search.verify_table.self_s"] = self_s("search.verify_table")
    out["search.partitions"] = sum(span["facts"]["partitions"] for span in searches)
    out["search.workers"] = max((span["facts"]["threads"] or 1 for span in searches), default=0)

    residue = by_layer.get("descent.residue", [])
    classes = sum(workloads.residue_classes(span["facts"]["modulus"]) for span in residue)
    out["descent.residue.calls"] = len(residue)
    out["descent.residue.self_s"] = self_s("descent.residue")
    out["descent.residue.classes"] = classes
    out["descent.residue.classes_per_s"] = rate(classes, wall("descent.residue"))

    for layer in (
        "descent.chain", "descent.stage", "core_arith.nu", "core_arith.coprime_split",
        "core_arith.pythagorean_decompose", "reduction.map", "reduction.replay", "cli.main",
    ):
        out[f"{layer}.calls"] = calls(layer)
        out[f"{layer}.self_s"] = self_s(layer)
    out["descent.stage.failures"] = sum(
        1 for span in by_layer.get("descent.stage", ()) if span["facts"].get("stage_failure")
    )
    out["reduction.replay.steps"] = sum(
        span["facts"]["steps"] for span in by_layer.get("reduction.replay", ())
    )
    out["cli.stdout_bytes"] = record["stdout_bytes"]
    out["trace.spans"] = len(spans)
    return out


def stdout_bytes(record: dict) -> int:
    """Bytes the CLI wrote to stdout over the pass."""
    return sum(
        len(outcome[1].encode())
        for op, outcome in zip(record["ops"], record["outcomes"])
        if (op.kind == "table" or op.kind.startswith("cli:")) and isinstance(outcome, tuple)
    )


# -- main ----------------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="toy input sizes (self-check)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if _import_program() is None:
        return _fail(f"no descent_forge package under {SRC}")
    if not REFERENCE.is_file():
        return _fail(f"missing reference outputs {REFERENCE}")
    if not SPEC.is_file():
        return _fail(f"missing {SPEC}")
    sys.path.insert(0, str(BENCH))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    # Worker counts come from the workload's own arguments only.
    os.environ.pop("DESCENT_FORGE_THREADS", None)
    reference = json.loads(REFERENCE.read_text())
    spec = json.loads(SPEC.read_text())

    facts = machine_facts()
    load_before = os.getloadavg()
    probe_before = host_probe_ms()
    setup = [] if args.trace else setup_samples()

    plain, traced, failures, attempted = run_passes(
        args.workload, args.seed, args.seconds, args.toy, reference, workloads, bool(args.trace)
    )
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not args.trace:
        setup += setup_samples()
    load_after = os.getloadavg()
    probe_after = host_probe_ms()

    e2e = end_to_end(plain)
    stem = RESULTS / f"{args.workload}_seed{args.seed}_trace{args.trace}_{time.strftime('%Y%m%dT%H%M%S')}_{os.getpid()}"
    RESULTS.mkdir(exist_ok=True)
    if args.trace:
        per_pass = [layer_metrics(rec, tracer, workloads) for rec, tracer in traced]
        for metrics, (rec, _), plain_rec in zip(per_pass, traced, plain):
            metrics["trace.overhead"] = rec["wall"] / plain_rec["wall"]
        metrics = {
            m["name"]: {
                "value": per_pass[0][m["name"]]
                if m["unit"] in COUNT_UNITS
                else statistics.median(p[m["name"]] for p in per_pass),
                "unit": m["unit"],
            }
            for m in spec["per_layer"]
        }
        spans_file = _write_spans(stem.with_name(stem.name + "_spans.jsonl"), traced)
    else:
        values = dict(e2e, setup_s=statistics.median(setup), peak_rss_mib=peak_rss_mib)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
        spans_file = None

    rate_name, rate_unit = NAMED_RATE[args.workload]
    named = {
        rate_name: {"value": e2e["work_per_s"], "unit": rate_unit},
        "call_p95_ms": {"value": e2e["call_p95_ms"], "unit": "ms"},
        "failed_ratio": {"value": len(failures) / attempted, "unit": "failed/attempted"},
    }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "toy": args.toy,
        "machine": facts,
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "host_probe_ms_before": probe_before,
        "host_probe_ms_after": probe_after,
        "setup_samples_s": setup,
        "passes": len(plain),
        "ops_per_pass": [p["ops"] for p in plain],
        "pass_wall_s": [r["wall"] for r in plain],
        "traced_pass_wall_s": [rec["wall"] for rec, _ in traced],
        "time_share_by_kind": time_share_by_kind(plain),
        "named_metrics": named,
        "failures": failures[:50],
        "spans_file": spans_file,
        "result": result,
    }
    result_file = stem.with_suffix(".json")
    result_file.write_text(json.dumps(details, indent=1) + "\n")

    for name, entry in list(metrics.items()) + ([] if args.trace else list(named.items())):
        print(f"{name:<40} {entry['value']:>16.6g} {entry['unit']}")
    print(
        f"{'samples':<40} {len(plain)} passes x {statistics.median(p['ops'] for p in plain):g} calls;"
        f" loadavg {load_before[0]:.2f} -> {load_after[0]:.2f};"
        f" host probe {probe_before:.1f} -> {probe_after:.1f} ms; details {result_file.relative_to(ROOT)}"
    )
    shares = ", ".join(f"{kind} {share:.0%}" for kind, share in details["time_share_by_kind"].items())
    print(f"{'time share by op kind':<40} {shares}")
    print(json.dumps(result))
    return 0 if not failures else 1


def _write_spans(path: Path, traced) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        for pass_index, (_, tracer) in enumerate(traced):
            for span in tracer.spans:
                handle.write(json.dumps(dict(span, passno=pass_index)) + "\n")
    return str(path.relative_to(ROOT))


if __name__ == "__main__":
    sys.exit(main())
