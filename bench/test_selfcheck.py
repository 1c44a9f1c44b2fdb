"""Self-check of the benchmark at toy sizes.

Run from the root of a checkout: python3 -m pytest bench -q

It is kept out of the package's test suite so wall-clock noise cannot
fail it. It checks that every workload runs and passes its output check,
that the computed work counts equal their formulas and the program's
own numbers, that traced counts repeat exactly and do not depend on the
worker count, and that the result line and BENCHMARK.json agree.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

from descent_forge import descent  # noqa: E402
from descent_forge.equations import R1  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads((BENCH / "reference.json").read_text())
COUNT_METRICS = [m["name"] for m in SPEC["per_layer"] if m["unit"] in run.COUNT_UNITS]


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_and_result_line_holds(workload, trace):
    done = _bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace, "--toy")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))
    if trace == "0":
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    details = json.loads((ROOT / done.stdout.rsplit("details ", 1)[1].splitlines()[0]).read_text())
    assert {"nproc", "python", "cpu_model"} <= set(details["machine"])
    assert len(details["loadavg_before"]) == 3 and len(details["loadavg_after"]) == 3


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = _bench("--workload", "cli-burst", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_reference_covers_every_drawable_op():
    keys = {op.key for op in workloads.burst_domain()}
    assert keys <= set(REFERENCE["ops"])
    for spec in list(workloads.TABLES.values()) + list(workloads.TOY_TABLES.values()):
        assert workloads.table_key(spec) in REFERENCE["tables"]
    rng = random.Random(0)
    assert {op.key for op in workloads.burst_pass(rng)} <= keys


def test_changed_output_counts_as_failed():
    ops = workloads.table_pass("table-resolvent", workloads.TOY_TABLES["table-resolvent"])
    record = run.run_pass(ops)
    assert run.check_pass(record, REFERENCE, workloads) == []
    status, stdout = record["outcomes"][0]
    record["outcomes"] = [(status, stdout.replace("CONSISTENT", "CONSISTENT "))]
    assert len(run.check_pass(record, REFERENCE, workloads)) == 1
    record["outcomes"] = [(2, stdout)]
    assert len(run.check_pass(record, REFERENCE, workloads)) == 1


def _unitary_pairs_brute(n: int) -> int:
    return sum(1 for d in range(1, n + 1) if n % d == 0 and math.gcd(d, n // d) == 1)


def test_computed_counts_equal_their_formulas():
    bound = 30
    work = workloads.resolvent_work(bound)
    pairs = [(x, y) for x in range(bound + 1) for y in range(bound + 1)]
    coprime = [(x, y) for x, y in pairs if math.gcd(x, y) == 1]
    assert work["pairs"] == len(pairs) == workloads.quartic_cells(bound)
    assert work["coprime_pairs"] == len(coprime)
    assert work["divisor_candidates"] == sum(_unitary_pairs_brute(x * y) for x, y in coprime if x * y)
    for modulus in range(2, 40):
        report = descent.residue_obstruction(R1, modulus)
        assert report.analysis_modulus == workloads.analysis_modulus(modulus)
        assert workloads.residue_classes(modulus) == 2 * report.analysis_modulus**2


def _traced_counts(ops, reference_ops=None) -> dict:
    """Count metrics of one traced pass, after checking its outputs.

    reference_ops: check against the reference of these ops instead (for
    a variant whose output must equal theirs but has no entry of its own).
    """
    tracer = Tracer()
    with tracer:
        record = run.run_pass(ops, tracer)
    record["stdout_bytes"] = run.stdout_bytes(record)
    checked = dict(record, ops=reference_ops) if reference_ops else record
    assert run.check_pass(checked, REFERENCE, workloads) == []
    metrics = run.layer_metrics(record, tracer, workloads)
    return {name: metrics[name] for name in COUNT_METRICS}


def test_traced_counts_repeat_and_ignore_worker_count():
    spec = dict(workloads.TOY_TABLES["table-quartic"])
    one = _traced_counts(workloads.table_pass("table-quartic", spec))
    assert one == _traced_counts(workloads.table_pass("table-quartic", spec))
    two = _traced_counts(
        workloads.table_pass("table-quartic", dict(spec, threads=2)),
        workloads.table_pass("table-quartic", spec),
    )
    assert two.pop("search.workers") == 2 and one.pop("search.workers") == 1
    assert one == two
    # Work counts come from the scans' own arguments, whatever the program does.
    bound, resolvent_bound = spec["bound"], spec["resolvent_bound"]
    assert two["search.quartic.cells"] == two["search.quartic.calls"] * workloads.quartic_cells(bound)
    assert two["search.resolvent.pairs"] == 2 * workloads.quartic_cells(resolvent_bound)
    assert two["search.resolvent.divisor_candidates"] == 2 * workloads.resolvent_work(resolvent_bound)[
        "divisor_candidates"
    ]


def test_traced_run_leaves_the_program_unwrapped():
    import descent_forge
    from descent_forge import equations, search

    before = (search.eval_quartic, equations.isqrt_exact, search.search_quartic, descent_forge.nu)
    with Tracer():
        assert search.eval_quartic is not before[0]
    assert (search.eval_quartic, equations.isqrt_exact, search.search_quartic, descent_forge.nu) == before


def test_seeded_counts_repeat():
    first = _traced_counts(workloads.pass_ops("cli-burst", 11, 0, toy=True))
    assert first == _traced_counts(workloads.pass_ops("cli-burst", 11, 0, toy=True))
    for layer in ("cli.main", "search.quartic", "descent.residue", "descent.stage", "core_arith.nu"):
        assert first[f"{layer}.calls"] > 0, layer
