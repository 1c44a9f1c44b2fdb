"""Record bench/reference.json: the expected outcome of every benchmark op.

Run from the root of a checkout of the commit whose outputs are the
reference (the benchmark was defined against the seed commit's):

    python3 bench/record_reference.py

Tables are pinned by the sha256 of verify-table's stdout plus its exit
status; every other op by the sha256 of its canonical outcome. Every op
the cli-burst generator can draw is recorded, so any seed is
checked. A change that keeps output bytes must leave this file as it is.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads  # noqa: E402


def main() -> int:
    tables = {}
    for spec in list(workloads.TABLES.values()) + list(workloads.TOY_TABLES.values()):
        status, stdout = workloads.run_cli(workloads.table_argv(spec))
        tables[workloads.table_key(spec)] = {"exit": status, "stdout_sha256": workloads.sha256_text(stdout)}
    ops = {}
    for op in workloads.burst_domain():
        ops[op.key] = workloads.digest(op.call())
    path = BENCH / "reference.json"
    path.write_text(json.dumps({"tables": tables, "ops": ops}, indent=0, sort_keys=True) + "\n")
    print(f"{len(tables)} tables and {len(ops)} ops written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
