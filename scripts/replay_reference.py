"""Replay every benchmark op against bench/reference.json; exit 1 on any mismatch.

Usage, from the root of a checkout:

    python3 scripts/replay_reference.py

Runs every op the cli-burst generator can draw (bench/workloads.py's
burst_domain) and the verify-table run of each table workload at its
full and toy sizes, through bench/run.py's run_pass and check_pass, so
the program's output bytes are checked against the reference the
benchmark records. Takes a few seconds.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    # Worker counts come from each op's own arguments, as in bench/run.py.
    os.environ.pop("DESCENT_FORGE_THREADS", None)
    reference = json.loads(run.REFERENCE.read_text())
    ops = workloads.burst_domain()
    for tables in (workloads.TABLES, workloads.TOY_TABLES):
        for name, spec in tables.items():
            ops += workloads.table_pass(name, spec)
    failures = run.check_pass(run.run_pass(ops), reference, workloads)
    for failure in failures:
        print(json.dumps(failure), file=sys.stderr)
    print(f"{len(ops)} ops replayed against {run.REFERENCE.name}: {len(failures)} mismatches")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
