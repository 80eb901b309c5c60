"""Record the correctness gate's reference table, ``perfbench/reference.json``.

    PYTHONPATH=src python3 perfbench/record_reference.py

Runs every workload once, exhaustively (a sampled workload without its
sampling), and stores ``[value_doubled, bound]`` per radius, selector and
invariant.  The exhaustive polygon scan of ``vfree-sampled`` (R9) holds a
3578 x 81914 distance block and peaks near 1 GB.  Re-record only at a commit
whose values are trusted: the gate exists to catch a change in them.
"""

from __future__ import annotations

import dataclasses
import json
import sys

from gate import REFERENCE_PATH
from worker import measure, provenance
from workloads import WORKLOADS


def main() -> int:
    table = {}
    for name, workload in WORKLOADS.items():
        record = measure(dataclasses.replace(workload, samples=None), seed=0, trace=False)
        if record["error"]:
            print(f"{name}: {record['error']}", file=sys.stderr)
            return 1
        table[name] = dict(sorted(record["results"].items()))
        print(f"{name}: {len(table[name])} results in {record['analysis_s']:.1f} s", file=sys.stderr)
    payload = {"recorded_with": provenance(), "mode": "exhaustive", "workloads": table}
    REFERENCE_PATH.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
