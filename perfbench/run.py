"""cayleyball benchmark: run one workload for a fixed time and report metrics.

    python3 perfbench/run.py --workload free-r3 --seed 1 --seconds 33 --trace 0

Run from the root of a source checkout.  A run is a closed loop with one
client: analyses run one after another, each in a fresh single-threaded
process (``worker.py``), until the next one would end past ``--seconds``;
there is always at least one.  Every result of every analysis goes through
the correctness gate (``gate.py``).

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``: medians
over the run's analyses.  ``analysis_s`` and ``setup_s`` are wall times
scaled to a reference machine speed that a probe loop measures throughout
each analysis (``worker.SpeedProbe``); the unscaled medians are printed
too.  ``--trace 1`` alternates untraced and traced analyses and reports the
per-layer metrics: medians over the traced ones (span times unscaled), the
tracing overhead (traced minus untraced median ``analysis_s``) and the
median probe loop time as ``machine.calib_s``.  The last line of standard
output is one JSON object; a fuller record, with provenance and every
analysis, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gate import check, load_reference
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

# The whole run, start-up included, must end within 180 s.
RUN_LIMIT_S = 170.0


def run_worker(workload, seed, trace, trace_out, timeout):
    """One analysis in a fresh single-threaded process; ``(record, wall_s)``.

    The record is ``None`` when the process failed, timed out or printed no
    result; its results then all count as failed.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(int(trace)),
    ]
    if trace:
        cmd += ["--trace-out", str(trace_out)]
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"analysis timed out after {timeout:.0f} s", file=sys.stderr)
        return None, time.perf_counter() - started
    wall = time.perf_counter() - started
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"analysis process exited with code {proc.returncode}", file=sys.stderr)
        return None, wall
    return json.loads(lines[-1]), wall


def median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    begun = time.perf_counter()

    if not (ROOT / "src" / "cayleyball" / "__init__.py").is_file():
        print(f"error: no cayleyball sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload]
    reference = load_reference()[args.workload]
    trace = bool(args.trace)
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    analyses = []
    while True:
        traced = trace and len(analyses) % 2 == 1
        trace_out = OUT_DIR / f"{tag}-spans{len(analyses)}.npz"
        timeout = RUN_LIMIT_S - (time.perf_counter() - begun)
        record, wall = run_worker(args.workload, args.seed, traced, trace_out, timeout)
        results = record["results"] if record is not None else {}
        failures = check(results, reference, workload.sampled, workload.free_group)
        for key, reason in failures.items():
            print(f"FAILED {key}: {reason}", file=sys.stderr)
        if record is not None and record["error"]:
            print(f"analysis raised: {record['error']}", file=sys.stderr)
        analyses.append({
            "traced": traced, "wall_s": wall, "record": record, "failures": failures,
            "attempted": len(set(reference) | set(results)),
            "exact": sum(1 for _, bound in results.values() if bound == "exact"),
        })
        if record is None:
            break
        elapsed = time.perf_counter() - begun
        mean_wall = statistics.fmean(a["wall_s"] for a in analyses)
        both_kinds = not trace or any(a["traced"] for a in analyses)
        if both_kinds and elapsed + mean_wall > args.seconds:
            break

    attempted = sum(a["attempted"] for a in analyses)
    failed = sum(len(a["failures"]) for a in analyses)
    exact = sum(a["exact"] for a in analyses)
    plain = [a["record"] for a in analyses if a["record"] is not None and not a["traced"]]
    traced_records = [a["record"] for a in analyses if a["record"] is not None and a["traced"]]

    values = {
        "analysis_s": median([r["analysis_s"] for r in plain]),
        "setup_s": median([r["setup_s"] for r in plain]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
        "correct_ratio": (attempted - failed) / attempted,
        "inexact_ratio": (attempted - exact) / attempted,
    }
    if trace:
        # The low median keeps counts whole.  Without a successful traced
        # analysis the layer metrics read 0 (and correct is false).
        for m in spec["per_layer"]:
            layer = [r["layers"][m["name"]] for r in traced_records if m["name"] in r["layers"]]
            values[m["name"]] = statistics.median_low(layer) if layer else 0
        values["machine.calib_s"] = median([r["probe_s"] for r in plain + traced_records])
        values["trace.overhead_s"] = (
            median([r["analysis_s"] for r in traced_records]) - values["analysis_s"]
        )
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    provenance = next((a["record"]["provenance"] for a in analyses if a["record"]), {})
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"analyses {len(plain)} untraced + {len(traced_records)} traced  "
          f"in {time.perf_counter() - begun:.1f} s")
    print("provenance " + " ".join(f"{k}={v}" for k, v in provenance.items()))
    for m in spec["end_to_end"]:
        print(f"  {m['name']:<16}{values[m['name']]:>14.6f} {m['unit']}")
    for name in ("analysis_wall_s", "setup_wall_s"):
        print(f"  {name:<16}{median([r[name] for r in plain]):>14.6f} s (unscaled)")
    verdict = "correct" if failed == 0 else "INCORRECT"
    print(f"verdict {verdict}: {failed} of {attempted} results failed the gate")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "provenance": provenance, "metrics": values, "attempted": attempted, "failed": failed,
        "analyses": analyses,
    }
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
