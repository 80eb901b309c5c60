"""Run one workload once, in this process, and print one JSON line.

    PYTHONPATH=src python3 perfbench/worker.py --workload grid-sweep --seed 1 --trace 0

``run.py`` starts one of these per analysis, so each analysis gets a fresh
process: ``ru_maxrss`` is a high-water mark and the ``DistanceMatrix``
caches live per process.  With ``--trace 1`` every layer boundary is wrapped
(see ``tracing.py``), the spans go to ``--trace-out`` and the line carries
the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import threading
import time
import traceback

import numpy as np
import scipy

from cayleyball import cli
from cayleyball.ball import BudgetExceededError
from cayleyball.invariants import InternalCheckError

from gate import report_results
from tracing import SETUP_SPANS, Tracer, installed, layer_probes, setup_probes, span_times
from workloads import WORKLOADS, Workload

INVARIANT_SPANS = ("four_point", "chain", "polygon", "bigons", "detour", "mesh")
PROBE_STEPS = 20_000
PROBE_INTERVAL_S = 0.05
# Nominal time of one probe loop; reported times are scaled to this speed.
PROBE_REFERENCE_S = 0.001


def _probe_loop() -> float:
    started = time.perf_counter()
    total = 0
    for i in range(PROBE_STEPS):
        total += i
    return time.perf_counter() - started


class SpeedProbe:
    """Times a fixed pure-Python loop (about 1 ms) every 50 ms while a block runs.

    The machine this runs on drifts between fast and slow phases (up to 2x,
    seconds to minutes long) that slow every kind of work alike.  A loop
    timed before the analysis misses the phases the analysis itself runs in;
    samples taken throughout it track them, so ``scale`` turns the block's
    wall time into time at the reference speed.  The side thread only takes
    the interpreter lock between samples; the analysis stays single-threaded.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(PROBE_INTERVAL_S):
            self.samples.append(_probe_loop())

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    @property
    def mean_s(self) -> float:
        return statistics.fmean(self.samples) if self.samples else PROBE_REFERENCE_S

    @property
    def scale(self) -> float:
        return PROBE_REFERENCE_S / self.mean_s


def provenance() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced analysis, named as in ``BENCHMARK.json``."""
    times = span_times(tracer.names, *tracer.arrays())

    def calls(name):
        return times.get(name, (0, 0.0, 0.0))[0]

    def inclusive(name):
        return times.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return times.get(name, (0, 0.0, 0.0))[2]

    c = tracer.counters
    enumerations = calls("geodesics.enumerate")
    out = {
        "groups.multiply_calls": c.get("groups.multiply_calls", 0),
        "ball.build_s": inclusive("ball.build"),
        "ball.vertices": c.get("ball.vertices", 0),
        "ball.distances_s": inclusive("ball.distances"),
        "ball.mid_rows_s": inclusive("ball.mid_rows"),
        "ball.mid_block_bytes": c.get("ball.mid_block_bytes", 0),
        "ball.row_calls": calls("ball.row"),
        "ball.row_s": inclusive("ball.row"),
        "geodesics.paths": c.get("geodesics.paths", 0),
        "geodesics.cap_hit_ratio": c.get("geodesics.cap_hits", 0) / enumerations if enumerations else 0.0,
        "cli.emit_s": inclusive("cli.emit"),
    }
    for layer in ("interval", "enumerate", "avoidance", "avoidance_block"):
        out[f"geodesics.{layer}_calls"] = calls(f"geodesics.{layer}")
        out[f"geodesics.{layer}_s"] = inclusive(f"geodesics.{layer}")
    for inv in INVARIANT_SPANS:
        out[f"invariants.{inv}_s"] = inclusive(f"invariants.{inv}")
        out[f"invariants.{inv}.self_s"] = own(f"invariants.{inv}")
    return out


def measure(workload: Workload, seed: int, trace: bool, trace_out=None) -> dict:
    """One analysis through ``cli.run_analysis`` and ``cli.emit_report``.

    The analysis runs from the group parse through report emission;
    interpreter and import start-up are outside it.  ``analysis_wall_s`` and
    ``setup_wall_s`` are wall times; ``analysis_s`` and ``setup_s`` are the
    same scaled by :class:`SpeedProbe` (the probe's own time is taken out of
    the analysis first).  Any exception ends the analysis and is reported
    under ``error``; the gate then counts every missing result as failed.
    """
    tracer = Tracer()
    probes = layer_probes() if trace else setup_probes()
    text, error = None, None
    gc.collect()
    with installed(tracer, probes), SpeedProbe() as speed:
        started = time.perf_counter()
        try:
            with tracer.span("cli.analysis"):
                config = cli.AnalysisConfig(**workload.config_kwargs(seed))
                report = cli.run_analysis(config)
                text = cli.emit_report(report, "json")
        except BudgetExceededError as exc:
            error = f"budget exceeded (CLI exit 3): {exc}"
        except (InternalCheckError, AssertionError) as exc:
            error = f"internal check failed (CLI exit 4): {exc}"
        except Exception as exc:  # the boundary: report and let the gate count it
            traceback.print_exc()
            error = f"{type(exc).__name__}: {exc}"
        analysis_s = time.perf_counter() - started

    times = span_times(tracer.names, *tracer.arrays())
    setup_wall_s = sum(times[name][1] for name in SETUP_SPANS if name in times)
    out = {
        "analysis_s": (analysis_s - sum(speed.samples)) * speed.scale,
        "setup_s": setup_wall_s * speed.scale,
        "analysis_wall_s": analysis_s,
        "setup_wall_s": setup_wall_s,
        "probe_s": speed.mean_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "results": report_results(json.loads(text)) if text is not None else {},
        "error": error,
        "provenance": provenance(),
    }
    if trace:
        out["layers"] = layer_metrics(tracer)
        out["trace_id"] = tracer.trace_id
        out["spans"] = len(tracer.name_of)
        if trace_out is not None:
            tracer.save(trace_out)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", help="write the spans here (.npz) when tracing")
    args = parser.parse_args(argv)
    out = measure(WORKLOADS[args.workload], args.seed, bool(args.trace), args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
