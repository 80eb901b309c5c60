"""Correctness gate: compare one analysis's results with the reference table.

``reference.json`` holds ``[value_doubled, bound]`` for every workload,
radius, selector and invariant, recorded by ``record_reference.py``.  For a
sampled workload the entry is the exhaustive value at the same radius.

Rules, per result:

* an exhaustive result whose reference is ``exact`` must equal it (a lower
  bound cannot sit above an exact value, and it may not fall below it);
* an exhaustive result whose reference is ``lower`` may rise, never fall,
  and may become ``exact`` only at or above its reference;
* a sampled result is labelled ``lower`` and does not exceed the exhaustive
  value: sampled tuples are a subset of the exhaustive ones under the same
  geodesic cap, so this holds for every seed;
* on a free group every value is 0.

A reference entry with no result (the analysis raised, or lost a selector)
fails too.
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def result_key(r_in, selector, invariant) -> str:
    return f"{r_in}/{selector}/{invariant}"


def report_results(report: dict) -> dict:
    """``{key: [value_doubled, bound]}`` from a report dict (as emitted as JSON)."""
    out = {}
    for run in report["runs"]:
        for res in run["results"]:
            out[result_key(run["r_in"], res["selector"], res["invariant"])] = [
                res["value_doubled"], res["bound"],
            ]
    return out


def load_reference(path=REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["workloads"]


def check(results: dict, reference: dict, sampled: bool, free_group: bool) -> dict:
    """``{key: reason}`` for every failed result; an empty dict means all passed."""
    failures = {}
    for key in sorted(set(reference) | set(results)):
        if key not in reference:
            failures[key] = "result has no reference entry"
            continue
        if key not in results:
            failures[key] = "no result (the analysis raised or skipped it)"
            continue
        value, bound = results[key]
        ref_value, ref_bound = reference[key]
        if bound not in ("exact", "lower"):
            failures[key] = f"unknown bound label {bound!r}"
        elif free_group and value != 0:
            failures[key] = f"free group value {value} is not 0"
        elif sampled:
            if bound != "lower":
                failures[key] = "sampled result labelled exact"
            elif value > ref_value:
                failures[key] = f"sampled value {value} exceeds exhaustive value {ref_value}"
        elif ref_bound == "exact" and value != ref_value:
            failures[key] = f"value {value} differs from exact reference {ref_value}"
        elif ref_bound == "lower" and value < ref_value:
            failures[key] = f"{bound} value {value} fell below reference lower bound {ref_value}"
    return failures
