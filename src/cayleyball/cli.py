"""Command-line entry point: experiment presets, sweeps, and report emission.

Reports are deterministic: rerunning the same configuration reproduces the
canonical JSON byte for byte, except for the ``wall_time_ms`` fields.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field

from . import __version__
from .ball import _DEFAULT_BUDGET, BudgetExceededError, all_pairs_distances, build_ball
from .groups import InternalCheckError, SpecParseError, WordError, parse_group_spec
from .invariants import (
    SamplingPlan,
    bigon_constants,
    chain_defect,
    detour_epsilon,
    four_point_delta,
    h2_center_distance,
    mesh_estimate,
    polygon_delta,
    rips_delta,
    subgroup_quasiconvexity,
)

_DEFAULT_INVARIANTS = [
    "four_point", "chain", "rips", "polygon:1", "polygon:2", "polygon:3",
    "bigons", "detour", "mesh:geodesic",
]


@dataclass
class AnalysisConfig:
    """A fully validated run description; parsing happens before any work."""

    group: str
    radii: list[int]
    generators: list[str] | None = None
    invariants: list[str] = field(default_factory=lambda: list(_DEFAULT_INVARIANTS))
    samples: int | None = None  # None -> exhaustive
    seed: int = 0
    geodesic_cap: int | None = SamplingPlan.geodesic_cap
    budget: int = _DEFAULT_BUDGET
    subgroup: list[str] | None = None

    def __post_init__(self):
        self.spec = parse_group_spec(self.group)
        if self.generators is not None:
            for w in self.generators:
                self.spec.parse_word(w)
        if self.subgroup is not None:
            if not self.subgroup:
                raise ValueError("--subgroup lists no generator word")
            for w in self.subgroup:
                self.spec.parse_word(w)
        if not self.radii or any(r < 1 for r in self.radii):
            raise ValueError("radii must be positive")
        if self.samples is not None and self.samples < 1:
            raise ValueError("sample count must be positive")
        if self.budget < 1:
            raise ValueError("vertex budget must be positive")
        self.plan()  # rejects a bad geodesic cap
        self.tasks = [_parse_invariant(s, self) for s in self.invariants]

    def plan(self):
        if self.samples is None:
            return SamplingPlan.exhaustive(geodesic_cap=self.geodesic_cap)
        return SamplingPlan.random(self.samples, self.seed, geodesic_cap=self.geodesic_cap)

    def describe(self):
        return asdict(self)


def _parse_invariant(text, config):
    """Turn an invariant selector like ``polygon:3`` into a runnable task."""
    parts = text.split(":")
    name, args = parts[0], parts[1:]

    if name == "four_point" and not args:
        return text, lambda ball, dist, plan: [four_point_delta(dist, plan)]
    if name == "chain" and not args:
        return text, lambda ball, dist, plan: [chain_defect(dist)]
    if name == "rips" and not args:
        return text, lambda ball, dist, plan: [rips_delta(ball, dist, plan)]
    if name == "polygon" and len(args) == 1:
        n = int(args[0]) if args[0].isdecimal() else 0
        if n < 1:
            raise ValueError("polygon wants a positive size like polygon:3, got %r" % text)
        return text, lambda ball, dist, plan: [polygon_delta(ball, dist, n, plan)]
    if name == "bigons" and not args:
        return text, lambda ball, dist, plan: list(bigon_constants(ball, dist, plan))
    if name == "detour" and not args:
        return text, lambda ball, dist, plan: [detour_epsilon(ball, dist, plan)]
    if name == "mesh" and len(args) <= 1:
        mode = args[0] if args else "geodesic"
        if mode not in ("geodesic", "adversarial"):
            raise ValueError(f"unknown mesh mode {mode!r}")
        return text, lambda ball, dist, plan: [mesh_estimate(ball, dist, plan, mode=mode)]
    if name == "quasiconvex" and not args:
        if config.subgroup is None:
            raise ValueError("the quasiconvex invariant needs --subgroup")
        words = config.subgroup
        def run(ball, dist, plan):
            eps = detour_epsilon(ball, dist, plan)
            return [subgroup_quasiconvexity(ball, dist, words, detour_result=eps)]
        return text, run
    raise ValueError(f"unknown invariant selector {text!r}")


@dataclass
class Report:
    """Everything one analysis produced, ready for canonical emission."""

    config: dict
    runs: list

    def to_dict(self):
        return {"tool": "cayleyball", "version": __version__, "config": self.config, "runs": self.runs}


def run_analysis(config: AnalysisConfig) -> Report:
    """Build the ball(s), compute the selected invariants, assemble a report."""
    runs = []
    for r_in in config.radii:
        ball = build_ball(config.spec, r_in, generators=config.generators, budget=config.budget)
        dist = all_pairs_distances(ball)
        plan = config.plan()
        results = []
        for selector, task in config.tasks:
            started = time.perf_counter()
            for res in task(ball, dist, plan):
                entry = res.to_dict()
                entry["selector"] = selector
                entry["wall_time_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
                results.append(entry)
        runs.append(
            {
                "r_in": ball.r_in,
                "r_out": ball.r_out,
                "ball": {
                    "vertices": ball.n_vertices,
                    "inner_vertices": ball.inner_count,
                    "generators": [l.label for l in ball.letters],
                    "counts_per_radius": ball.counts_per_radius,
                },
                "results": results,
            }
        )
    return Report(config=config.describe(), runs=runs)


def emit_report(report: Report, fmt: str = "table") -> str:
    """Render a report: canonical JSON (stable key order) or a text table."""
    if fmt == "json":
        return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
    if fmt != "table":
        raise ValueError(f"unknown format {fmt!r}")
    lines = [f"cayleyball {__version__}  group={report.config['group']!r}"]
    for run in report.runs:
        ball = run["ball"]
        lines.append(
            f"\nr_in={run['r_in']} r_out={run['r_out']}  "
            f"vertices={ball['vertices']} inner={ball['inner_vertices']}"
        )
        header = f"  {'invariant':<28}{'value':>8}  {'doubled':>8}  {'bound':<6}  {'time_ms':>9}"
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        for res in run["results"]:
            label = res["invariant"]
            if res["extra"].get("n") is not None:
                label += f"(n={res['extra']['n']})"
            if res["extra"].get("mode"):
                label += f"[{res['extra']['mode']}]"
            value = res["value_doubled"] / 2
            value_text = str(int(value)) if value == int(value) else f"{value:.1f}"
            lines.append(
                f"  {label:<28}{value_text:>8}  {res['value_doubled']:>8}  "
                f"{res['bound']:<6}  {res['wall_time_ms']:>9.1f}"
            )
    return "\n".join(lines) + "\n"


def _write_output(text, out_path):
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {out_path!r}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _parse_radii(args):
    if args.radius is not None and args.radii is not None:
        raise ValueError("give either --radius or --radii, not both")
    if args.radius is not None:
        return [args.radius]
    if args.radii is not None:
        lo, _, hi = args.radii.partition("..")
        try:
            lo, hi = int(lo), int(hi)
        except ValueError:
            raise ValueError(f"--radii wants a range like 2..5, got {args.radii!r}") from None
        if hi < lo:
            raise ValueError(f"--radii range {args.radii} is empty")
        return list(range(lo, hi + 1))
    raise ValueError("one of --radius or --radii is required")


def _split_words(text):
    return None if text is None else [w.strip() for w in text.split(",") if w.strip()]


def _parse_cap(text):
    if text is None:
        return SamplingPlan.geodesic_cap
    if text == "none":
        return None
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"--geodesic-cap wants an integer or 'none', got {text!r}") from None


def _add_common(parser):
    parser.add_argument("--group", required=True, help="group expression, e.g. 'F(a,b)' or 'Z2 * Z3'")
    parser.add_argument("--radius", type=int, help="single inner radius")
    parser.add_argument("--radii", help="inner radius sweep, e.g. 2..5")
    parser.add_argument("--invariants", default="all", help="comma list; 'all' = standard set")
    parser.add_argument("--samples", type=int, help="random tuples per invariant (omit for exhaustive)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--geodesic-cap", default=None,
        help=f"per-side geodesic cap for mesh (int or 'none'; default {SamplingPlan.geodesic_cap}); bigons are exact without it",
    )
    parser.add_argument("--budget", type=int, default=_DEFAULT_BUDGET, help="vertex budget for the ball")
    parser.add_argument("--subgroup", help="comma list of subgroup generator words")
    parser.add_argument("--format", choices=("json", "table"), default="table")
    parser.add_argument("--out", help="write the report to this path instead of stdout")


def _invariant_list(text, subgroup):
    if text == "all":
        out = list(_DEFAULT_INVARIANTS)
        if subgroup:
            out.append("quasiconvex")
        return out
    out = [s.strip() for s in text.split(",") if s.strip()]
    if not out:  # AnalysisConfig takes [] as a ball-statistics run; the flag does not
        raise ValueError(f"--invariants {text!r} selects no invariant")
    return out


def _config_from_args(args):
    subgroup = _split_words(args.subgroup)
    return AnalysisConfig(
        group=args.group,
        radii=_parse_radii(args),
        generators=_split_words(args.generators) if hasattr(args, "generators") else None,
        invariants=_invariant_list(args.invariants, subgroup),
        samples=args.samples,
        seed=args.seed,
        geodesic_cap=_parse_cap(args.geodesic_cap),
        budget=args.budget,
        subgroup=subgroup,
    )


def _cmd_analyze(args):
    config = _config_from_args(args)
    report = run_analysis(config)
    _write_output(emit_report(report, args.format), args.out)
    return 0


def _cmd_compare_generators(args):
    base = argparse.Namespace(**vars(args))
    reports = {}
    for tag, gens in (("gens_a", args.gens_a), ("gens_b", args.gens_b)):
        base.generators = gens
        config = _config_from_args(base)
        reports[tag] = run_analysis(config)
    if args.format == "json":
        payload = {tag: rep.to_dict() for tag, rep in reports.items()}
        _write_output(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    else:
        blocks = []
        for tag, rep in reports.items():
            blocks.append(f"== {tag}: {rep.config['generators']}\n" + emit_report(rep, "table"))
        _write_output("\n".join(blocks), args.out)
    return 0


def _cmd_h2_demo(args):
    r = args.radius
    lines = [f"h2_center_distance({r}) = {h2_center_distance(r):.12f}", ""]
    lines.append("distance from the disk center diverges as the euclidean radius -> 1:")
    probe = r
    for _ in range(6):
        probe = probe + (1.0 - probe) * 0.9
        if f"{probe:.10f}".startswith("1"):  # it rounds to 1.0 or prints as 1
            break
        lines.append(f"  r = {probe:.10f}  ->  {h2_center_distance(probe):.6f}")
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="cayleyball", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="compute invariants on one group")
    _add_common(p)
    p.add_argument("--generators", help="comma list of generator words replacing the standard set")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("compare-generators", help="same group, two generating sets, side by side")
    _add_common(p)
    p.add_argument("--gens-a", required=True, help="comma list of generator words")
    p.add_argument("--gens-b", required=True, help="comma list of generator words")
    p.set_defaults(func=_cmd_compare_generators)

    p = sub.add_parser("h2-demo", help="hyperbolic-plane center-distance demo")
    p.add_argument("--radius", type=float, required=True, help="euclidean radius in [0, 1)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_h2_demo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
            raise ValueError(f"the directory of --out {args.out!r} does not exist")
        return args.func(args)
    except (SpecParseError, WordError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
