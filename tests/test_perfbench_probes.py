"""The benchmark's layer probes must find every name they wrap, and still
measure what their metrics name.

``perfbench.tracing.layer_probes`` replaces functions by name in the
namespaces that call them, so a traced run raises ``KeyError`` as soon as
one of those names is no longer bound there.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from cayleyball import build_ball, cli, invariants, parse_group_spec  # noqa: E402
from cayleyball.ball import all_pairs_distances  # noqa: E402
from perfbench.tracing import Tracer, installed, layer_probes  # noqa: E402


def test_every_layer_probe_target_is_bound():
    missing = [
        f"{getattr(probe.owner, '__name__', probe.owner)}.{probe.attr}"
        for probe in layer_probes()
        if probe.attr not in probe.owner.__dict__
    ]
    assert missing == []


def test_mid_rows_probe_measures_the_polygon_scan():
    # polygon:3 on Z x Z R2 reads the scan's probe rows once: one
    # ball.mid_rows span, and ball.mid_block_bytes is those rows cut at
    # mid_count, in int16
    tracer = Tracer()
    with installed(tracer, layer_probes()):
        cli.run_analysis(cli.AnalysisConfig(group="Z x Z", radii=[2], invariants=["polygon:3"]))
    name_of = tracer.arrays()[0]
    assert (name_of == tracer.name_id("ball.mid_rows")).sum() == 1
    ball = build_ball(parse_group_spec("Z x Z"), 2)
    probes = invariants._polygon_scan(ball, all_pairs_distances(ball)).hull
    assert tracer.counters["ball.mid_block_bytes"] == len(probes) * ball.mid_count * 2
