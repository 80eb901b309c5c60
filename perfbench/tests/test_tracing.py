import numpy as np

from cayleyball import ball, cli, geodesics, invariants
from tracing import Tracer, installed, layer_probes, span_times
from worker import measure
from workloads import WORKLOADS, Workload

GRID_R2 = Workload(group="Z x Z", radii=(2,), invariants=WORKLOADS["grid-sweep"].invariants)


def _counts(layers):
    return {
        k: v for k, v in layers.items()
        if k.endswith("_calls") or k in ("ball.vertices", "ball.mid_block_bytes",
                                         "geodesics.paths", "geodesics.cap_hit_ratio")
    }


def test_traced_counts_repeat_exactly(tmp_path):
    first = measure(GRID_R2, seed=0, trace=True, trace_out=tmp_path / "a.npz")
    second = measure(GRID_R2, seed=0, trace=True, trace_out=tmp_path / "b.npz")
    assert first["error"] is None and second["error"] is None
    counts = _counts(first["layers"])
    assert counts == _counts(second["layers"])
    assert counts["ball.vertices"] == 85
    assert counts["groups.multiply_calls"] > 0
    assert counts["geodesics.enumerate_calls"] > 0
    assert counts["geodesics.avoidance_block_calls"] > 0
    assert first["trace_id"] != second["trace_id"]
    assert first["results"] == second["results"]


def test_saved_spans_form_one_tree(tmp_path):
    out = measure(GRID_R2, seed=0, trace=True, trace_out=tmp_path / "spans.npz")
    with np.load(tmp_path / "spans.npz") as saved:
        names = list(saved["names"])
        name_of, parent, start, end = saved["name"], saved["parent"], saved["start"], saved["end"]
        assert str(saved["trace_id"]) == out["trace_id"]
    assert len(parent) == out["spans"]
    roots = np.flatnonzero(parent < 0)
    assert [names[name_of[r]] for r in roots] == ["cli.analysis"]
    assert (parent < np.arange(len(parent))).all()
    inner = parent >= 0
    assert (start[inner] >= start[parent[inner]]).all()
    assert (end[inner] <= end[parent[inner]]).all()


def test_wrappers_are_removed_after_the_run():
    originals = {(p.owner, p.attr): p.owner.__dict__[p.attr] for p in layer_probes()}
    with installed(Tracer(), layer_probes()):
        assert cli.build_ball is not ball.build_ball
        assert invariants.max_avoidance is not geodesics.max_avoidance
    for (owner, attr), fn in originals.items():
        assert owner.__dict__[attr] is fn
    assert cli.build_ball is ball.build_ball


def test_span_times_count_nested_same_name_once():
    # polygon [0, 10] > polygon [1, 9] > row [2, 5];  row [11, 12] at the root
    names = ["polygon", "row"]
    name_of = np.array([0, 0, 1, 1])
    parent = np.array([-1, 0, 1, -1])
    start = np.array([0.0, 1.0, 2.0, 11.0])
    end = np.array([10.0, 9.0, 5.0, 12.0])
    times = span_times(names, name_of, parent, start, end)
    assert times["polygon"] == (2, 10.0, 7.0)
    assert times["row"] == (2, 4.0, 4.0)
