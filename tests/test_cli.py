import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cayleyball import InternalCheckError, cli, parse_group_spec
from cayleyball.cli import AnalysisConfig, emit_report, run_analysis


def _strip_timing(text):
    return re.sub(r'"wall_time_ms": [0-9.]+', '"wall_time_ms": 0', text)


def test_analyze_table(capsys):
    rc = cli.main(
        [
            "analyze", "--group", "Z x Z", "--radius", "2",
            "--invariants", "four_point,polygon:1", "--geodesic-cap", "none",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "four_point_delta" in out and "polygon_delta(n=1)" in out
    assert "exact" in out


def test_parse_error_exit_code(capsys):
    assert cli.main(["analyze", "--group", "F(a", "--radius", "2"]) == 2
    assert "error" in capsys.readouterr().err


def test_bad_invariant_exit_code(capsys):
    assert cli.main(["analyze", "--group", "Z", "--radius", "2", "--invariants", "nope"]) == 2


@pytest.mark.parametrize(
    "extra",
    [
        ["--invariants", "four_point,polygon:0"],
        ["--invariants", "four_point", "--geodesic-cap", "0"],
        ["--invariants", "chain:bruteforce:-3"],
        ["--invariants", "chain:bottleneck:7"],
        ["--invariants", "four_point", "--budget", "0"],
        ["--invariants", "four_point", "--budget", "-5"],
        ["--invariants", "polygon:2:interval"],
        ["--invariants", "polygon:2:scan"],
        ["--invariants", "polygon:2:tuples"],
        ["--invariants", "chain:bottleneck"],
        ["--invariants", "chain:bruteforce"],
        ["--invariants", "chain:bruteforce:3"],
        ["--invariants", "four_point", "--radii", "3..2"],
        ["--invariants", "four_point", "--out", "missing-directory/report.json"],
        ["--invariants", "four_point", "--samples", "0"],
        ["--invariants", "four_point", "--radii", "2..x"],
        ["--invariants", "four_point", "--radii", "..3"],
        ["--invariants", "four_point", "--geodesic-cap", "abc"],
        ["--invariants", ""],
    ],
)
def test_bad_arguments_rejected_before_any_work(monkeypatch, capsys, extra):
    def unreachable(*args, **kwargs):
        raise AssertionError("build_ball called")

    monkeypatch.setattr(cli, "build_ball", unreachable)
    radius = [] if "--radii" in extra else ["--radius", "3"]
    assert cli.main(["analyze", "--group", "F(a,b)"] + radius + extra) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag,text,message",
    [
        ("--radii", "2..x", "--radii wants a range like 2..5, got '2..x'"),
        ("--radii", "..3", "--radii wants a range like 2..5, got '..3'"),
        ("--geodesic-cap", "abc", "--geodesic-cap wants an integer or 'none', got 'abc'"),
        ("--invariants", "polygon:x", "polygon wants a positive size like polygon:3, got 'polygon:x'"),
        ("--invariants", "polygon:", "polygon wants a positive size like polygon:3, got 'polygon:'"),
        ("--invariants", "polygon:0", "polygon wants a positive size like polygon:3, got 'polygon:0'"),
    ],
)
def test_integer_parse_errors_name_the_flag(capsys, flag, text, message):
    radius = [] if flag == "--radii" else ["--radius", "1"]
    assert cli.main(["analyze", "--group", "Z", flag, text] + radius) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("words", ["", ","])
def test_empty_generator_list_exits_2(capsys, words):
    rc = cli.main(["analyze", "--group", "Z", "--radius", "1", "--invariants", "four_point", "--generators", words])
    assert rc == 2
    assert capsys.readouterr().err == "error: generator list is empty\n"


@pytest.mark.parametrize("words", ["", ","])
def test_empty_subgroup_exits_2(monkeypatch, capsys, words):
    # an empty list would drop quasiconvex from the default set unannounced
    monkeypatch.setattr(cli, "build_ball", None)  # rejected before any build
    assert cli.main(["analyze", "--group", "Z", "--radius", "1", "--subgroup", words]) == 2
    assert capsys.readouterr().err == "error: --subgroup lists no generator word\n"
    with pytest.raises(ValueError, match="^--subgroup lists no generator word$"):
        AnalysisConfig(group="Z", radii=[1], subgroup=[])


def test_empty_radii_range_is_named(capsys):
    assert cli.main(["analyze", "--group", "Z", "--radii", "3..2", "--invariants", "four_point"]) == 2
    assert "error: --radii range 3..2 is empty" in capsys.readouterr().err


def test_out_under_missing_directory_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    rc = cli.main(["analyze", "--group", "Z", "--radius", "1", "--invariants", "four_point", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.parent.exists()


def test_unwritable_out_exits_2(tmp_path, capsys):
    # the directory exists, but the path names a directory: the write fails after the analysis
    rc = cli.main(["analyze", "--group", "Z", "--radius", "1", "--invariants", "four_point", "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: cannot write")


def test_budget_exit_code(capsys):
    rc = cli.main(
        ["analyze", "--group", "F(a,b)", "--radius", "3", "--budget", "50",
         "--invariants", "four_point"]
    )
    assert rc == 3


def test_internal_check_exit_code(monkeypatch, capsys):
    from cayleyball.invariants import InternalCheckError

    def boom(*args, **kwargs):
        raise InternalCheckError("simulated")

    monkeypatch.setattr(cli, "four_point_delta", boom)
    rc = cli.main(["analyze", "--group", "Z", "--radius", "1", "--invariants", "four_point"])
    assert rc == 4


def test_free_product_normal_form_check_exit_code(monkeypatch, capsys):
    # a non-reduced free-product element trips the check even under python -O
    spec = parse_group_spec("Z2 * Z3")
    identity_syllable = ((0, spec.root.factors[0].identity()),)
    with pytest.raises(InternalCheckError):
        spec.multiply(identity_syllable, spec.identity())

    def corrupt_build(spec, *args, **kwargs):
        return spec.multiply(identity_syllable, spec.identity())

    monkeypatch.setattr(cli, "build_ball", corrupt_build)
    rc = cli.main(["analyze", "--group", "Z2 * Z3", "--radius", "1", "--invariants", "four_point"])
    assert rc == 4
    assert "free-product normal form" in capsys.readouterr().err


@pytest.mark.parametrize("group", ["Z", "Z2"])
def test_default_set_runs_on_the_smallest_balls(capsys, group):
    # an inner ball of 3 or 2 vertices: corner tuples repeat corners, so
    # every polygon size of the default set has a value
    assert cli.main(["analyze", "--group", group, "--radius", "1", "--format", "json"]) == 0
    results = json.loads(capsys.readouterr().out)["runs"][0]["results"]
    assert [r["extra"]["n"] for r in results if r["invariant"] == "polygon_delta"] == [1, 2, 3]


@pytest.mark.parametrize(
    "kwargs",
    [
        {"group": "Z2 * Z3", "radii": [4, 5, 6]},
        {"group": "F(a,b)", "radii": [3]},
        {"group": "Z2 * Z3", "radii": [9], "samples": 5000, "seed": 1},
    ],
    ids=["vfree-sweep", "free-r3", "vfree-sampled"],
)
def test_default_set_reads_no_whole_ball_row(monkeypatch, kwargs):
    # every read of these runs stays within the 2R ball, where the inner rows serve it
    stores, build = [], cli.all_pairs_distances

    def distances(ball):
        stores.append(build(ball))
        return stores[-1]

    monkeypatch.setattr(cli, "all_pairs_distances", distances)
    run_analysis(AnalysisConfig(**kwargs))
    assert len(stores) == len(kwargs["radii"])
    assert [len(dist.block) for dist in stores] == [0] * len(stores)


def test_empty_invariants_gives_ball_stats_only():
    config = AnalysisConfig(group="F(a,b)", radii=[1], invariants=[])
    report = run_analysis(config)
    assert report.runs[0]["results"] == []
    assert report.runs[0]["ball"]["inner_vertices"] == 5


def test_json_round_trip():
    config = AnalysisConfig(group="Z x Z", radii=[1], invariants=["four_point", "bigons"])
    report = run_analysis(config)
    text = emit_report(report, "json")
    assert json.loads(text) == report.to_dict()


def test_sweep_result_counts():
    config = AnalysisConfig(
        group="Z x Z", radii=[1, 2, 3], invariants=["four_point", "bigons"],
        geodesic_cap=None,
    )
    report = run_analysis(config)
    assert len(report.runs) == 3
    for run in report.runs:
        # bigons contributes async and sync entries
        assert len(run["results"]) == 3
    assert [run["r_in"] for run in report.runs] == [1, 2, 3]


def test_report_determinism_modulo_timing():
    config = dict(
        group="Z2 * Z3", radii=[2, 3], invariants=["polygon:3"], samples=200, seed=42
    )
    a = emit_report(run_analysis(AnalysisConfig(**config)), "json")
    b = emit_report(run_analysis(AnalysisConfig(**config)), "json")
    assert _strip_timing(a) == _strip_timing(b)
    assert json.loads(a)["config"]["seed"] == 42


@pytest.mark.parametrize(
    "group,r_in,golden",
    [("Z x Z", 2, "report_zxz_r2.json"), ("Z2 * Z3", 3, "report_z2z3_r3.json")],
)
def test_default_report_matches_golden(group, r_in, golden):
    # canonical JSON of the default invariant set, wall_time_ms zeroed; a
    # change to any value, witness or key shows up here as a byte difference
    text = emit_report(run_analysis(AnalysisConfig(group=group, radii=[r_in])), "json")
    expected = (Path(__file__).parent / "data" / golden).read_text(encoding="utf-8")
    assert _strip_timing(text) == expected


@pytest.mark.parametrize(
    "config,golden",
    [
        # adversarial sides are longer than 2R + 1
        (
            dict(group="Z x Z", radii=[2], invariants=["mesh:adversarial"]),
            "report_zxz_r2_mesh_adversarial.json",
        ),
        # several geodesics per side, a binding cap, repeated sampled triangles
        (
            dict(group="Z x Z", radii=[3], invariants=["mesh:geodesic"],
                 samples=300, seed=5, geodesic_cap=4),
            "report_zxz_r3_mesh_sampled_cap4.json",
        ),
        # vfree-sampled's selectors, all nonzero: sampled bigons and detour
        # and a capped sampled mesh in one report
        (
            dict(group="Z x Z", radii=[3], samples=300, seed=5, geodesic_cap=4,
                 invariants=["four_point", "polygon:3", "bigons", "detour", "mesh:geodesic"]),
            "report_zxz_r3_sampled_cap4.json",
        ),
        # the default set on a non-standard generating set: the mesh, chain
        # and polygon values are nonzero, where on the standard set they are 0
        (
            dict(group="Z2 * Z3", radii=[3], generators=["t1", "t2", "t1.t2"]),
            "report_z2z3_t1t2_r3.json",
        ),
    ],
    ids=["adversarial", "sampled-cap4", "sampled-all-cap4", "t1t2-default"],
)
def test_mesh_report_matches_golden(config, golden):
    text = emit_report(run_analysis(AnalysisConfig(**config)), "json")
    expected = (Path(__file__).parent / "data" / golden).read_text(encoding="utf-8")
    assert _strip_timing(text) == expected


@pytest.mark.parametrize(
    "group,r_in,golden",
    [
        ("Z x Z", 3, "report_sampled_polygon_zxz_r3.json"),
        ("(Z2 * Z3) x Z", 2, "report_sampled_polygon_z2z3xz_r2.json"),
    ],
    ids=["zxz-r3", "z2z3xz-r2"],
)
def test_sampled_polygon_report_matches_golden(group, r_in, golden):
    # non-zero sampled four-point and polygon values pin their tie-breaks
    config = AnalysisConfig(
        group=group, radii=[r_in], samples=400, seed=5,
        invariants=["four_point", "polygon:1", "polygon:2", "polygon:3"],
    )
    text = emit_report(run_analysis(config), "json")
    expected = (Path(__file__).parent / "data" / golden).read_text(encoding="utf-8")
    assert _strip_timing(text) == expected


@pytest.mark.parametrize("golden", ["report_zxz_r2.json", "report_z2z3_r3.json", "report_z2z3_t1t2_r3.json"])
def test_exhaustive_goldens_keep_the_invariant_relations(golden):
    # polygon:n scans (n+1)-gons, so polygon:1 is the bigons and rips (the
    # triangles) polygon:2; an (n+1)-gon is an (n+2)-gon with a repeated
    # corner; a four-point defect is the chain defect of a three-point chain
    report = json.loads((Path(__file__).parent / "data" / golden).read_text(encoding="utf-8"))
    for run in report["runs"]:
        v = {r["selector"] if r["selector"] != "bigons" else r["invariant"]: r for r in run["results"]}
        assert all(v[k]["bound"] == "exact" for k in ("four_point", "chain", "rips", "polygon:1", "bigon_async"))
        v = {k: r["value_doubled"] for k, r in v.items()}
        assert v["polygon:1"] == v["bigon_async"]
        assert v["rips"] == v["polygon:2"]
        assert v["four_point"] <= v["chain"]
        assert v["polygon:1"] <= v["polygon:2"] <= v["polygon:3"]


def test_no_exact_claims_under_sampling():
    config = AnalysisConfig(
        group="Z x Z", radii=[2], invariants=["four_point", "polygon:1", "mesh"],
        samples=50, seed=9,
    )
    report = run_analysis(config)
    assert all(res["bound"] != "exact" for res in report.runs[0]["results"])


def test_quasiconvex_needs_subgroup():
    with pytest.raises(ValueError):
        AnalysisConfig(group="F(a,b)", radii=[2], invariants=["quasiconvex"])


def test_quasiconvex_via_cli(capsys):
    rc = cli.main(
        [
            "analyze", "--group", "F(a,b)", "--radius", "3",
            "--invariants", "quasiconvex", "--subgroup", "a.a,b.b",
            "--format", "json",
        ]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    entry = report["runs"][0]["results"][0]
    assert entry["invariant"] == "subgroup_quasiconvexity"
    assert entry["value_doubled"] == 2
    assert entry["extra"]["M"] == 2


def test_compare_generators(capsys):
    rc = cli.main(
        [
            "compare-generators", "--group", "Z x Z", "--radius", "2",
            "--gens-a", "t1,t2", "--gens-b", "t1,t2,t1.t2",
            "--invariants", "bigons", "--geodesic-cap", "none",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "gens_a" in out and "gens_b" in out


def test_compare_generators_json_is_two_analyze_reports(capsys):
    # each side of the payload is the analyze report of its generating set
    common = [
        "--group", "Z x Z", "--radius", "2", "--invariants", "bigons,four_point",
        "--geodesic-cap", "none", "--format", "json",
    ]
    assert cli.main(["compare-generators", *common, "--gens-a", "t1,t2", "--gens-b", "t1,t2,t1.t2"]) == 0
    payload = json.loads(_strip_timing(capsys.readouterr().out))
    assert sorted(payload) == ["gens_a", "gens_b"]
    for tag, gens in (("gens_a", "t1,t2"), ("gens_b", "t1,t2,t1.t2")):
        assert cli.main(["analyze", *common, "--generators", gens]) == 0
        assert payload[tag] == json.loads(_strip_timing(capsys.readouterr().out))


def test_all_with_subgroup_appends_quasiconvex(capsys):
    rc = cli.main(
        ["analyze", "--group", "F(a,b)", "--radius", "1", "--invariants", "all", "--subgroup", "a.a", "--format", "json"]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["invariants"] == [*cli._DEFAULT_INVARIANTS, "quasiconvex"]
    assert report["runs"][0]["results"][-1]["invariant"] == "subgroup_quasiconvexity"


def test_h2_demo(capsys):
    rc = cli.main(["h2-demo", "--radius", "0.0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "h2_center_distance(0.0) = 0.000000000000" in out
    assert cli.main(["h2-demo", "--radius", "1.5"]) == 2


@pytest.mark.parametrize("radius,rows", [("0.99999999999", 0), ("0.9999999", 3)])
def test_h2_demo_near_radius_one(capsys, radius, rows):
    # a probe that rounds to 1.0 or prints as 1 ends the sequence
    assert cli.main(["h2-demo", "--radius", radius]) == 0
    probes = re.findall(r"r = (\S+)  ->", capsys.readouterr().out)
    assert len(probes) == rows and not any(p.startswith("1") for p in probes)


def test_out_file(tmp_path):
    target = tmp_path / "report.json"
    rc = cli.main(
        ["analyze", "--group", "Z", "--radius", "2", "--invariants", "four_point",
         "--format", "json", "--out", str(target)]
    )
    assert rc == 0
    assert json.loads(target.read_text())["tool"] == "cayleyball"


def test_radii_argument_validation(capsys):
    assert cli.main(["analyze", "--group", "Z", "--invariants", "four_point"]) == 2
    assert (
        cli.main(
            ["analyze", "--group", "Z", "--radius", "1", "--radii", "1..2",
             "--invariants", "four_point"]
        )
        == 2
    )


def test_optimized_interpreter_reports_the_same():
    # every check raises InternalCheckError rather than asserting, so a run
    # under python -O, which strips asserts, reports the same bytes
    args = ["-m", "cayleyball.cli", "analyze", "--group", "Z2 * Z3", "--radius", "2", "--format", "json"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def report(*flags):
        cmd = [sys.executable, *flags, *args]
        return subprocess.run(cmd, env=env, capture_output=True, text=True, check=True).stdout

    plain, optimized = report(), report("-O")
    assert json.loads(plain)["runs"][0]["results"]
    assert _strip_timing(optimized) == _strip_timing(plain)


def test_analysis_loads_no_scipy():
    # the package needs numpy alone (scipy serves the test oracles): a fresh
    # interpreter that imports the CLI and runs the default set loads no
    # scipy module, scipy.sparse included, and not numpy.ma either (a plain
    # np.unique(x) imports it on its first call)
    code = (
        "import sys\n"
        "from cayleyball import cli\n"
        "cli.emit_report(cli.run_analysis(cli.AnalysisConfig(group='Z x Z', radii=[2])), 'json')\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')), 'numpy.ma' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out == "[] False\n"


def test_readme_library_sketch_runs(capsys):
    # the sketch goes stale when the API it uses is renamed or deleted
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    sketch = re.search(r"## Library sketch\n\n```python\n(.*?)```", readme, re.S)
    exec(sketch.group(1), {})
    # polygon_delta n = 1 and chain_defect on Z x Z R3
    assert capsys.readouterr().out == "3.0\n3.0\n"
