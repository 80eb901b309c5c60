import json

import pytest

from gate import check, load_reference
from worker import measure
from workloads import WORKLOADS, Workload

GRID_R2 = Workload(group="Z x Z", radii=(2,), invariants=WORKLOADS["grid-sweep"].invariants)


@pytest.fixture(scope="module")
def grid_r2():
    """Measured Z x Z R2 results and the committed reference entries for R2."""
    record = measure(GRID_R2, seed=0, trace=False)
    assert record["error"] is None
    reference = {k: v for k, v in load_reference()["grid-sweep"].items() if k.startswith("2/")}
    return record["results"], reference


def test_measured_results_match_committed_reference(grid_r2):
    results, reference = grid_r2
    assert set(results) == set(reference)
    assert check(results, reference, sampled=False, free_group=False) == {}


def test_corrupted_exact_reference_is_caught(grid_r2):
    results, reference = grid_r2
    corrupted = json.loads(json.dumps(reference))
    key = "2/chain/chain_defect"
    assert corrupted[key][1] == "exact"
    corrupted[key][0] += 2
    failures = check(results, corrupted, sampled=False, free_group=False)
    assert list(failures) == [key]


def test_lower_reference_may_rise_but_not_fall():
    reference = {"2/detour/detour_epsilon": [4, "lower"]}
    assert check({"2/detour/detour_epsilon": [6, "lower"]}, reference, False, False) == {}
    assert check({"2/detour/detour_epsilon": [2, "lower"]}, reference, False, False)
    assert check({"2/detour/detour_epsilon": [4, "exact"]}, reference, False, False) == {}
    assert check({"2/detour/detour_epsilon": [2, "exact"]}, reference, False, False)


def test_exact_reference_turned_lower_keeps_its_value():
    reference = {"4/bigons/bigon_async": [8, "exact"]}
    assert check({"4/bigons/bigon_async": [8, "lower"]}, reference, False, False) == {}
    assert check({"4/bigons/bigon_async": [6, "lower"]}, reference, False, False)


def test_sampled_results_are_bounded_by_the_exhaustive_value():
    reference = {"9/mesh:geodesic/mesh_estimate": [2, "lower"]}
    assert check({"9/mesh:geodesic/mesh_estimate": [0, "lower"]}, reference, True, False) == {}
    assert check({"9/mesh:geodesic/mesh_estimate": [4, "lower"]}, reference, True, False)
    assert check({"9/mesh:geodesic/mesh_estimate": [2, "exact"]}, reference, True, False)


def test_free_group_values_must_be_zero():
    reference = {"3/mesh:geodesic/mesh_estimate": [0, "lower"]}
    assert check({"3/mesh:geodesic/mesh_estimate": [2, "lower"]}, reference, False, True)


def test_missing_and_unexpected_results_fail():
    reference = {"2/chain/chain_defect": [4, "exact"]}
    assert "2/chain/chain_defect" in check({}, reference, False, False)
    extra = {"2/chain/chain_defect": [4, "exact"], "2/rips/rips_delta": [0, "exact"]}
    assert list(check(extra, reference, False, False)) == ["2/rips/rips_delta"]


def test_reference_covers_every_workload_and_free_group_is_zero():
    reference = load_reference()
    assert set(reference) == set(WORKLOADS)
    for name, workload in WORKLOADS.items():
        radii = {int(key.split("/")[0]) for key in reference[name]}
        assert radii == set(workload.radii)
        if workload.free_group:
            assert all(value == 0 for value, _ in reference[name].values())
