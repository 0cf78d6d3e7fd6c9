"""spec.json says what BENCHMARK.json may not; keep the three in step."""

import json
import os

from conftest import PERFBENCH, ROOT

from workloads import DECLARED_SECONDS, WORKLOADS


def load(path):
    with open(path) as handle:
        return json.load(handle)


def test_spec_matches_the_code_and_the_declaration():
    spec = load(os.path.join(PERFBENCH, "spec.json"))
    bench = load(os.path.join(ROOT, "BENCHMARK.json"))
    assert bench["paths"] == ["perfbench"]
    assert bench["run_seconds"] == DECLARED_SECONDS == spec["estimator"]["declared_seconds"]
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS) == list(spec["workloads"])
    for name, workload in WORKLOADS.items():
        sizes = spec["workloads"][name]
        assert (sizes["blocks_L"], sizes["lap_pairs_K"], sizes["paced_laps_P"]) == (
            workload.sizes.blocks, workload.sizes.lap_pairs, workload.sizes.paced_laps)
        assert sizes["txs_per_block"] == workload.txs_per_block
        assert sizes["slot_period_s"] == workload.slot_period_s
    assert [m["name"] for m in bench["per_layer"]] == list(spec["per_layer"])
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    for name, layer in spec["per_layer"].items():
        assert set(layer["should_move"]) <= end_to_end, name
    assert "setup_s" in end_to_end
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
