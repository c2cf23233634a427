"""Tests of the benchmark itself: workloads at their smallest size, the
correctness gate, the tracer's accounting, and the compare verdicts.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import ascentlab  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from worker import execute  # noqa: E402
from workloads import WORKLOADS, OrderedChain, SteepestBool  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _rep(workload, traced=False):
    return execute(workload, 7, traced, time.monotonic())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_each_workload_passes_its_checks_at_the_smallest_size(name):
    rep = _rep(WORKLOADS[name](small=True))
    assert rep["failures"] == []
    assert rep["units"] >= 1
    assert rep["steps"] > 0 and rep["engine_s"] > 0
    assert 0 < rep["setup_s"] and 0 < rep["wall_s"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reports_every_per_layer_metric_and_closes_the_sum(name):
    rep = _rep(WORKLOADS[name](small=True), traced=True)
    layers = rep["layers"]
    expected = {m["name"] for m in SPEC["per_layer"]} - {"trace.overhead_ratio"}
    assert set(layers) == expected
    total = sum(layers[f"{layer}.self_s"] for layer in LAYERS) + layers["bench.self_s"]
    assert total == pytest.approx(layers["trace.root_s"], rel=1e-6)
    assert rep["spans"][0]["name"] == f"bench.{name}"


def test_traced_verify_all_sees_calls_between_modules():
    rep = _rep(WORKLOADS["verify-all"](small=True), traced=True)
    layers = rep["layers"]
    for layer in LAYERS:
        assert layers[f"{layer}.self_s"] > 0, layer
    # Every build in verify-all is made by the checks or by other builders,
    # never by the benchmark, so each one is a call between modules.
    spans = {s["id"]: s for s in rep["spans"]}
    callers = {
        (spans[s["parent"]]["name"], s["name"])
        for s in rep["spans"]
        if s["name"].startswith("constructions.build_") and s["parent"] in spans
    }
    assert ("verification.check_pathwidth", "constructions.build_boolean_pw4") in callers
    assert ("constructions.build_3by5", "constructions.build_2by3") in callers
    assert layers["constructions.build_calls"] > 0
    # The program's own runtime_s also counts the speed probe's samples.
    for check in ("pathwidth", "simulation"):
        span, report = layers[f"verification.{check}_s"], layers[f"verification.{check}_report_s"]
        assert 0 < span and report == pytest.approx(span, rel=0.15)


def test_tracer_uninstall_restores_every_binding():
    before = (
        ascentlab.verification.build_boolean_pw4,
        ascentlab.constructions.build_2by3,
        ascentlab.VcspInstance.__dict__["fitness"],
        ascentlab.cli.main,
    )
    tracer = Tracer()
    tracer.install(ascentlab)
    assert ascentlab.verification.build_boolean_pw4 is not before[0]
    assert ascentlab.constructions.build_2by3 is not before[1]
    tracer.uninstall()
    after = (
        ascentlab.verification.build_boolean_pw4,
        ascentlab.constructions.build_2by3,
        ascentlab.VcspInstance.__dict__["fitness"],
        ascentlab.cli.main,
    )
    assert after == before


def test_counts_repeat_exactly():
    a = _rep(SteepestBool(small=True))
    b = _rep(SteepestBool(small=True))
    assert a["counts"] == b["counts"] and a["steps"] == b["steps"]


class TamperedChain(OrderedChain):
    """ordered-chain on an instance with one constraint bumped."""

    def setup(self, al, seed):
        super().setup(al, seed)
        label = self.inst.constraints[0].label
        self.inst = al.verification.with_bumped_constraint(self.inst, label, 1)


def test_tampered_instance_is_counted_as_a_failure_not_timed():
    good = _rep(OrderedChain(small=True))
    bad = _rep(TamperedChain(small=True))
    assert len(bad["failures"]) == 1
    assert bad["failures"][0]["problems"]
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    result, stats = run.aggregate([good, bad], False, units)
    assert result["correct"] is False
    assert result["attempted"] == 2 and result["failed"] == 1
    assert stats["wall_s"]["n"] == 1
    assert result["metrics"]["wall_s"]["value"] == good["wall_s"]


def test_summary_reports_no_percentile_below_eleven_samples():
    assert run.summary([3.0, 1.0, 2.0]) == {"median": 2.0, "q1": 1.0, "q3": 3.0, "n": 3, "p": None}
    s = run.summary([float(i) for i in range(1, 21)])
    assert s["p"] == {"percentile": 50, "value": 10.0}


def _pairs(parent, change):
    return list(zip(parent, change))


def test_compare_verdicts():
    parent = [10.0 + 0.1 * i for i in range(10)]
    assert compare.verdict(_pairs(parent, [v * 0.8 for v in parent]), "lower", 0.1)[0] == "improved"
    assert compare.verdict(_pairs(parent, [v * 1.3 for v in parent]), "lower", 0.1)[0] == "worse"
    assert compare.verdict(_pairs(parent, list(parent)), "lower", 0.1)[0] == "unchanged"
    noisy = [10.0, 14.0] * 5
    assert compare.verdict(_pairs(noisy, noisy[::-1]), "lower", 0.1)[0] == "unresolved"
    # Higher is better: a 20% rise in throughput is a gain.
    assert compare.verdict(_pairs(parent, [v * 1.2 for v in parent]), "higher", 0.1)[0] == "improved"
    # Fewer than ten pairs never claim a gain.
    assert compare.verdict(_pairs(parent[:5], [v * 0.8 for v in parent[:5]]), "lower", 0.1)[0] == "unchanged"
