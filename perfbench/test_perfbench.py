"""Tests of the benchmark's own logic.  Run: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import metrics  # noqa: E402
import spans as spanlib  # noqa: E402
import worker  # noqa: E402


def test_tail_leaves_ten_samples_beyond_and_is_the_highest_such():
    for n in range(20, 3000, 7):
        values = [float(v) for v in range(n)]
        p, value, count = metrics.tail(values)
        assert count == n
        assert sum(1 for v in values if v > value) >= metrics.TAIL_BEYOND
        higher = [q for q in metrics.TAIL_LADDER if q > p]
        if higher:
            q = min(higher)
            assert sum(1 for v in values if v > metrics.percentile(values, q)) < metrics.TAIL_BEYOND


def test_tail_brackets():
    # 37 samples: the 75th percentile sits on the 28th value, 9 beyond it
    assert metrics.tail(list(range(37)))[0] == 50.0
    assert metrics.tail(list(range(38)))[0] == 75.0
    assert metrics.tail(list(range(92)))[0] == 90.0
    assert metrics.tail(list(range(1000)))[0] == 99.0
    # too few samples for any percentile: the median, with the count shown
    assert metrics.tail([3.0, 1.0, 2.0]) == (50.0, 2.0, 3)


def _span(name, start, end, parent):
    s = spanlib.Span(name, start, parent, "case")
    s.end = end
    return s


def test_self_time_nested_and_sibling_spans():
    spans = [
        _span("cli.main", 0.0, 10.0, -1),       # 0
        _span("sets.product_set", 1.0, 4.0, 0),  # 1: child of 0
        _span("groups.build_group", 2.0, 3.0, 1),  # 2: grandchild of 0
        _span("sets.product_set", 5.0, 7.0, 0),  # 3: sibling of 1
    ]
    assert spanlib.self_times(spans) == [5.0, 2.0, 1.0, 2.0]
    own = spanlib.self_ms(spans)
    assert own["cli"] == 5000.0
    assert own["sets"] == 4000.0
    assert own["groups"] == 1000.0
    assert own["sets.product_set"] == 4000.0
    assert spanlib.inclusive_ms(spans)["sets.product_set"] == 5000.0
    # layer self times add up to the root span
    assert sum(own[layer] for layer in ("cli", "sets", "groups")) == 10000.0


def test_inclusive_time_counts_a_recursive_chain_once():
    spans = [
        _span("baselines.f", 0.0, 8.0, -1),
        _span("baselines.f", 1.0, 5.0, 0),
        _span("baselines.f", 2.0, 3.0, 1),
    ]
    assert spanlib.inclusive_ms(spans)["baselines.f"] == 8000.0
    assert spanlib.self_ms(spans)["baselines.f"] == 8000.0


def test_classify_exit_codes():
    c = metrics.classify
    assert c("analyze", 0, None) == "analyze"
    assert c("analyze", 1, None) == "fail"
    assert c("extract", 0, 0) == "certified"
    assert c("extract", 0, 1) == "fail"  # verify FAIL
    assert c("extract", 2, 1) == "miss"  # partial certificate rejected
    assert c("extract", 2, None) == "miss"  # no certificate written
    assert c("extract", 2, 0) == "fail"  # a partial certificate must not verify
    assert c("extract", 1, None) == "fail"


def test_calibrated_times_cancel_machine_speed():
    def passes(speed):
        recs = [
            {"id": "a", "seconds": 0.5 * speed, "class": "certified"},
            {"id": "b", "seconds": 2.0 * speed, "class": "miss"},
        ]
        return [{"seconds": 2.5 * speed, "cal": 0.02 * speed, "cases": recs}] * 3

    info = {"a": {"size": 10, "witness": 3}, "b": {"size": 10}}
    fast, slow = metrics.end_to_end(passes(1.0), info), metrics.end_to_end(passes(1.3), info)
    assert slow["pass_s"] > fast["pass_s"]
    for key in ("pass_cal", "case_p50_cal", "case_tail_cal"):
        assert abs(slow[key] - fast[key]) < 1e-9
    assert abs(fast["pass_cal"] - 125.0) < 1e-9
    assert fast["miss_share"] == 0.5 and fast["answered_share"] == 0.5
    assert abs(fast["witness_density"] - 0.3) < 1e-12
    assert abs(fast["witness_share"] - 0.3) < 1e-12


def test_tail_percentile_does_not_depend_on_the_number_of_passes():
    # 11 cases: 4 passes give p75; 9 passes would give p90 by sample count
    def passes(n):
        recs = [{"id": f"c{i}", "seconds": 0.1 * (i + 1), "class": "certified"} for i in range(11)]
        return [{"seconds": 6.6, "cal": 0.02, "cases": recs}] * n

    info = {f"c{i}": {"size": 10} for i in range(11)}
    runs = [metrics.end_to_end(passes(n), info) for n in (3, 4, 9, 20)]
    assert {r["tail_percentile"] for r in runs} == {75.0}
    assert [r["case_samples"] for r in runs] == [33, 44, 99, 220]
    assert len({round(r["case_tail_cal"], 9) for r in runs}) == 1


def test_witness_share_drops_when_a_witness_shrinks():
    recs = [
        {"id": "a", "seconds": 1.0, "class": "certified"},
        {"id": "b", "seconds": 1.0, "class": "analyze", "settled": True},
        {"id": "c", "seconds": 1.0, "class": "analyze", "settled": False},
    ]
    passes = [{"seconds": 3.0, "cal": 0.02, "cases": recs}]
    info = {
        "a": {"size": 30, "witness": 12},
        "b": {"size": 20, "witness": 8},
        "c": {"size": 500},
        "d": {"size": 20, "witness": 2, "seeded": True},  # left out
    }
    passes[0]["cases"].append({"id": "d", "seconds": 1.0, "class": "analyze", "settled": True})
    full = metrics.end_to_end(passes, info)["witness_share"]
    assert abs(full - 0.4) < 1e-12
    info["a"]["witness"] = 11
    assert metrics.end_to_end(passes, info)["witness_share"] < full


def test_workload_matrix_is_well_formed():
    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as fh:
        workloads = json.load(fh)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads)
    for spec in workloads.values():
        ids = [case["id"] for case in spec["cases"]]
        assert len(ids) == len(set(ids))
        for case in spec["cases"]:
            assert case["expect"] in ("certified", "miss", "analyze")
            assert case["why"] and "\n" not in case["why"]
            assert (case["argv"][0] == "analyze") == (case["expect"] == "analyze")


def test_traced_pass_accounts_for_its_time_and_restores_bindings():
    import prodfree.cli as cli
    import prodfree.sets as sets

    original = sets.product_set
    cases = [
        {"id": "a", "argv": ["extract", "thm33", "interval:50"], "expect": "certified"},
        {"id": "b", "argv": ["extract", "solvable", "full-group-minus-identity:sym:4"],
         "expect": "certified"},
        {"id": "c", "argv": ["extract", "thm33", "full-group:sym:4"], "expect": "miss"},
        {"id": "d", "argv": ["analyze", "random:cyclic:128:20", "--k", "2"], "expect": "analyze"},
        {"id": "e", "argv": ["extract", "alon-kleitman", "full-group-minus-identity:cyclic:30"],
         "expect": "certified"},
    ]
    with tempfile.TemporaryDirectory() as tmp:
        runner = worker.Runner(cli, 3, tmp)
        tracer = spanlib.Tracer()
        result = worker.run_pass(runner, cases, tracer)
        info, bad, mismatches = worker.check(runner, cases, [result])
    assert sets.product_set is original
    assert bad == {} and mismatches == []
    assert [r["class"] for r in result["cases"]] == [
        "certified", "certified", "miss", "analyze", "certified"]
    layer = result["layer"]
    # Self times split each cli.main span exactly, so this share falls only
    # when the harness's own work between CLI calls grows.
    assert 0.95 <= layer["trace.accounted_share"] <= 1.0
    # Work the tracer stops seeing (a call through an alias it does not
    # wrap, a renamed function) leaves a layer metric at zero.  These cases
    # reach every stage; only stage failures other than halving stay zero.
    may_be_zero = {
        "pipeline.stage_failed.petridis",
        "pipeline.stage_failed.localize",
        "pipeline.stage_failed.pigeonhole",
    }
    assert [k for k, v in layer.items() if not v and k not in may_be_zero] == []
    assert layer["groups.kmul_calls"] > 0
    assert layer["sets.product_set_calls"] > 0
    assert layer["pipeline.stage_failed.halving"] == 1
    assert layer["sets.cover_attempted"] == 1
    assert layer["certificates.bytes"] > 0
    assert {s[4] for s in result["spans"]} == {"a", "b", "c", "d", "e"}
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        names = {m["name"] for m in json.load(fh)["per_layer"]}
    assert names == set(metrics.per_layer([layer], 1.0))
