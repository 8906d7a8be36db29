"""Tests of the benchmark's own arithmetic: self times, the report
comparator, the tracer's rebinding, and the metric names BENCHMARK.json
promises.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from run import END_TO_END, SRC, per_layer_names
from tracer import TARGETS, TracerError, check_hits, layer_metrics, summarize
from workloads import (alt7_graph_text, check_map_report, compare_reports,
                       perturbed_sym4_hom)

ROOT = Path(__file__).resolve().parent.parent


def _span(i, name, start, end, parent=None):
    return {"job": "j", "id": i, "name": name, "start": start, "end": end,
            "parent": parent}


def _summary_record(start, end, calls=None, unique=None):
    return {"job": "j", "start": start, "end": end, "calls": calls or {},
            "unique": unique or {}}


def test_self_time_subtracts_direct_children_only():
    s = 10 ** 9  # nanoseconds per second
    records = [
        _span(0, "a", 0, 100 * s),
        _span(1, "b", 10 * s, 40 * s, parent=0),
        _span(2, "c", 15 * s, 25 * s, parent=1),
        _span(3, "d", 50 * s, 60 * s, parent=0),
        _span(4, "b", 110 * s, 115 * s),
        _summary_record(0, 120 * s),
    ]
    out = summarize(records)
    assert out["self_s"] == {"a": 60.0, "b": 25.0, "c": 10.0, "d": 10.0}
    assert out["covered_s"] == 105.0  # the two root spans
    assert out["wall_s"] == 120.0


def test_layer_metrics_sum_jobs_and_report_ratios():
    ident = next(t.ident for t in TARGETS if t.span == "stability.enumerate_homs")
    jobs = [{"self_s": {"stability.enumerate_homs": 1.5}, "calls": {ident: 720},
             "unique": {"stability.enumerate_homs": 1}},
            {"self_s": {"stability.enumerate_homs": 0.5}, "calls": {ident: 2},
             "unique": {"stability.enumerate_homs": 2}}]
    m = layer_metrics(jobs)
    assert m["stability.enumerate_homs_s"] == 2.0
    assert m["stability.enumerate_homs_calls"] == 722
    assert m["stability.enumerate_homs_unique_ratio"] == 3 / 722
    assert m["groups.centralizer_unique_ratio"] == 0.0  # never called


def test_check_hits_names_targets_missed_on_their_heavy_workload():
    calls = {t.ident: 1 for t in TARGETS if t.heavy == "actions"}
    check_hits("actions", calls)
    calls.pop("permlab.schreier:components")
    with pytest.raises(TracerError, match="permlab.schreier:components"):
        check_hits("actions", calls)


def test_compare_reports_exact_except_seed_ignored_keys_and_gap():
    report = {"seed": 0, "config": {"graph": "regular:alt7", "mode": "report"},
              "spectral_gap": 0.2, "n": 2520, "connected": True,
              "checks": [{"check": "x", "pass": True}]}
    same = json.loads(json.dumps(report))
    assert compare_reports(report, same) == []
    same["seed"] = 7
    same["spectral_gap"] = 0.2 + 5e-10
    same["config"]["graph"] = "file:/elsewhere"
    assert compare_reports(report, same, ignore=("config.graph",)) == []
    assert compare_reports(report, same) == [
        "config.graph: 'file:/elsewhere' != 'regular:alt7'"]
    same["spectral_gap"] = 0.2 + 1e-6
    assert compare_reports(report, same, ("config.graph",)) == [
        f"spectral_gap: {0.2 + 1e-6!r} != 0.2"]


@pytest.mark.parametrize("change, problem", [
    (lambda r: r.update(n=2519), "n: 2519 != 2520"),
    (lambda r: r.update(connected=1), "connected: 1 != True"),
    (lambda r: r["checks"].append({}), "checks: length 2 != 1"),
    (lambda r: r.pop("n"), "n: missing"),
    (lambda r: r.update(extra=None), "extra: unexpected"),
    (lambda r: r.update(n=2520.0), "n: 2520.0 != 2520"),
])
def test_compare_reports_flags_each_kind_of_difference(change, problem):
    report = {"n": 2520, "connected": True, "checks": [{"pass": True}]}
    changed = json.loads(json.dumps(report))
    change(changed)
    assert compare_reports(report, changed) == [problem]


def test_seeded_inputs_repeat_per_seed_and_differ_across_seeds():
    assert alt7_graph_text(random.Random(3)) == alt7_graph_text(random.Random(3))
    assert alt7_graph_text(random.Random(3)) != alt7_graph_text(random.Random(4))


def test_map_check_recomputes_the_defect():
    domain, images, planted = perturbed_sym4_hom(random.Random(5))
    check = check_map_report(domain, images, planted)
    assert check({"defect": 0, "nearest": {"distance": 0}})[0].startswith("defect 0")
    exact = check_map_report(domain, planted, planted)
    assert exact({"defect": 0, "nearest": {"distance": 0}}) == []


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == per_layer_names()


def test_tracer_rebinds_imported_names_and_class_methods():
    code = """
import sys
sys.path.insert(0, sys.argv[1])
import permlab.cli, permlab.rigidity, permlab.schreier
from permlab.groups import FiniteGroup
from permlab.perms import Permutation
from tracer import Target, Tracer, TracerError
try:
    Tracer(job="t", targets=(Target("x", "permlab.perms", "gone", "actions"),)).install()
    raise SystemExit("a missing target was not reported")
except TracerError as exc:
    assert "permlab.perms:gone" in str(exc)
original = permlab.schreier.components
t = Tracer(job="t")
t.install()
assert permlab.cli.components is permlab.rigidity.components
assert permlab.cli.components is permlab.schreier.components
assert permlab.cli.components.__wrapped__ is original
assert FiniteGroup.__dict__["centralizer_of"].__wrapped__ is not None
assert sys.modules["permlab.fo.evaluate"].evaluate_detailed.__wrapped__
Permutation((1, 0))
assert t.calls["permlab.perms:Permutation.__post_init__"] == 1
assert permlab.cli.main(["schreier", "--graph", "cycle:3", "-o", sys.argv[2]]) == 0
# once from cli, once through component_mass_profile
assert t.calls["permlab.schreier:components"] == 2
print("ok")
"""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = ROOT / "perfbench" / ".work"
    out.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "perfbench"), str(out / "t.json")],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.stdout.strip() == "ok", proc.stderr
