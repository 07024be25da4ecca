"""Tests of the benchmark's own helpers: python3 -m pytest perfbench"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def span(name, start, end, parent=None, **attrs):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "attrs": attrs}


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

def test_tracer_records_nesting():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * inner(x),
                        attrs=lambda args, result: {"rows": args[0]})
    assert outer(2) == 9
    names = [s["name"] for s in tracer.spans]
    assert names == ["outer", "inner", "inner"]
    assert [s["parent"] for s in tracer.spans] == [None, 0, 0]
    assert tracer.spans[0]["attrs"] == {"rows": 2}
    assert all(s["end"] >= s["start"] for s in tracer.spans)


def test_tracer_closes_span_on_exception():
    tracer = spans.Tracer()

    def boom():
        raise RuntimeError("x")
    with pytest.raises(RuntimeError):
        tracer.wrap("boom", boom)()
    after = tracer.wrap("after", lambda: None)
    after()
    assert tracer.spans[0]["end"] is not None
    assert tracer.spans[1]["parent"] is None


def test_self_time_subtracts_covered_child_time():
    trace = [span("macro", 0.0, 10.0),
             span("a", 1.0, 3.0, 0),
             span("b", 2.0, 5.0, 0),      # overlaps a: union 1..5
             span("c", 6.0, 7.0, 0),
             span("d", 6.2, 6.8, 3)]      # grandchild, inside c
    assert spans.self_time(trace, 0) == pytest.approx(10.0 - 4.0 - 1.0)
    assert spans.self_time(trace, 3) == pytest.approx(1.0 - 0.6)
    assert spans.self_time(trace, 4) == pytest.approx(0.6)


def test_total_time_counts_nested_same_name_once():
    trace = [span("x", 0.0, 4.0), span("x", 1.0, 2.0, 0),
             span("y", 5.0, 6.0), span("x", 5.5, 6.0, 2)]
    assert spans.total_time(trace, "x") == pytest.approx(4.5)


def test_layer_metrics_counts():
    trace = [
        span("effective.eval_batch", 0.0, 4.0, rows=10),
        span("effective.solve_loadings", 0.5, 4.0, 0, rows=4),
        span("cell_problems.batch_solve", 0.5, 4.0, 1, rows=4, iterations=9),
        span("cell_problems.solve_scalar_cell", 3.0, 3.5, 2, iterations=5),
        span("cell_problems.solve_scalar_cell", 4.5, 5.0, None,
             iterations=2),
        span("fine_scale.electrostatic", 5.0, 6.0, eps=0.25, iterations=3),
        span("fine_scale.electrostatic", 6.0, 8.0, eps=0.125, iterations=4),
        span("fine_scale.elasticity", 8.0, 9.5, eps=0.125),
        span("fem.splu", 8.0, 9.0, 7, nnz=100),
    ]
    m = spans.layer_metrics(trace, run_s=10.0)
    assert m["effective.queries"] == 10
    assert m["effective.hit_ratio"] == pytest.approx(0.6)
    assert m["cell_problems.loadings"] == 4
    assert m["cell_problems.newton_iters"] == 9
    assert m["cell_problems.loadings_per_s"] == pytest.approx(4 / 3.5)
    assert m["cell_problems.stragglers"] == 1
    assert m["fine_scale.finest_rung.s"] == pytest.approx(3.5)
    assert m["fine_scale.newton_iters"] == 7
    assert m["fem.splu.calls"] == 1 and m["fem.splu.fill_nnz"] == 100
    assert m["share.effective_cell"] == pytest.approx(0.45)
    assert m["share.fine_scale"] == pytest.approx(0.45)
    assert set(m) | {"trace.overhead_s"} == set(spans.LAYER_UNITS)


def test_instrument_rebinds_every_hk_namespace_and_restores():
    import hk.cell_problems
    import hk.cli
    import hk.effective
    original = hk.cell_problems.solve_scalar_cell
    tracer = spans.Tracer()
    restore = spans.instrument(tracer, [
        ("cell", "hk.cell_problems", "solve_scalar_cell", None),
        ("law", "hk.effective", "EffectiveLaw.eval_batch", None)])
    try:
        for module in (hk.cell_problems, hk.effective, hk.cli):
            assert module.solve_scalar_cell is not original
        assert hk.effective.EffectiveLaw.eval_batch.__wrapped__
    finally:
        restore()
    for module in (hk.cell_problems, hk.effective, hk.cli):
        assert module.solve_scalar_cell is original
    assert not hasattr(hk.effective.EffectiveLaw.eval_batch, "__wrapped__")


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

def test_summarize_reports_median_and_sample_count():
    s = run.summarize([3.0, 1.0, 2.0, 10.0], "s")
    assert s["value"] == 2.5 and s["n"] == 4 and s["unit"] == "s"
    line = run.format_metric("run_s", s)
    assert "run_s" in line and "n=4" in line and " s " in line


def fake_run(run_s, failures=(), trace=False):
    return {"setup_s": 0.5, "run_s": run_s, "peak_rss_mib": 100.0,
            "failures": list(failures), "trace": trace, "spans": [],
            "accuracy": {"E_exp_finest": 0.01, "E_exp_rate": 0.9}}


def test_failed_runs_are_counted_not_timed():
    runs = [fake_run(9.0), fake_run(1.0), fake_run(50.0, ["gate"]),
            fake_run(3.0), fake_run(2.0)]
    result = run.summarize_runs("study-p3", runs, trace=False)
    assert result["attempted"] == 5 and result["failed"] == 1
    assert not result["correct"]
    e2e = result["end_to_end"]
    assert e2e["run_s"]["value"] == 2.0 and e2e["run_s"]["n"] == 3
    assert e2e["failed_fraction"]["value"] == pytest.approx(0.2)
    line = run.contract_line(result, trace=False)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == set(run.END_TO_END_UNITS)


def test_metric_name_check():
    run.check_metric_names(list(run.END_TO_END_UNITS)
                           + list(spans.LAYER_UNITS))
    for bad in ("_fem.splu.s", "a b", "x" * 65, "", "run/s"):
        with pytest.raises(ValueError):
            run.check_metric_names([bad])


def test_benchmark_json_matches_emitted_metrics():
    with open(BENCH.parent / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} \
        == spans.LAYER_UNITS
    assert {w["name"]: w["why"] for w in bench["workloads"]} \
        == {w.name: w.why for w in workloads.WORKLOADS.values()}


# ---------------------------------------------------------------------------
# Gates
# ---------------------------------------------------------------------------

def study_report(**changes):
    report = {"errors": {"E_exp": [0.4, 0.2, 0.1], "E_avg": [0.5, 0.3, 0.2],
                         "E_dm": [0.9, 0.6, 0.4]},
              "rates": {"E_exp": 1.0, "E_avg": 0.7, "E_dm": 0.58},
              "cell_residual_max": 1e-11}
    report.update(changes)
    return report


def test_study_gate_passes_good_report():
    report = study_report()
    assert workloads.check_study(report, report["errors"]) == []


@pytest.mark.parametrize("changes, reference", [
    ({"errors": {"E_exp": [0.4, 0.4, 0.1], "E_avg": [0.5, 0.3, 0.2],
                 "E_dm": [0.9, 0.6, 0.4]}}, None),
    ({"rates": {"E_exp": 1.0, "E_avg": 0.2, "E_dm": 0.58}}, None),
    ({"rates": {"E_exp": None, "E_avg": 0.7, "E_dm": 0.58}}, None),
    ({"cell_residual_max": 1e-6}, None),
    ({}, {"E_exp": [0.4, 0.2, 0.1001], "E_avg": [0.5, 0.3, 0.2],
          "E_dm": [0.9, 0.6, 0.4]}),
])
def test_study_gate_rejects_bad_report(changes, reference):
    report = study_report(**changes)
    assert workloads.check_study(report, reference or report["errors"])


def test_effective_gate():
    good = {"a_hom_unit_loadings": [[16.0 / 9.0, 1e-17], [0.0, 2.5]],
            "a_hom_properties": {"violation": False}}
    assert workloads.check_effective(good) == []
    off = json.loads(json.dumps(good))
    off["a_hom_unit_loadings"][0][0] *= 1.0 + 1e-7
    assert workloads.check_effective(off)
    violated = json.loads(json.dumps(good))
    violated["a_hom_properties"]["violation"] = True
    assert workloads.check_effective(violated)


def test_reference_covers_every_study():
    reference = workloads.load_reference()
    for name, workload in workloads.WORKLOADS.items():
        if workload.is_study:
            assert set(reference[name]) == set(workloads.STUDY_ERRORS)
