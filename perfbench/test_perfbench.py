"""Tests of the benchmark itself, at toy sizes.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

cubekit = run.import_cubekit()

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NO_PINS = {"default_seed": 0, "reports": {}}


def toy_run(name: str, tmp_path: Path, seed: int = 1, pins=NO_PINS, tracer=None) -> run.Run:
    r = run.Run(workloads.toy(WORKLOADS[name]), seed, pins)
    if tracer is not None:
        tracer.phase = "setup"
        tracer.install()
    try:
        r.set_up(tmp_path)
        if tracer is not None:
            tracer.phase = "run"
        r.timings = run.measure(r, 0)
    finally:
        if tracer is not None:
            tracer.restore()
    return r


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_runs_at_toy_size(name, tmp_path):
    r = toy_run(name, tmp_path)
    w = workloads.toy(WORKLOADS[name])
    assert r.failures == []
    assert len(r.fixtures) == w.pool
    assert r.attempted == max(w.pool, run.SETUP_REPEATS) + w.pool * len(w.commands)


def test_benchmark_json_names_the_workloads_and_metrics():
    spec = json.loads(run.SPEC.read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == ["run_s", "setup_s", "peak_rss_mb"]
    names = {m["name"] for m in spec["per_layer"]}
    for span in workloads.PREDICTED:
        assert any(n.startswith(span + ".") for n in names), span


def _bindings(package) -> dict:
    return {
        (mod.__name__, attr): value
        for mod in tracing.package_modules(package)
        for attr, value in vars(mod).items()
        if callable(value)
    }


def test_wrappers_cover_every_binding_site_and_are_restored():
    from cubekit.applications import TreeProduct
    from cubekit.graphs import UnitGraph
    from cubekit.median import MedianAlgebra

    before = _bindings(cubekit)
    prop_func = UnitGraph.__dict__["distance_matrix"].func
    bulk = (MedianAlgebra.median_bulk, TreeProduct.median_bulk)
    originals = {id(fn) for fn in tracing.traced_functions(cubekit).values()}
    t = tracing.Tracer(cubekit)
    t.install()
    try:
        during = _bindings(cubekit)
        for key, value in before.items():
            if id(value) in originals:
                assert during[key] is not value, key
                assert during[key].__wrapped__ is value, key
        # names imported by value, which a patch of the defining module misses
        for mod, attr in [
            ("cubekit.applications", "connectify_and_close_in"),
            ("cubekit.cli", "is_median_graph"),
            ("cubekit.cli", "validate_instance"),
            ("cubekit.hhs", "is_median_graph"),
            ("cubekit.fixtures", "validate_instance"),
            ("cubekit", "hyperplane_decomposition"),
        ]:
            assert during[(mod, attr)] is not before[(mod, attr)], (mod, attr)
        assert UnitGraph.__dict__["distance_matrix"].func is not prop_func
    finally:
        t.restore()
    after = _bindings(cubekit)
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    assert UnitGraph.__dict__["distance_matrix"].func is prop_func
    assert (MedianAlgebra.median_bulk, TreeProduct.median_bulk) == bulk


def _span(name, start, end, parent):
    return tracing.Span(name, start, end, parent, "run")


def test_self_time_is_span_minus_children():
    spans = [
        _span("a", 0.0, 10.0, -1),
        _span("b", 1.0, 4.0, 0),
        _span("d", 2.0, 3.0, 1),
        _span("c", 5.0, 6.5, 0),
        _span("a", 7.0, 8.0, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([4.5, 2.0, 1.0, 1.5, 1.0])
    selfs = tracing.self_times(spans)
    # a nested call of the same function is not counted twice in `.s`
    assert tracing.layer_metric(spans, selfs, "a.s", 1) == pytest.approx(10.0)
    assert tracing.layer_metric(spans, selfs, "a.self_s", 2) == pytest.approx(2.75)
    assert tracing.layer_metric(spans, selfs, "a.calls", 1) == 2


def test_self_times_of_a_traced_run_sum_to_root_spans(tmp_path):
    t = tracing.Tracer(cubekit)
    toy_run("promote-grid", tmp_path, tracer=t)
    selfs = tracing.self_times(t.spans)
    roots = sum(s.end - s.start for s in t.spans if s.parent < 0)
    assert sum(selfs) == pytest.approx(roots)
    assert min(selfs) >= 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_predicted_spans_are_called(name, tmp_path):
    t = tracing.Tracer(cubekit)
    toy_run(name, tmp_path, tracer=t)
    called = {(s.phase, s.name) for s in t.spans}
    for span, on in workloads.PREDICTED.items():
        if name not in on:
            continue
        if span.startswith("setup."):
            assert ("setup", span[len("setup."):]) in called, span
        else:
            assert ("run", span) in called, span


def test_closure_counts_on_a_closed_input(tmp_path):
    t = tracing.Tracer(cubekit)
    r = toy_run("promote-grid", tmp_path, tracer=t)
    spans, selfs = run._subset(t.spans, tracing.self_times(t.spans), "run")
    per = len(run.flatten(r.timings.cpu))
    assert tracing.layer_metric(spans, selfs, "median.closure_of.median_evals", per) > 0
    assert tracing.layer_metric(spans, selfs, "median.closure_of.closure_yield", per) == 0


def test_pinned_hash_mismatch_is_a_failure(tmp_path):
    # a workload whose reports do not depend on the labelling is held to
    # its default-seed pins at every seed
    w = WORKLOADS["promote-grid"]
    pins = {"default_seed": 0, "reports": {"0": {w.name: [["0" * 64]]}}}
    r = toy_run(w.name, tmp_path, seed=5, pins=pins)
    assert r.failures and "pinned" in r.failures[0]


def test_sampled_workloads_are_gated_at_pinned_seeds_only():
    pins = workloads.load_pins()
    sampled = WORKLOADS["helly-tree"]
    assert workloads.pinned_reports(sampled, pins["default_seed"], pins)
    assert workloads.pinned_reports(sampled, pins["held_out_seed"], pins)
    assert workloads.pinned_reports(sampled, 3, pins) is None
    for w in WORKLOADS.values():
        got = workloads.pinned_reports(w, pins["held_out_seed"], pins)
        assert got is not None and len(got) == w.pool, w.name
        assert all(len(row) == len(w.commands) for row in got), w.name


def test_report_invariants_and_exit_codes():
    ok = json.dumps({"median_closed": True, "isometric": True, "one_connected": True})
    bad = json.dumps({"median_closed": True, "isometric": False, "one_connected": True})
    assert workloads.check_report("promote", 0, ok) is None
    assert "isometric" in workloads.check_report("promote", 0, bad)
    assert "exited 2" in workloads.check_report("promote", 2, ok)
    assert workloads.check_report("validate", 0, json.dumps({"ok": False})) is not None
    assert workloads.check_report("psi", 0, "") is not None


def test_unplaceable_axes_are_a_setup_failure(tmp_path):
    import dataclasses

    w = dataclasses.replace(WORKLOADS["helly-tree"], n=5)
    r = run.Run(w, 0, NO_PINS)
    r.set_up(tmp_path)
    assert r.fixtures == {}
    assert r.attempted == max(w.pool, run.SETUP_REPEATS)
    assert len(r.failures) == r.attempted


def test_relabelling_keeps_the_promote_report(tmp_path):
    w = workloads.toy(WORKLOADS["promote-tree"])
    reports = set()
    texts = set()
    for seed in (1, 2):
        fx = workloads.set_up(w, seed, 0, tmp_path)
        texts.add(fx.text)
        code, report = workloads.call(fx, w.commands[0])
        assert code == 0
        reports.add(report)
    assert len(texts) == 2 and len(reports) == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_*", ".*"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "promote-grid", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_run_s_scales_cpu_time_to_the_reference_speed():
    # a host at half the reference speed doubles both the invocation and
    # the calibration samples; run_s stays at the reference-speed time
    t = run.Timings({0: [2.0, 4.0, 3.0], 1: [5.0]}, {}, [2 * run.CALIBRATION_REF_S] * 3)
    assert t.run_s() == pytest.approx((3.0 + 5.0) / 2 / 2)
