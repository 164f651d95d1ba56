"""Tests for the benchmark's own code.  Run from the repository root:

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import tracelab as tl  # noqa: E402
import workloads  # noqa: E402
from tracer import Target, Tracer, roots_balance, self_times  # noqa: E402


# -- family-pipeline generator ------------------------------------------------


def test_random_stream_repeats_for_a_seed():
    assert workloads.random_stream(7) == workloads.random_stream(7)
    assert workloads.random_stream(7) != workloads.random_stream(8)


def test_random_stream_shape_is_fixed_and_symmetrizable():
    a, b = workloads.random_stream(1), workloads.random_stream(2)
    assert [f.n for f in a] == [f.n for f in b] == [10 + i % 7 for i in range(120)]
    for f in a:
        both = (1 << (f.x - 1)) | (1 << (f.y - 1))
        assert f.x != f.y and all(m & both != both for m in f.masks)


def test_build_is_deterministic_for_every_workload():
    for w in workloads.WORKLOADS:
        one, two = workloads.build(w, 5, "tiny"), workloads.build(w, 5, "tiny")
        assert one.instances == two.instances and one.families == two.families


# -- span arithmetic ------------------------------------------------------------


def _span(name, start, end, parent):
    return [name, start, end, parent, "q"]


def test_self_times_on_a_nested_tree():
    spans = [
        _span("root", 0, 100, None),
        _span("a", 10, 40, 0),
        _span("a.child", 20, 30, 1),
        _span("b", 50, 90, 0),
        _span("other-root", 200, 210, None),
    ]
    assert self_times(spans) == [100 - 30 - 40, 30 - 10, 10, 40, 10]
    assert roots_balance(spans)


def test_self_times_count_overlapping_children_once():
    spans = [_span("root", 0, 100, None), _span("b", 50, 90, 0), _span("c", 80, 120, 0)]
    # children cover [50, 100] of the root once they are clipped and merged
    assert self_times(spans) == [50, 40, 40]
    assert not roots_balance(spans)


# -- percentile rule ----------------------------------------------------------


def test_solve_seconds_sums_per_call_medians():
    def calls(*secs):
        return [{"seconds": x} for x in secs]

    passes = [calls(1.0, 10.0), calls(3.0, 11.0), calls(2.0, 30.0)]
    assert metrics.solve_seconds(passes) == 2.0 + 11.0
    assert metrics.solve_seconds(passes[:1]) == 11.0


def test_percentile_interpolates():
    assert metrics.percentile([5, 1, 3, 2, 4], 50) == 3
    assert metrics.percentile([0, 10], 90) == pytest.approx(9.0)


def test_percentile_needs_ten_samples_beyond_it():
    assert metrics.percentile_supported(100, 90)
    assert not metrics.percentile_supported(99, 90)
    assert metrics.percentile_supported(20, 50)
    assert not metrics.percentile_supported(19, 50)
    assert metrics.latency_summary([0.001] * 100).keys() == {"samples", "p50_ms", "p90_ms"}
    assert metrics.latency_summary([0.001] * 50).keys() == {"samples", "p50_ms"}
    assert metrics.latency_summary([0.001] * 5) == {"samples": 5}


# -- tracer -----------------------------------------------------------------------


def test_tracer_wraps_and_restores_library_names():
    import tracelab.search as search

    before = (search.mask_stabilizer, tl.is_downset, tl.SetFamily.__dict__["from_masks"])
    tracer = Tracer()
    tracer.install()
    try:
        assert search.mask_stabilizer is not before[0]
        tracer.on = True
        calls = workloads.run_pass(workloads.build("proof-ladder", 0, "tiny"), tracer)
        tracer.on = False
    finally:
        tracer.uninstall()
    assert (search.mask_stabilizer, tl.is_downset, tl.SetFamily.__dict__["from_masks"]) == before
    assert all(c.ok for c in calls) and tracer.missing == []
    roots = [s for s in tracer.spans if s[3] is None]
    assert [s[0] for s in roots] == ["search.query"] * len(calls)
    assert roots_balance(tracer.spans)
    kinds = {s[0] for s in tracer.spans}
    assert {"search.build", "perm.canonicalize", "search.verify", "cancellative.verify"} <= kinds
    assert tracer.counts["perm.apply"] > 0


def test_missing_names_make_their_metrics_absent():
    tracer = Tracer()
    tracer.install([Target("tracelab._perm", "no_such_function", "perm.apply")])
    tracer.uninstall()
    assert tracer.missing[0] == "tracelab._perm.no_such_function"
    got = metrics.span_metrics([], {}, [], [], ["tracelab._perm.apply_perm"])
    assert "perm.apply_calls" not in got and "perm.stabilizer_s" in got


# -- correctness gate -------------------------------------------------------------


def test_gate_rejects_a_wrong_witness_and_a_wrong_proof():
    inst = workloads.Instance("ex3-k4-5", "ex3", {"n": 5}, 7)
    k4 = [0b0111, 0b1011, 0b1101, 0b1110]
    call = workloads.Call("ex3-k4-5", 0.0, True, optimum=4, proved=False, ref=7)
    assert "K4" in workloads.check_search_call(inst, call, 5, k4)
    fine = k4[:3]
    call = workloads.Call("ex3-k4-5", 0.0, True, optimum=3, proved=True, ref=7)
    assert "reference" in workloads.check_search_call(inst, call, 5, fine)
    call.proved = False
    assert workloads.check_search_call(inst, call, 5, fine) is None


def test_nodes_are_read_at_top_level_or_under_stats():
    assert workloads._nodes_of({"nodes": 5}) == 5
    assert workloads._nodes_of({"stats": {"nodes": 6}}) == 6


# -- smoke runs -----------------------------------------------------------------------


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_prints_a_correct_result(workload, trace):
    out = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.2",
               "--trace", trace, "--scale", "tiny")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = bench["end_to_end"] if trace == "0" else bench["per_layer"]
    names = {m["name"] for m in want}
    if trace == "1":
        # the tiny stream is too short to support family percentiles
        names -= {"pipeline.family_p50_ms", "pipeline.family_p90_ms"}
    assert names <= set(result["metrics"])
    for m in want:
        if m["name"] in result["metrics"]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_run_refuses_a_directory_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = _run(tmp_path, "--workload", "proof-ladder", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
