"""Self-tests of the benchmark: span arithmetic, oracles, fixtures."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from types import SimpleNamespace

import calibrate
import scenarios
import spantrace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _span(span_id, parent, name, start, end, **attrs):
    return {"id": span_id, "parent": parent, "name": name, "start": start,
            "end": end, "thread": 1, "attrs": attrs}


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0, None, "pass", 0.0, 10.0),
        _span(1, 0, "sim.run", 1.0, 4.0, design="block", requests=100),
        _span(2, 0, "exp.store.put", 3.0, 6.0),  # overlaps its sibling
        _span(3, 1, "workloads.gen", 2.0, 3.0, requests=100),
        _span(4, 0, "exp.store.get", 9.0, 12.0),  # sticks out of its parent
    ]
    own = spantrace.self_times(spans)
    assert own == {0: 10.0 - 5.0 - 1.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 3.0}

    report = spantrace.layer_report(spans, wall_s=10.0)
    assert report["sim.replay_s.block"] == 2.0
    assert report["sim.requests_per_s.block"] == 50.0
    assert report["sim.replay_s.page"] == 0.0
    assert report["workloads.gen_s"] == 1.0
    assert report["workloads.gen_requests"] == 100
    assert report["exp.store.put_s"] == 3.0
    assert report["exp.store.get_calls"] == 1
    # Named layers: 2 + 3 + 1 + 3 of the 10 s wall; the root is not a layer.
    assert report["layers.leaf_share_pct"] == 90.0


def test_analysis_time_is_attributed_to_the_rendering_figure():
    spans = [
        _span(0, None, "reporting.render", 0.0, 5.0, figure="fig04"),
        _span(1, 0, "analysis", 0.5, 4.5),
        _span(2, 1, "workloads.gen", 1.0, 2.0, requests=10),
        _span(3, None, "reporting.render", 5.0, 6.0, figure="fig12"),
        _span(4, 3, "analysis", 5.0, 5.5),
    ]
    report = spantrace.layer_report(spans, wall_s=6.0)
    assert report["analysis.fig04_s"] == 3.0
    assert report["analysis.fig12_s"] == 0.5
    assert report["reporting.render_s"] == 1.0 + 0.5
    assert report["reporting.figures"] == 2


def test_recorder_nests_spans_per_thread():
    recorder = spantrace.Recorder()
    outer = recorder.begin("pass")
    inner = recorder.begin("sim.run")
    recorder.leaf("workloads.gen", 0.0, 0.0)
    recorder.end(inner)
    recorder.end(outer)
    by_name = {span["name"]: span for span in recorder.spans}
    assert by_name["pass"]["parent"] is None
    assert by_name["sim.run"]["parent"] == by_name["pass"]["id"]
    assert by_name["workloads.gen"]["parent"] == by_name["sim.run"]["id"]


def test_sampler_times_the_reference_through_a_busy_pass():
    with calibrate.Sampler(interval=0.02) as sampler:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    assert len(sampler.samples) >= 3
    assert all(seconds > 0 for seconds in sampler.samples)
    assert sampler.spent == sum(sampler.samples)
    # Twice the nominal reference time: the host runs at half speed.
    slow = [2 * calibrate.REFERENCE_NOMINAL_S] * 4
    assert calibrate.scale(10.0, slow) == 5.0


def _golden_artifacts():
    directory = scenarios.golden_dir(ROOT)
    artifacts = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".txt"):
            with open(os.path.join(directory, name)) as handle:
                text = handle.read()
            artifacts.append(SimpleNamespace(name=name[:-4], text=text[:-1]))
    return artifacts


def test_corrupted_golden_is_a_failure_not_a_crash(tmp_path):
    fake_root = tmp_path / "checkout"
    shutil.copytree(scenarios.golden_dir(ROOT), fake_root / "benchmarks" / "results")
    results = fake_root / "benchmarks" / "results"
    (results / "fig06_headlines.txt").write_text("corrupted\n")
    (results / "fig04_density.txt").unlink()

    artifacts = _golden_artifacts()
    assert scenarios.artifact_mismatches(artifacts, scenarios.golden_dir(ROOT)) == []
    assert sorted(scenarios.artifact_mismatches(artifacts, str(results))) == [
        "fig04_density", "fig06_headlines",
    ]

    outputs = [
        SimpleNamespace(figure=SimpleNamespace(name=a.name), artifacts=[a], simulated=0)
        for a in artifacts
    ]
    result = scenarios.PassResult(
        wall_s=1.0, ops=[],
        counts={"exp.runner.points_served": scenarios.WARM_POINTS},
        state={"outputs": outputs},
    )
    warm = scenarios.WarmReport(str(fake_root), str(tmp_path), seed=0)
    attempted, failed, notes = warm.check(result, full=False)
    assert (attempted, failed) == (len(outputs), 2)
    assert len(notes) == 2


def test_padded_store_is_a_pure_function_of_the_seed(tmp_path):
    from repro.exp.store import ResultStore, _point_key

    source = scenarios.golden_store_path(ROOT)
    paths = {}
    for label, seed in (("a", 7), ("b", 7), ("c", 8)):
        target = tmp_path / f"{label}.jsonl"
        assert scenarios.build_padded_store(source, str(target), seed, 400) == 400
        paths[label] = target
    assert paths["a"].read_bytes() == paths["b"].read_bytes()
    assert paths["a"].read_bytes() != paths["c"].read_bytes()

    lines = paths["a"].read_text().splitlines()
    with open(source) as handle:
        golden = [line.rstrip("\n") for line in handle if line.strip()]
    assert lines[: len(golden)] == golden
    records = [json.loads(line) for line in lines]
    assert all(_point_key(r["point"]) == r["key"] for r in records)
    assert len({r["key"] for r in records}) == 400

    store_dir = tmp_path / "store"
    store_dir.mkdir()
    shutil.copy(paths["a"], store_dir / "results.jsonl")
    stats = ResultStore(str(store_dir)).stats()
    assert (stats.live, stats.reclaimable) == (400, 0)


def test_serve_plan_mix_is_fixed_and_order_follows_the_seed():
    plans = [scenarios.serve_plan(seed) for seed in (1, 1, 2)]
    assert plans[0] == plans[1]
    assert plans[0] != plans[2]
    for plan in plans:
        kinds = sorted(job.get("figure") or job["spec"]["designs"][0] for job in plan)
        assert kinds == sorted(
            list(scenarios.READ_FIGURES) * scenarios.READS_PER_FIGURE
            + list(scenarios.WRITE_DESIGNS)
        )


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "warm-report",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
