"""End-to-end benchmark of the Footprint Cache reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold-fig06 --seed 0 --seconds 20 --trace 0

Workloads (see ``scenarios.py`` and ``README.md``): ``cold-fig06``,
``warm-report`` and ``serve-mixed``.  The run builds its fixture from
``--seed``, then runs passes, each in a fresh child process, until the
passes have measured about ``--seconds`` (at least two passes), and adds
set-up-only children until :data:`SETUP_SAMPLES` set-ups were timed.
Every pass's outputs are checked against the checked-in goldens.  The
gated times are scaled to a nominal host speed, gauged by reference
work the pass process samples as it runs (``calibrate.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports per-layer metrics from the
traced ones, plus the tracing overhead against the untraced ones.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
print every metric by name with its unit, the workload's own names for
them, and the run's protocol (commit, CPU, Python, cores, engine, grid
points, store records, seed).  All scratch files live under
``.perfbench/`` in the checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import scenarios  # noqa: E402
import spantrace  # noqa: E402

MIN_PASSES = 2
SETUP_SAMPLES = 5
#: A run must end within the driver's 180 s limit.
RUN_BUDGET_S = 170.0

#: Gated end-to-end metrics.  Operation latencies are printed, not
#: gated: a pass has 13 to 34 operations, too few for ten samples to lie
#: beyond a 90th percentile, and warm-report's median operation is a
#: millisecond render whose run-to-run jitter exceeds any useful bound.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER_UNITS = {
    "workloads.gen_s": "s",
    "workloads.gen_requests": "count",
    "workloads.trace_cache_hit_rate": "ratio",
    "sim.build_s": "s",
    **{f"sim.replay_s.{d}": "s" for d in spantrace.DESIGNS},
    **{f"sim.requests_per_s.{d}": "1/s" for d in spantrace.DESIGNS},
    "vector.kernel_points": "count",
    "vector.fallback_points": "count",
    "exp.store.open_s": "s",
    "exp.store.opens": "count",
    "exp.store.records": "count",
    "exp.store.get_calls": "count",
    "exp.store.get_s": "s",
    "exp.store.put_calls": "count",
    "exp.store.put_s": "s",
    "exp.runner.sweep_s": "s",
    "exp.runner.points_served": "count",
    "exp.runner.points_simulated": "count",
    "analysis.fig04_s": "s",
    "analysis.fig12_s": "s",
    "reporting.run_figure_s": "s",
    "reporting.render_s": "s",
    "reporting.figures": "count",
    "serve.queue_wait_p50_s": "s",
    "serve.run_p50_s": "s",
    "serve.client_overhead_p50_s": "s",
    "layers.leaf_share_pct": "%",
    "obs.trace_overhead_pct": "%",
    "bench.fixture_s": "s",
}


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _source_digest() -> str:
    """Hash of the package sources: the commit, where git is absent."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for directory, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def _commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "unknown"


def _cpu() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _spawn(run_dir: str, args, index: int, *, measure: bool, trace: bool,
           full_check: bool, env, deadline: float):
    """Run one child; its result dict, or None if it failed."""
    command = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--root", ROOT, "--run-dir", run_dir, "--workload", args.workload,
        "--seed", str(args.seed), "--index", str(index),
        "--measure", str(int(measure)), "--trace", str(int(trace)),
        "--full-check", str(int(full_check)),
        # Set-up is timed from here, interpreter start-up included.
        "--spawned", repr(time.monotonic()),
    ]
    try:
        subprocess.run(
            command, env=env, stdout=sys.stderr, check=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as error:
        print(f"perfbench: pass {index} failed: {error}", file=sys.stderr)
        return None
    with open(os.path.join(run_dir, f"pass-{index}.json")) as handle:
        return json.load(handle)


def _child_env(scenario, run_dir: str):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # Anything that forgets an explicit store writes here, never into
    # the checked-in store.
    env["REPRO_RESULT_STORE"] = os.path.join(run_dir, "default-store")
    if scenario.engine:
        env["REPRO_ENGINE"] = scenario.engine
    # The same dict and set layouts in every pass.
    env["PYTHONHASHSEED"] = "0"
    return env


def end_to_end(passes, setups):
    """The gated metrics: times at the nominal host speed (``calibrate``)."""
    untraced = [p for p in passes if not p["traced"]]
    walls = [calibrate.scale(p["wall_s"], p["references"]) for p in untraced]
    ops = [op["seconds"] for p in untraced for op in p["ops"]]
    return {
        "setup_s": statistics.median(
            calibrate.scale(s["setup_s"], s["setup_references"]) for s in setups
        ),
        "wall_s": statistics.median(walls),
        "ops_per_s": len(ops) / sum(walls),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }


def raw_times(passes, setups):
    """The unscaled times, and the host's reference time, as measured."""
    untraced = [p for p in passes if not p["traced"]]
    return {
        "raw_setup_s": statistics.median(s["setup_s"] for s in setups),
        "raw_wall_s": statistics.median(p["wall_s"] for p in untraced),
        "reference_s": statistics.fmean(
            r for p in untraced for r in p["references"]
        ),
    }


def workload_extras(passes):
    """The issue's workload-specific names for end-to-end numbers."""
    untraced = [p for p in passes if not p["traced"]]
    wall = sum(p["wall_s"] for p in untraced)
    ops = [op for p in untraced for op in p["ops"]]
    extras = {
        "ops": (len(ops), "count"),
        "op_p50_s": (scenarios.percentile([op["seconds"] for op in ops], 0.5), "s"),
        "op_p90_s": (scenarios.percentile([op["seconds"] for op in ops], 0.9), "s"),
        "sim_requests_per_s": (
            sum(p["counts"].get("sim_requests", 0) for p in untraced) / wall, "1/s"
        ),
    }
    for kind in ("read", "write"):
        times = [op["seconds"] for op in ops if op["kind"] == kind]
        if times:
            extras[f"{kind}_p50_s"] = (scenarios.percentile(times, 0.5), "s")
    if any(op["kind"] in ("read", "write") for op in ops):
        times = [op["seconds"] for op in ops]
        extras["jobs_per_s"] = (len(times) / wall, "1/s")
        extras["job_p50_s"] = (scenarios.percentile(times, 0.5), "s")
        extras["job_p90_s"] = (scenarios.percentile(times, 0.9), "s")
    return extras


def per_layer(passes, fixture_s, store_records):
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    reports = []
    for p in traced:
        report = spantrace.layer_report(p["spans"], p["wall_s"])
        counts = p["counts"]
        lookups = counts["trace_cache_hits"] + counts["trace_cache_misses"]
        report["workloads.trace_cache_hit_rate"] = (
            counts["trace_cache_hits"] / lookups if lookups else 0.0
        )
        report["exp.runner.points_served"] = counts["exp.runner.points_served"]
        report["exp.runner.points_simulated"] = counts["exp.runner.points_simulated"]
        for field in ("queue_wait", "run", "client_overhead"):
            values = [op[f"{field}_s"] for op in p["ops"] if f"{field}_s" in op]
            report[f"serve.{field}_p50_s"] = scenarios.percentile(values, 0.5)
        reports.append(report)
    metrics = {name: statistics.median([r[name] for r in reports]) for name in reports[0]}
    untraced_wall = statistics.median([p["wall_s"] for p in untraced])
    metrics["obs.trace_overhead_pct"] = 100.0 * (
        statistics.median([p["wall_s"] for p in traced]) / untraced_wall - 1.0
    )
    metrics["exp.store.records"] = store_records
    metrics["bench.fixture_s"] = fixture_s
    return {name: metrics[name] for name in PER_LAYER_UNITS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(scenarios.SCENARIOS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        return _fail("--seed must be non-negative")

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")) or not os.path.exists(
        scenarios.golden_store_path(ROOT)
    ):
        return _fail(f"no repro sources or goldens under {ROOT}; "
                     "run from the root of a full checkout")

    # Turn SIGTERM into an exception, so subprocess.run kills and reaps
    # the running child before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    deadline = time.monotonic() + RUN_BUDGET_S
    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        sys.path.insert(0, os.path.join(ROOT, "src"))
        scenario = scenarios.SCENARIOS[args.workload](ROOT, run_dir, args.seed)
        fixture_start = time.perf_counter()
        fixture = scenario.build_fixture()
        fixture_s = time.perf_counter() - fixture_start
        with open(os.path.join(run_dir, "fixture.json"), "w") as handle:
            json.dump(fixture, handle)
        env = _child_env(scenario, run_dir)

        passes, setups, failures = [], [], 0
        measured = 0.0
        # Two passes at least: a median of two, and a traced run needs an
        # untraced and a traced pass.  Past that, stop once another pass
        # would overshoot --seconds by more than stopping now undershoots.
        while len(passes) < MIN_PASSES or (
            measured + measured / len(passes) / 2 < args.seconds
        ):
            index = len(passes)
            result = _spawn(run_dir, args, index, measure=True,
                            trace=bool(args.trace) and index % 2 == 1,
                            full_check=index == 0, env=env, deadline=deadline)
            if result is None:
                failures += 1
                break
            passes.append(result)
            setups.append(result)
            measured += result["wall_s"]
        while not failures and len(setups) < SETUP_SAMPLES:
            result = _spawn(run_dir, args, len(setups), measure=False, trace=False,
                            full_check=False, env=env, deadline=deadline)
            if result is None:
                failures += 1
                break
            setups.append(result)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:  # another run is still using it
            pass

    attempted = sum(p["attempted"] for p in passes) + failures
    failed = sum(p["failed"] for p in passes) + failures
    for p in passes:
        for note in p["notes"]:
            print(f"check: {note}")
    for index, child in enumerate(setups):
        line = (f"child {index} setup_s={child['setup_s']:.4f} scaled_setup_s="
                f"{calibrate.scale(child['setup_s'], child['setup_references']):.4f}")
        if "wall_s" in child:
            line += f" traced={int(child['traced'])} wall_s={child['wall_s']:.4f}"
        if child.get("references"):
            line += (f" references={len(child['references'])}"
                     f" reference_s={statistics.fmean(child['references']):.5f}"
                     f" scaled_s={calibrate.scale(child['wall_s'], child['references']):.4f}")
        print(line)
    complete = not failures and len(passes) >= MIN_PASSES
    protocol = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": args.workload != "warm-report",
        "commit": _commit(),
        "source_digest": _source_digest(),
        "cpu": _cpu(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        **scenario.protocol(fixture),
        "passes": len(passes),
        "traced_passes": sum(p["traced"] for p in passes),
        "ops": sum(len(p["ops"]) for p in passes if not p["traced"]),
        "setup_samples": len(setups),
    }
    print("protocol " + json.dumps(protocol, sort_keys=True))

    metrics = {}
    if complete:
        e2e = end_to_end(passes, setups)
        for name, unit in END_TO_END:
            print(f"metric {name} {e2e[name]!r} {unit}")
        for name, value in raw_times(passes, setups).items():
            print(f"metric {name} {value!r} s")
        for name, (value, unit) in workload_extras(passes).items():
            print(f"metric {name} {value!r} {unit}")
        print(f"metric error_rate {failed / max(1, attempted)!r} ratio")
        print(f"metric fixture_s {fixture_s!r} s")
        if args.trace:
            layers = per_layer(passes, fixture_s, protocol.get("store_records", 0))
            for name, value in layers.items():
                print(f"layer {name} {value!r} {PER_LAYER_UNITS[name]}")
            metrics = {n: {"value": v, "unit": PER_LAYER_UNITS[n]} for n, v in layers.items()}
        else:
            metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END}
    print(json.dumps({
        "correct": complete and failed == 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
