"""Reproducible performance benchmark harness (``python -m repro perf``).

The ROADMAP's north star is "as fast as the hardware allows"; this module
is how the repo *measures* that, so speed claims are reproducible instead
of anecdotal.  It times the two halves of the simulation hot path
separately:

* **trace generation** — materialising a workload's request stream into
  the shared trace cache (:mod:`repro.workloads.trace`);
* **end-to-end replay** — ``Simulator.run()`` per design, both *cold*
  (trace cache empty, generation included — what a fresh process pays)
  and *warm* (trace already materialised — what every subsequent design
  in a sweep pays).

Results are written to ``BENCH_perf.json`` at the repo root, and one
record per design is appended to ``BENCH_history.jsonl``, so the project
accumulates a performance trajectory alongside its correctness
artifacts.

Benchmarks never touch the result store and never affect simulation
output: the fast path they exercise is byte-parity-gated in CI.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.sim.config import SimulationConfig
from repro.sim.simulator import Simulator
from repro.workloads.cloudsuite import make_workload
from repro.workloads.trace import shared_trace_cache

BENCH_FILENAME = "BENCH_perf.json"
HISTORY_FILENAME = "BENCH_history.jsonl"
SCHEMA = "repro-perf-bench/1"
HISTORY_SCHEMA = "repro-perf-history/1"

# The engine label on every measurement.  Replay always takes the
# batch-kernel path (scalar fallback for designs without a kernel); the
# label keeps new history records matching the checked-in ones, which
# tools/check_perf_history.py compares on (engine, design).
ENGINE_LABEL = "vector"

# The repo checkout this package lives in (src/repro/perf/ -> repo root).
# An installed package has no benchmarks/ tree there; fall back to the
# working directory, like repro.exp.store does for the result store.
_CHECKOUT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
)
_REPO_ROOT = _CHECKOUT if os.path.isdir(os.path.join(_CHECKOUT, "benchmarks")) else ""

DEFAULT_DESIGNS: Tuple[str, ...] = ("footprint", "page", "block", "baseline")
DEFAULT_REQUESTS = 120_000
DEFAULT_REPEATS = 3
QUICK_REQUESTS = 30_000
QUICK_REPEATS = 2
HEADLINE_DESIGN = "footprint"


def default_output_path() -> str:
    """Where ``python -m repro perf`` writes: ``BENCH_perf.json`` at the root."""
    return os.path.join(_REPO_ROOT, BENCH_FILENAME)


def default_history_path() -> str:
    """The append-only run log: ``BENCH_history.jsonl`` at the repo root."""
    return os.path.join(_REPO_ROOT, HISTORY_FILENAME)


def git_commit() -> Optional[str]:
    """The checkout's HEAD commit hash, or None outside a git repo.

    Recorded in the report and in every history record so a measurement
    is always attributable to the exact code that produced it.
    """
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=_REPO_ROOT or None,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    commit = proc.stdout.strip()
    return commit or None


def cpu_model() -> Optional[str]:
    """The CPU model string (``/proc/cpuinfo`` where available).

    Throughput numbers are meaningless without the silicon they ran on;
    ``platform.processor()`` is the cross-platform fallback.
    """
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _bench_config(
    design: str,
    workload: str,
    capacity_mb: int,
    num_requests: int,
    seed: int,
    scale: int = 256,
) -> SimulationConfig:
    return SimulationConfig.scaled(
        workload,
        design,
        capacity_mb,
        scale=scale,
        num_requests=num_requests,
        seed=seed,
    )


def _best_of(repeats: int, run) -> float:
    """Minimum wall-clock seconds of ``repeats`` invocations of ``run``."""
    best = None
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        run()
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
    return best


def measure_generation(
    config: SimulationConfig, repeats: int = DEFAULT_REPEATS
) -> Dict[str, Any]:
    """Time cold trace materialisation into the shared cache.

    Takes the *same* :class:`SimulationConfig` the replay measurements
    use, so generation is timed for exactly the trace-cache key
    (resolved profile, seed, page size) the replays will hit — the two
    protocols cannot drift apart.
    """
    resolved = make_workload(
        config.workload,
        seed=config.seed,
        page_size=config.cache.page_size,
        dataset_scale=config.dataset_scale,
    ).profile
    num_requests = config.num_requests
    cache = shared_trace_cache()

    def run() -> None:
        cache.clear()
        cache.requests(resolved, config.seed, config.cache.page_size, num_requests)

    seconds = _best_of(repeats, run)
    return {
        "requests": num_requests,
        "seconds": round(seconds, 4),
        "requests_per_second": round(num_requests / seconds, 1),
    }


def measure_replay(
    design: str,
    workload: str,
    capacity_mb: int,
    num_requests: int,
    seed: int = 0,
    repeats: int = DEFAULT_REPEATS,
) -> Dict[str, Any]:
    """End-to-end ``Simulator.run()`` throughput, cold and warm.

    *Cold* clears the shared trace cache first, so the measurement
    includes trace generation — what a fresh process pays.  *Warm*
    replays with the trace already materialised — the steady state of
    every multi-design sweep.
    """
    config = _bench_config(design, workload, capacity_mb, num_requests, seed)
    cache = shared_trace_cache()

    def run_cold() -> None:
        cache.clear()
        Simulator(config).run()

    def run_warm() -> None:
        Simulator(config).run()

    # Both columns use the same best-of-``repeats`` protocol; each cold
    # run clears the trace cache first, so every repeat pays generation.
    cold_seconds = _best_of(repeats, run_cold)
    # One untimed run guarantees the trace is materialised for "warm".
    run_warm()
    warm_seconds = _best_of(repeats, run_warm)
    return {
        "design": design,
        "engine": ENGINE_LABEL,
        "requests": num_requests,
        "cold_seconds": round(cold_seconds, 4),
        "cold_requests_per_second": round(num_requests / cold_seconds, 1),
        "warm_seconds": round(warm_seconds, 4),
        "warm_requests_per_second": round(num_requests / warm_seconds, 1),
    }


def run_bench(
    designs: Sequence[str] = DEFAULT_DESIGNS,
    workload: str = "web_search",
    capacity_mb: int = 256,
    num_requests: int = DEFAULT_REQUESTS,
    seed: int = 0,
    repeats: int = DEFAULT_REPEATS,
) -> Dict[str, Any]:
    """Run the full benchmark suite and assemble the report payload."""
    if num_requests <= 0:
        raise ValueError("num_requests must be positive")
    if not designs:
        raise ValueError("designs must not be empty")
    generation = measure_generation(
        _bench_config(designs[0], workload, capacity_mb, num_requests, seed),
        repeats=repeats,
    )
    measurements = {
        design: measure_replay(
            design, workload, capacity_mb, num_requests, seed=seed, repeats=repeats
        )
        for design in designs
    }

    payload: Dict[str, Any] = {
        "schema": SCHEMA,
        "protocol": {
            "workload": workload,
            "capacity_mb": capacity_mb,
            "scale": 256,
            "num_requests": num_requests,
            "seed": seed,
            "repeats": repeats,
            "engine": ENGINE_LABEL,
            "metric": "end-to-end Simulator.run() requests/sec, best of repeats",
        },
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "commit": git_commit(),
            "cpu": cpu_model(),
        },
        "trace_generation": generation,
        "designs": measurements,
    }

    # Observability snapshot: the bench exercises the same shared trace
    # cache the sweeps use, so its counters after the run summarise how
    # warm the protocol really was.  Optional fields only — readers of
    # old payloads/records never required them.
    cache_stats = shared_trace_cache().stats()
    metrics: Dict[str, Any] = {
        "trace_cache_hit_rate": cache_stats["hit_rate"],
        "trace_cache_hits": cache_stats["hits"],
        "trace_cache_misses": cache_stats["misses"],
        "trace_cache_evictions": cache_stats["evictions"],
    }
    tier1 = os.environ.get("REPRO_TIER1_SECONDS")
    if tier1:
        try:
            metrics["tier1_wall_seconds"] = float(tier1)
        except ValueError:
            pass
    payload["metrics"] = metrics

    headline = measurements.get(HEADLINE_DESIGN)
    if headline is not None:
        payload["headline"] = {
            "design": HEADLINE_DESIGN,
            "engine": ENGINE_LABEL,
            "warm_requests_per_second": headline["warm_requests_per_second"],
            "cold_requests_per_second": headline["cold_requests_per_second"],
        }
    return payload


def history_records(payload: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Flatten a bench payload into per-design history records.

    One compact record per measured design, carrying enough
    protocol and environment context to be compared across commits
    (see ``tools/check_perf_history.py``).
    """
    protocol = payload.get("protocol", {})
    environment = payload.get("environment", {})
    base = {
        "schema": HISTORY_SCHEMA,
        "timestamp": round(time.time(), 3),
        "commit": environment.get("commit"),
        "cpu": environment.get("cpu"),
        "python": environment.get("python"),
        "workload": protocol.get("workload"),
        "capacity_mb": protocol.get("capacity_mb"),
        "num_requests": protocol.get("num_requests"),
        "seed": protocol.get("seed"),
        "repeats": protocol.get("repeats"),
        # Metrics snapshot (PR 9+): optional keys older records lack and
        # tools/check_perf_history.py tolerates in both directions.
        **(payload.get("metrics") or {}),
    }
    records = []
    for design, bench in payload.get("designs", {}).items():
        records.append(
            {
                **base,
                "engine": bench["engine"],
                "design": design,
                "warm_requests_per_second": bench["warm_requests_per_second"],
                "cold_requests_per_second": bench["cold_requests_per_second"],
            }
        )
    return records


def append_history(payload: Dict[str, Any], path: Optional[str] = None) -> str:
    """Append the payload's history records to the run log (JSONL).

    Append-only by design: the log accumulates one line per measurement
    across commits, so regressions are visible as a time series rather
    than a diff.  Returns the path written.
    """
    path = path or default_history_path()
    lines = [
        json.dumps(record, sort_keys=True) for record in history_records(payload)
    ]
    with open(path, "a") as handle:
        for line in lines:
            handle.write(line + "\n")
    return path


def write_bench(payload: Dict[str, Any], path: Optional[str] = None) -> str:
    """Write the report as pretty JSON; returns the path written."""
    path = path or default_output_path()
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
