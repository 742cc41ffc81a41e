"""One pass of a benchmark workload, in a fresh process.

Started by ``run.py``; not meant to be run by hand.  The child sets the
workload up, records how long it took since the parent spawned it,
optionally runs one timed pass (traced or not) and checks its outputs,
then writes everything to ``<run-dir>/pass-<index>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() when the parent started us")
    parser.add_argument("--measure", type=int, choices=(0, 1), default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--full-check", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One CPU for the whole pass.  The serve workload's threads share the
    # GIL; spread over two vCPUs of a shared host, each hand-off waits on
    # the host scheduler, and identical serve passes ranged 10-20 s.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    sys.path.insert(0, os.path.join(args.root, "src"))
    import calibrate
    import scenarios

    with open(os.path.join(args.run_dir, "fixture.json")) as handle:
        fixture = json.load(handle)
    scenario = scenarios.SCENARIOS[args.workload](args.root, args.run_dir, args.seed)
    scenario.setup(fixture)
    out = {"setup_s": time.monotonic() - args.spawned,
           # The host's speed right after set-up: the set-up's scale.
           "setup_references": calibrate.reference_s()}
    try:
        if args.measure:
            from repro.workloads.trace import shared_trace_cache

            recorder = None
            if args.trace:
                import spantrace

                recorder = spantrace.Recorder()
                spantrace.install(recorder)
                root = recorder.begin("pass")
            # An untraced pass gauges the host's speed as it runs; the
            # samples' own time comes off the pass's wall time.
            sampler = None if args.trace else calibrate.Sampler()
            with sampler or contextlib.nullcontext():
                result = scenario.run_pass()
            spans = []
            if recorder is not None:
                recorder.end(root)
                # Checks below call traced layers too; they are not the pass.
                spans = list(recorder.spans)
            cache = shared_trace_cache().stats()
            result.counts["trace_cache_hits"] = cache["hits"]
            result.counts["trace_cache_misses"] = cache["misses"]
            attempted, failed, notes = scenario.check(result, bool(args.full_check))
            out.update(
                wall_s=result.wall_s - (sampler.spent if sampler else 0.0),
                # A pass too short for a sample takes the set-up's.
                references=(sampler.samples or out["setup_references"]) if sampler else [],
                ops=result.ops,
                counts=result.counts,
                attempted=attempted,
                failed=failed,
                notes=notes,
                traced=bool(args.trace),
                spans=spans,
            )
    finally:
        scenario.teardown()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(os.path.join(args.run_dir, f"pass-{args.index}.json"), "w") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
