"""The benchmark's three workloads: fixture, set-up, one pass, oracle.

Each workload is a :class:`Scenario`.  The parent process builds the
run's fixture once from ``--seed`` (:meth:`Scenario.build_fixture`);
every pass then runs in a fresh child process that sets up
(:meth:`Scenario.setup`), runs one timed pass (:meth:`Scenario.run_pass`)
and checks the pass's outputs against the checked-in goldens
(:meth:`Scenario.check`).  Everything a pass writes lives under the
run's temp directory; the checked-in store and ``benchmarks/results``
are only read.

* ``cold-fig06`` simulates Fig. 6's grid for :data:`COLD_WORKLOADS` into
  an empty store under the vector engine.  Replay dominates; block and
  ideal have no batch kernel and run the scalar loop.
* ``warm-report`` runs every registered figure over a copy of the
  checked-in store: every point is served, so analysis and rendering do
  the work and replay does none.  It ignores the seed.
* ``serve-mixed`` drives the stdlib HTTP server with two closed-loop
  clients over a store padded to :data:`PADDED_RECORDS` records:
  warm figure jobs read the store, one-point spec jobs simulate and
  append to it.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import os
import random
import shutil
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

#: Fig. 6 workloads the cold workload simulates.  One workload's grid
#: (4 designs x 4 capacities plus its baseline, 17 points) keeps a pass
#: at 10-14 s on a 2-core 2.1 GHz Xeon, so a run's two passes stay short.
COLD_WORKLOADS = ("web_search",)
COLD_ENGINE = "vector"

#: Registered figures and the store points a warm report must serve.
WARM_POINTS = 331

#: Records in the serve workload's padded store (~0.5 s to open).
PADDED_RECORDS = 10_000
#: Padding records get seeds from here up, far above any seed the
#: benchmark simulates, so padding never answers a real lookup.
PAD_SEED_BASE = 1 << 40
#: Figures the serve workload's read jobs rotate over; each is read twice.
READ_FIGURES = ("fig01", "fig05", "fig06", "fig10")
READS_PER_FIGURE = 2
#: Write jobs: one point per design, fixed workload and capacity, at a
#: seed no store record has.  Short traces keep a write near a read.
WRITE_DESIGNS = ("baseline", "page", "footprint", "block", "ideal")
WRITE_WORKLOAD = "web_search"
WRITE_CAPACITY_MB = 64
WRITE_REQUESTS = 40_000
SERVE_CLIENTS = 2
SERVE_WORKERS = 2
#: Read (R) and write (W) slots of a pass, in submission order.
SERVE_SLOTS = "RWRRWRRWRRWRW"

API = "/api/v1"
TERMINAL = ("done", "failed", "cancelled")


@dataclasses.dataclass
class PassResult:
    """What one measured pass produced, before its outputs are checked."""

    wall_s: float
    #: One entry per operation: ``kind`` and ``seconds``, plus extras.
    ops: List[Dict[str, Any]]
    counts: Dict[str, float] = dataclasses.field(default_factory=dict)
    state: Dict[str, Any] = dataclasses.field(default_factory=dict)


def golden_store_path(root: str) -> str:
    return os.path.join(root, "benchmarks", "results", "cache", "results.jsonl")


def golden_dir(root: str) -> str:
    return os.path.join(root, "benchmarks", "results")


def artifact_mismatches(artifacts, directory: str) -> List[str]:
    """Names of ``artifacts`` whose bytes differ from ``<directory>/<name>.txt``.

    The bytes compared are what ``repro report`` writes: the artifact
    text plus one newline.  A missing or unreadable golden counts as a
    mismatch, never as a crash.
    """
    bad = []
    for artifact in artifacts:
        try:
            with open(os.path.join(directory, f"{artifact.name}.txt"), "rb") as handle:
                golden = handle.read()
        except OSError:
            bad.append(artifact.name)
            continue
        if golden != (artifact.text + "\n").encode():
            bad.append(artifact.name)
    return bad


def read_records(path: str) -> Dict[str, Dict[str, Any]]:
    """Key -> result of every parseable record of a store file."""
    records = {}
    with open(path) as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                records[record["key"]] = record["result"]
    return records


def build_padded_store(source: str, target: str, seed: int, total: int) -> int:
    """Write ``source``'s records plus clones up to ``total`` records.

    Each clone copies a real record (chosen by ``seed``) under a point
    payload made distinct by a fresh simulation seed, keyed the way the
    result store keys it, so every clone is a live record.  The file is
    a pure function of the inputs.  Returns the number of records.
    """
    from repro.exp.store import _point_key

    with open(source) as handle:
        lines = [line.rstrip("\n") for line in handle if line.strip()]
    # Parsed records serve as templates: a clone overwrites the seed.
    records = [json.loads(line) for line in lines]
    rng = random.Random(seed)
    pad_seeds = set()
    with open(target, "w") as out:
        for line in lines:
            out.write(line + "\n")
        for _ in range(total - len(lines)):
            original = records[rng.randrange(len(records))]
            pad_seed = PAD_SEED_BASE + rng.randrange(1 << 32)
            while pad_seed in pad_seeds:
                pad_seed += 1
            pad_seeds.add(pad_seed)
            point = original["point"]
            point["config"]["seed"] = pad_seed
            record = {"key": _point_key(point), "point": point,
                      "result": original["result"]}
            out.write(json.dumps(record, sort_keys=True) + "\n")
    return max(total, len(lines))


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 1] of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class Scenario:
    """One workload.  Subclasses fill in the four phases."""

    name = ""
    engine: Optional[str] = None

    def __init__(self, root: str, run_dir: str, seed: int) -> None:
        self.root = root
        self.run_dir = run_dir
        self.seed = seed

    # Parent side ---------------------------------------------------
    def build_fixture(self) -> Dict[str, Any]:
        """Inputs every pass of the run shares; JSON-serialisable."""
        raise NotImplementedError

    def protocol(self, fixture: Dict[str, Any]) -> Dict[str, Any]:
        """Fields that must match for two runs to be compared."""
        raise NotImplementedError

    # Child side ----------------------------------------------------
    def setup(self, fixture: Dict[str, Any]) -> None:
        raise NotImplementedError

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def check(self, result: PassResult, full: bool) -> Tuple[int, int, List[str]]:
        """``(attempted, failed, notes)`` for the pass's operations.

        ``full`` asks for the run's one-off checks (the cold workload's
        interp cross-check), done once per run.
        """
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def _temp_dir(self, prefix: str) -> str:
        return tempfile.mkdtemp(prefix=prefix, dir=self.run_dir)


class ColdFig06(Scenario):
    name = "cold-fig06"
    engine = COLD_ENGINE

    def _points(self):
        from repro.reporting import get_figure

        figure = get_figure("fig06")
        points, seen = [], set()
        for spec in figure.specs.values():
            spec = dataclasses.replace(
                spec, workloads=COLD_WORKLOADS, seeds=(self.seed,)
            )
            for point in spec.points():
                if point not in seen:
                    seen.add(point)
                    points.append(point)
        return points

    def protocol(self, fixture):
        return {"engine": self.engine, "workloads": list(COLD_WORKLOADS),
                "grid_points": fixture["grid_points"], "store_records": 0}

    def build_fixture(self):
        return {"grid_points": len(self._points())}

    def setup(self, fixture):
        from repro.exp import ResultStore

        self.points = self._points()
        self.store = ResultStore(self._temp_dir("cold-store-"))

    def run_pass(self):
        from repro.exp import SweepRunner

        ops = []
        last = [time.perf_counter()]

        def tick(progress):
            now = time.perf_counter()
            ops.append({"kind": "point", "label": progress.point.label(),
                        "seconds": now - last[0]})
            last[0] = now

        start = time.perf_counter()
        last[0] = start
        sweep = SweepRunner(store=self.store, jobs=1, progress=tick).run(self.points)
        wall = time.perf_counter() - start
        requests = sum(point.resolved_requests for point in sweep.simulated)
        return PassResult(
            wall_s=wall,
            ops=ops,
            counts={
                "exp.runner.points_served": sweep.hits,
                "exp.runner.points_simulated": sweep.misses,
                "sim_requests": requests,
            },
            state={"sweep": sweep},
        )

    def check(self, result, full):
        from repro.exp import ResultStore
        from repro.reporting import run_figure
        from repro.sim.simulator import Simulator

        sweep = result.state["sweep"]
        notes = []
        bad = {p.label() for p in self.points if p not in sweep.simulated}
        if bad:
            notes.append(f"{len(bad)} point(s) not simulated cold")
        attempted = len(self.points)
        stored = read_records(self.store.path)
        if self.seed == 0:
            golden = read_records(golden_store_path(self.root))
            for point in self.points:
                record = stored.get(point.key())
                if record is None or record != golden.get(point.key()):
                    bad.add(point.label())
                    notes.append(f"{point.label()} differs from the checked-in store")
            # Render Fig. 6 from this pass's records plus the golden
            # records of the workloads the pass leaves out.
            attempted += 1
            try:
                self.store.merge([ResultStore(os.path.dirname(golden_store_path(self.root)))])
                output = run_figure("fig06", store=self.store)
                mismatched = artifact_mismatches(output.artifacts, golden_dir(self.root))
                if output.simulated:
                    mismatched.append(f"{output.simulated} point(s) simulated")
            except ValueError as error:  # StoreMergeConflict: bytes differ
                mismatched = [f"merge: {error}"]
            if mismatched:
                bad.add("render fig06")
                notes.append(f"fig06 artifacts differ: {mismatched}")
        elif full:
            # A held-out seed has no golden: one point per design must
            # match the scalar reference engine.
            designs = dict.fromkeys(point.design for point in self.points)
            for index, design in enumerate(designs):
                candidates = [p for p in self.points if p.design == design]
                point = candidates[(self.seed + index) % len(candidates)]
                reference = Simulator(point.config(), engine="interp").run().to_dict()
                if stored.get(point.key()) != reference:
                    bad.add(point.label())
                    notes.append(f"{point.label()} differs from engine=interp")
        return attempted, len(bad), notes


class WarmReport(Scenario):
    name = "warm-report"

    def protocol(self, fixture):
        return {"engine": "interp", "grid_points": WARM_POINTS,
                "store_records": fixture["store_records"], "seed_used": False}

    def build_fixture(self):
        return {"store_records": len(read_records(golden_store_path(self.root)))}

    def setup(self, fixture):
        from repro.exp import ResultStore

        directory = self._temp_dir("warm-store-")
        shutil.copy(golden_store_path(self.root), directory)
        self.store = ResultStore(directory)

    def run_pass(self):
        from repro.reporting import figure_names, run_figure

        ops, outputs = [], []
        start = time.perf_counter()
        for name in figure_names():
            began = time.perf_counter()
            outputs.append(run_figure(name, store=self.store))
            ops.append({"kind": "figure", "label": name,
                        "seconds": time.perf_counter() - began})
        wall = time.perf_counter() - start
        return PassResult(
            wall_s=wall,
            ops=ops,
            counts={
                "exp.runner.points_served": sum(o.hits for o in outputs),
                "exp.runner.points_simulated": sum(o.simulated for o in outputs),
            },
            state={"outputs": outputs},
        )

    def check(self, result, full):
        outputs = result.state["outputs"]
        notes, failed = [], 0
        for output in outputs:
            mismatched = artifact_mismatches(output.artifacts, golden_dir(self.root))
            if mismatched or output.simulated:
                failed += 1
                notes.append(f"{output.figure.name}: artifacts {mismatched}, "
                             f"simulated {output.simulated}")
        served = result.counts["exp.runner.points_served"]
        if served != WARM_POINTS and failed < len(outputs):
            failed += 1
            notes.append(f"served {served} points, expected {WARM_POINTS}")
        return len(outputs), failed, notes


def _write_spec(seed: int, index: int, design: str) -> Dict[str, Any]:
    """The spec payload of one write job (a single point)."""
    return {
        "workloads": [WRITE_WORKLOAD],
        "designs": [design],
        "capacities_mb": [WRITE_CAPACITY_MB],
        "seeds": [1 + (seed * 16 + index) % (1 << 32)],
        "num_requests": WRITE_REQUESTS,
    }


def serve_plan(seed: int) -> List[Dict[str, Any]]:
    """One pass's job list, in submission order.

    Reads and writes sit in the fixed :data:`SERVE_SLOTS` pattern, so
    every seed overlaps reads with writes alike; the seed rotates the
    figure sequence, orders the write designs and sets the write
    points' simulation seeds (and, through the fixture, the padding).
    """
    rng = random.Random(seed)
    offset = rng.randrange(len(READ_FIGURES))
    figures = list(READ_FIGURES[offset:] + READ_FIGURES[:offset]) * READS_PER_FIGURE
    designs = list(WRITE_DESIGNS)
    rng.shuffle(designs)
    reads = iter({"kind": "read", "figure": name} for name in figures)
    writes = iter({"kind": "write", "spec": _write_spec(seed, index, design)}
                  for index, design in enumerate(designs))
    return [next(reads if slot == "R" else writes) for slot in SERVE_SLOTS]


class _Client(threading.Thread):
    """A closed-loop client: submit, follow the event stream, repeat."""

    def __init__(self, port: int, queue: List[Dict[str, Any]], lock, records) -> None:
        super().__init__(daemon=True)
        self.port = port
        self.queue = queue
        self.lock = lock
        self.records = records
        self.error: Optional[Exception] = None

    def _call(self, method: str, path: str, body: Optional[bytes] = None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            conn.request(method, path, body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def _follow(self, job_id: str) -> Optional[str]:
        """Read the job's NDJSON event stream up to its terminal event."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            conn.request("GET", f"{API}/jobs/{job_id}/events")
            response = conn.getresponse()
            for line in response:
                event = json.loads(line)["event"]
                if event in TERMINAL:
                    return event
            return None
        finally:
            conn.close()

    def run_job(self, job: Dict[str, Any]) -> Dict[str, Any]:
        """Submit one job, follow it to its end; the client-side record."""
        started = time.perf_counter()
        if job["kind"] == "read":
            status, snap = self._call("POST", f"{API}/figures/{job['figure']}")
        else:
            status, snap = self._call(
                "POST", f"{API}/jobs", json.dumps(job["spec"]).encode()
            )
        terminal = self._follow(snap["id"]) if status == 202 else None
        seconds = time.perf_counter() - started
        _, snap = self._call("GET", f"{API}/jobs/{snap['id']}")
        return {"kind": job["kind"], "seconds": seconds, "job": snap["id"],
                "terminal": terminal, "snapshot": snap,
                "spec": job.get("spec"), "figure": job.get("figure")}

    def run(self) -> None:
        try:
            while True:
                with self.lock:
                    if not self.queue:
                        return
                    job = self.queue.pop(0)
                record = self.run_job(job)
                with self.lock:
                    self.records.append(record)
        except Exception as error:  # noqa: BLE001 - the pass reports it
            self.error = error


class ServeMixed(Scenario):
    name = "serve-mixed"

    def protocol(self, fixture):
        return {"engine": "interp", "grid_points": len(fixture["plan"]),
                "store_records": fixture["store_records"],
                "clients": SERVE_CLIENTS, "workers": SERVE_WORKERS}

    def build_fixture(self):
        from repro.exp import ExperimentSpec
        from repro.exp.runner import run_point

        store = os.path.join(self.run_dir, "padded.jsonl")
        records = build_padded_store(
            golden_store_path(self.root), store, self.seed, PADDED_RECORDS
        )
        plan = serve_plan(self.seed)
        references = {}
        for job in plan:
            if job["kind"] == "write":
                (point,) = ExperimentSpec.from_dict(job["spec"]).points()
                references[point.key()] = run_point(point).to_dict()
        return {"store": store, "store_records": records, "plan": plan,
                "references": references}

    def setup(self, fixture):
        from repro.exp.store import STORE_FILENAME
        from repro.serve import JobManager, SimulationService
        from repro.serve.httpd import serve_in_thread

        self.fixture = fixture
        self.store_dir = self._temp_dir("serve-store-")
        shutil.copy(fixture["store"], os.path.join(self.store_dir, STORE_FILENAME))
        self.manager = JobManager(
            store_dir=self.store_dir, workers=SERVE_WORKERS, jobs=1
        )
        self.server, self.thread, _ = serve_in_thread(SimulationService(self.manager))
        self.port = self.server.server_address[1]

    def run_pass(self):
        queue = list(self.fixture["plan"])
        records: List[Dict[str, Any]] = []
        lock = threading.Lock()
        clients = [_Client(self.port, queue, lock, records)
                   for _ in range(SERVE_CLIENTS)]
        start = time.perf_counter()
        for client in clients:
            client.start()
        for client in clients:
            client.join(timeout=170)
        wall = time.perf_counter() - start
        errors = [repr(c.error) for c in clients if c.error is not None]
        errors += ["client still running" for c in clients if c.is_alive()]
        ops = []
        for record in records:
            snap = record["snapshot"]
            created, started, finished = (
                snap["created"], snap["started"], snap["finished"]
            )
            op = {"kind": record["kind"], "seconds": record["seconds"],
                  "label": record["figure"] or record["job"]}
            if None not in (started, finished):
                op["queue_wait_s"] = started - created
                op["run_s"] = finished - started
                op["client_overhead_s"] = record["seconds"] - (finished - created)
            ops.append(op)
        progress = [r["snapshot"]["progress"] for r in records]
        requests = WRITE_REQUESTS * sum(
            p["simulated"] for r, p in zip(records, progress) if r["kind"] == "write"
        )
        return PassResult(
            wall_s=wall,
            ops=ops,
            counts={
                "exp.runner.points_served": sum(p["served_from_store"] for p in progress),
                "exp.runner.points_simulated": sum(p["simulated"] for p in progress),
                "sim_requests": requests,
            },
            state={"records": records, "errors": errors},
        )

    def check(self, result, full):
        from repro.exp import ExperimentSpec, ResultStore
        from repro.reporting.registry import Artifact

        records = result.state["records"]
        notes = list(result.state["errors"])
        failed = len(self.fixture["plan"]) - len(records)
        store = ResultStore(self.store_dir)
        references = self.fixture["references"]
        for record in records:
            ok = record["terminal"] == "done" and record["snapshot"]["state"] == "done"
            if ok and record["kind"] == "read":
                job = self.manager.get(record["job"])
                artifacts = [Artifact(a["name"], a["text"]) for a in job.artifacts]
                ok = bool(artifacts) and not artifact_mismatches(
                    artifacts, golden_dir(self.root)
                )
            elif ok:
                (point,) = ExperimentSpec.from_dict(record["spec"]).points()
                stored = store.get(point)
                ok = stored is not None and stored.to_dict() == references[point.key()]
            if not ok:
                failed += 1
                notes.append(f"{record['kind']} job {record['job']} failed its check")
        return len(self.fixture["plan"]), failed, notes

    def teardown(self):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)
        self.manager.shutdown(wait=True)


SCENARIOS = {cls.name: cls for cls in (ColdFig06, WarmReport, ServeMixed)}
