"""The simulation service: versioned API semantics, framework-free.

Everything the HTTP API does lives here as plain methods on
:class:`SimulationService` — submit a spec, poll a job, stream events,
cancel, fetch results as JSON or CSV, render figures — plus a tiny
router (:data:`API_ROUTES` + :func:`dispatch`) that maps
``(method, path)`` onto those methods and returns a transport-neutral
:class:`Response`.

The HTTP frontend, the stdlib server in :mod:`repro.serve.httpd`
that ``python -m repro serve`` runs, is a thin adapter over this
module.  Keeping the semantics here means the test suite can exercise
the full API without a socket.

The service itself holds no simulation state: jobs run in the
:class:`~repro.serve.jobs.JobManager`, results live in the shared
:class:`~repro.exp.store.ResultStore` — warm points answer instantly
from the store (the cache tier), misses fan out through the configured
execution backend.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple
from urllib.parse import unquote

from repro.caches.registry import design_names
from repro.exp import ENGINE_VERSION, ResultStore
from repro.obs.metrics import registry, render_prometheus
from repro.serve.coordinator import Coordinator, CoordinatorError
from repro.serve.jobs import Job, JobManager, JobState, spec_from_payload
from repro.workloads.profiles import profile_names
from repro.workloads.trace import shared_trace_cache

API_VERSION = "v1"
API_PREFIX = f"/api/{API_VERSION}"

#: Every route of the versioned API: ``(method, path template)``.
#: The single source the adapters, the docs checker and the API index
#: all read — a route that is not here does not exist.
API_ROUTES: Tuple[Tuple[str, str], ...] = (
    ("GET", f"{API_PREFIX}"),
    ("GET", f"{API_PREFIX}/health"),
    ("GET", f"{API_PREFIX}/metrics"),
    # The one route outside the versioned prefix: Prometheus scrapers
    # expect the conventional bare path (text exposition format).
    ("GET", "/metrics"),
    ("GET", f"{API_PREFIX}/designs"),
    ("GET", f"{API_PREFIX}/workloads"),
    ("GET", f"{API_PREFIX}/figures"),
    ("POST", f"{API_PREFIX}/figures/{{name}}"),
    ("POST", f"{API_PREFIX}/jobs"),
    ("GET", f"{API_PREFIX}/jobs"),
    ("GET", f"{API_PREFIX}/jobs/{{id}}"),
    ("POST", f"{API_PREFIX}/jobs/{{id}}/cancel"),
    ("GET", f"{API_PREFIX}/jobs/{{id}}/events"),
    ("GET", f"{API_PREFIX}/jobs/{{id}}/results"),
    ("GET", f"{API_PREFIX}/journal"),
    # Distributed-sweep coordinator (src/repro/serve/coordinator.py):
    # submitters POST runs and page folded results; workers lease
    # shards, stream deliveries, and mark shards complete.
    ("POST", f"{API_PREFIX}/coordinator/runs"),
    ("GET", f"{API_PREFIX}/coordinator/runs"),
    ("GET", f"{API_PREFIX}/coordinator/runs/{{id}}"),
    ("GET", f"{API_PREFIX}/coordinator/runs/{{id}}/results"),
    ("POST", f"{API_PREFIX}/coordinator/lease"),
    ("POST", f"{API_PREFIX}/coordinator/results"),
    ("POST", f"{API_PREFIX}/coordinator/complete"),
)

#: CSV columns of the results export, in order.  Axis columns identify
#: the point (plus its store key); metric columns are the headline
#: numbers every figure is built from.  The full result payload is the
#: JSON format's job — CSV is the spreadsheet-sized view.
RESULTS_CSV_COLUMNS: Tuple[str, ...] = (
    "workload", "design", "capacity_mb", "scale", "requests", "seed",
    "page_size", "key", "served", "miss_ratio", "hit_ratio",
    "offchip_traffic_normalized", "aggregate_ipc",
)


class ServiceError(Exception):
    """An API error with its HTTP status (the body is ``{"error": ...}``)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class Response:
    """Transport-neutral response: JSON payload, raw text, or a stream."""

    status: int = 200
    content_type: str = "application/json"
    payload: Any = None
    text: Optional[str] = None
    stream: Optional[Iterator[str]] = None
    headers: Dict[str, str] = field(default_factory=dict)

    def body_bytes(self) -> bytes:
        if self.text is not None:
            return self.text.encode()
        return (json.dumps(self.payload, sort_keys=True) + "\n").encode()


class SimulationService:
    """API semantics over one :class:`~repro.serve.jobs.JobManager`."""

    def __init__(
        self,
        manager: JobManager,
        allow_plugins: bool = False,
        coordinator: Optional[Coordinator] = None,
    ) -> None:
        self.manager = manager
        self.allow_plugins = allow_plugins
        self.coordinator = coordinator or Coordinator(
            store_dir=manager.store_dir, allow_plugins=allow_plugins
        )

    # -- introspection -------------------------------------------------

    def index(self) -> Dict[str, Any]:
        """The API surface, for ``GET /api/v1``."""
        return {
            "service": "repro-serve",
            "api": API_VERSION,
            "routes": [f"{method} {path}" for method, path in API_ROUTES],
        }

    def health(self) -> Dict[str, Any]:
        store = ResultStore(self.manager.store_dir)
        jobs = self.manager.list()
        by_state = {state.value: 0 for state in JobState}
        for job in jobs:
            by_state[job.snapshot()["state"]] += 1
        runs = self.coordinator.list_runs()
        return {
            "status": "ok",
            "engine_version": ENGINE_VERSION,
            "run": self.manager.run_id,
            "store": store.path,
            "store_records": len(store),
            "workers": self.manager.workers,
            "jobs": by_state,
            "coordinator": {
                "runs": len(runs),
                "active": sum(1 for run in runs if run["state"] == "running"),
            },
        }

    def _refresh_gauges(self) -> None:
        """Mirror pull-model stats into the registry at scrape time.

        The trace cache keeps its own counters (zero registry traffic on
        the serving path); scrapes copy them into gauges here, so both
        exposition formats see fresh values without the cache ever
        paying for them.
        """
        stats = shared_trace_cache().stats()
        reg = registry()
        for name, help_text in (
            ("entries", "resident trace cache entries"),
            ("hits", "trace cache hits since process start"),
            ("misses", "trace cache misses since process start"),
            ("evictions", "trace cache LRU evictions since process start"),
            ("cached_requests", "materialised requests resident in the cache"),
            ("resident_bytes", "column bytes allocated in the cache, headroom included"),
        ):
            reg.gauge(f"repro_trace_cache_{name}", help_text).set(stats[name])

    def metrics(self) -> Dict[str, Any]:
        """The registry snapshot, for ``GET /api/v1/metrics`` (JSON)."""
        self._refresh_gauges()
        return {
            "service": "repro-serve",
            "run": self.manager.run_id,
            "metrics": registry().as_dict(),
        }

    def metrics_text(self) -> str:
        """Prometheus text exposition, for ``GET /metrics``."""
        self._refresh_gauges()
        return render_prometheus(registry())

    def designs(self) -> Dict[str, Any]:
        return {"designs": list(design_names())}

    def workloads(self) -> Dict[str, Any]:
        return {"workloads": list(profile_names())}

    def figures(self) -> Dict[str, Any]:
        from repro.reporting import figure_names, get_figure

        return {
            "figures": [
                {
                    "name": name,
                    "title": get_figure(name).title,
                    "artifacts": list(get_figure(name).artifacts),
                    "points": len(get_figure(name).points()),
                }
                for name in figure_names()
            ]
        }

    # -- jobs ----------------------------------------------------------

    def submit(self, payload: Any) -> Dict[str, Any]:
        """Submit an ExperimentSpec payload (the ``--spec`` JSON format)."""
        try:
            spec = spec_from_payload(payload, allow_plugins=self.allow_plugins)
        except (TypeError, ValueError) as error:
            raise ServiceError(400, f"invalid spec: {error}") from None
        return self.manager.submit_spec(spec).snapshot()

    def submit_figure(self, name: str) -> Dict[str, Any]:
        try:
            return self.manager.submit_figure(name).snapshot()
        except KeyError as error:
            raise ServiceError(404, str(error.args[0])) from None

    def _job(self, job_id: str) -> Job:
        try:
            return self.manager.get(job_id)
        except KeyError:
            raise ServiceError(404, f"unknown job {job_id!r}") from None

    def list_jobs(self) -> Dict[str, Any]:
        return {"jobs": [job.snapshot() for job in self.manager.list()]}

    def job_status(self, job_id: str) -> Dict[str, Any]:
        return self._job(job_id).snapshot()

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self.manager.cancel(self._job(job_id).id).snapshot()

    def journal(self) -> Dict[str, Any]:
        return {"journal": self.manager.journal_path,
                "jobs": self.manager.history()}

    # -- distributed coordinator ---------------------------------------

    def _coordinator_call(self, call: Callable[[], Any]) -> Any:
        try:
            return call()
        except CoordinatorError as error:
            raise ServiceError(error.status, error.message) from None

    def submit_run(self, payload: Any) -> Dict[str, Any]:
        return self._coordinator_call(lambda: self.coordinator.submit(payload))

    def list_runs(self) -> Dict[str, Any]:
        return {"runs": self._coordinator_call(self.coordinator.list_runs)}

    def run_status(self, run_id: str) -> Dict[str, Any]:
        return self._coordinator_call(
            lambda: self.coordinator.run_snapshot(run_id)
        )

    def run_results(self, run_id: str, since: int = 0) -> Dict[str, Any]:
        return self._coordinator_call(
            lambda: self.coordinator.run_results(run_id, since=since)
        )

    def lease_shard(self, payload: Any) -> Dict[str, Any]:
        worker = None
        if isinstance(payload, dict):
            worker = payload.get("worker")
        return self._coordinator_call(lambda: self.coordinator.lease(worker))

    def deliver_result(self, payload: Any) -> Dict[str, Any]:
        return self._coordinator_call(lambda: self.coordinator.deliver(payload))

    def complete_shard(self, payload: Any) -> Dict[str, Any]:
        return self._coordinator_call(lambda: self.coordinator.complete(payload))

    # -- events --------------------------------------------------------

    def events(self, job_id: str, since: int = 0) -> Dict[str, Any]:
        """One non-blocking page of a job's event log (poll style)."""
        job = self._job(job_id)
        events = job.events_since(since)
        return {
            "job": job.id,
            "state": job.snapshot()["state"],
            "events": events,
            "next": since + len(events),
        }

    def stream_events(
        self, job_id: str, since: int = 0, poll_seconds: float = 1.0
    ) -> Iterator[Dict[str, Any]]:
        """Yield events live until the job's terminal event has passed."""
        job = self._job(job_id)
        cursor = since
        while True:
            batch = job.wait_events(cursor, timeout=poll_seconds)
            cursor += len(batch)
            terminal = False
            for event in batch:
                yield event
                terminal = terminal or event["event"] in (
                    JobState.DONE.value,
                    JobState.FAILED.value,
                    JobState.CANCELLED.value,
                )
            if terminal:
                return

    # -- results -------------------------------------------------------

    def _result_rows(self, job: Job) -> List[Dict[str, Any]]:
        """Per-point results, served from the shared store.

        The store is the source of truth for results — done jobs read
        back exactly what they persisted (byte-for-byte what a CLI
        sweep of the same spec would have stored), and cancelled or
        failed jobs serve whatever points completed before the end.
        """
        store = ResultStore(self.manager.store_dir)
        rows = []
        for point in job.points:
            result = store.get(point)
            rows.append({
                "label": point.label(),
                "key": point.key(),
                "workload": point.workload,
                "design": point.design,
                "capacity_mb": point.capacity_mb,
                "scale": point.scale,
                "requests": point.resolved_requests,
                "seed": point.seed,
                "page_size": point.page_size,
                "served": result is not None,
                "result": None if result is None else result.to_dict(),
            })
        return rows

    def results(self, job_id: str) -> Dict[str, Any]:
        job = self._job(job_id)
        rows = self._result_rows(job)
        payload = {
            "job": job.id,
            "kind": job.kind,
            "state": job.snapshot()["state"],
            "complete": all(row["served"] for row in rows),
            "points": rows,
        }
        if job.kind == "figure":
            payload["artifacts"] = list(job.artifacts)
        return payload

    def results_csv(self, job_id: str) -> str:
        job = self._job(job_id)
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(RESULTS_CSV_COLUMNS)
        for row in self._result_rows(job):
            result = row["result"] or {}
            metrics = {
                "miss_ratio": result.get("miss_ratio", ""),
                "hit_ratio": result.get("hit_ratio", ""),
                "offchip_traffic_normalized": "",
                "aggregate_ipc": "",
            }
            if row["result"] is not None:
                from repro.sim.simulator import SimulationResult

                full = SimulationResult.from_dict(row["result"])
                metrics["offchip_traffic_normalized"] = (
                    full.offchip_traffic_normalized
                )
                metrics["aggregate_ipc"] = full.aggregate_ipc
            writer.writerow([
                row["workload"], row["design"], row["capacity_mb"],
                row["scale"], row["requests"], row["seed"], row["page_size"],
                row["key"], row["served"],
                metrics["miss_ratio"], metrics["hit_ratio"],
                metrics["offchip_traffic_normalized"],
                metrics["aggregate_ipc"],
            ])
        return out.getvalue()


# ----------------------------------------------------------------------
# Routing: (method, path) -> service call, shared by every adapter.
# ----------------------------------------------------------------------


def match_route(pattern: str, path: str) -> Optional[Dict[str, str]]:
    """Path params if ``path`` matches the ``{param}`` template, else None."""
    pattern_parts = pattern.strip("/").split("/")
    path_parts = path.strip("/").split("/")
    if len(pattern_parts) != len(path_parts):
        return None
    params: Dict[str, str] = {}
    for template, part in zip(pattern_parts, path_parts):
        if template.startswith("{") and template.endswith("}"):
            if not part:
                return None
            params[template[1:-1]] = unquote(part)
        elif template != part:
            return None
    return params


def _int_query(query: Dict[str, str], name: str, default: int) -> int:
    try:
        return int(query.get(name, default))
    except (TypeError, ValueError):
        raise ServiceError(400, f"query parameter {name!r} must be an integer")


def _ndjson(events: Iterator[Dict[str, Any]]) -> Iterator[str]:
    for event in events:
        yield json.dumps(event, sort_keys=True) + "\n"


def dispatch(
    service: SimulationService,
    method: str,
    path: str,
    query: Optional[Dict[str, str]] = None,
    body: Optional[bytes] = None,
) -> Response:
    """Route one request to the service; all API errors become JSON."""
    query = query or {}
    handler = _find(method, path)
    if handler is None:
        if any(match_route(route_path, path) is not None
               for _, route_path in API_ROUTES):
            return _error(405, f"method {method} not allowed for {path}")
        return _error(404, f"no such route: {path}")
    route_handler, params = handler
    try:
        return route_handler(service, params, query, body)
    except ServiceError as error:
        return _error(error.status, error.message)


def _error(status: int, message: str) -> Response:
    return Response(status=status, payload={"error": message})


def _json_body(body: Optional[bytes]) -> Any:
    if not body:
        raise ServiceError(400, "request body must be a JSON object")
    try:
        return json.loads(body)
    except json.JSONDecodeError as error:
        raise ServiceError(400, f"request body is not valid JSON: {error}")


RouteHandler = Callable[
    [SimulationService, Dict[str, str], Dict[str, str], Optional[bytes]],
    Response,
]


def _h_index(service, params, query, body) -> Response:
    return Response(payload=service.index())


def _h_health(service, params, query, body) -> Response:
    return Response(payload=service.health())


def _h_metrics(service, params, query, body) -> Response:
    return Response(payload=service.metrics())


def _h_metrics_text(service, params, query, body) -> Response:
    return Response(
        content_type="text/plain; version=0.0.4; charset=utf-8",
        text=service.metrics_text(),
    )


def _h_designs(service, params, query, body) -> Response:
    return Response(payload=service.designs())


def _h_workloads(service, params, query, body) -> Response:
    return Response(payload=service.workloads())


def _h_figures(service, params, query, body) -> Response:
    return Response(payload=service.figures())


def _h_submit_figure(service, params, query, body) -> Response:
    return Response(status=202, payload=service.submit_figure(params["name"]))


def _h_submit(service, params, query, body) -> Response:
    return Response(status=202, payload=service.submit(_json_body(body)))


def _h_jobs(service, params, query, body) -> Response:
    return Response(payload=service.list_jobs())


def _h_job(service, params, query, body) -> Response:
    return Response(payload=service.job_status(params["id"]))


def _h_cancel(service, params, query, body) -> Response:
    return Response(payload=service.cancel(params["id"]))


def _h_events(service, params, query, body) -> Response:
    since = _int_query(query, "since", 0)
    if query.get("stream", "1") in ("0", "false", "no"):
        return Response(payload=service.events(params["id"], since=since))
    return Response(
        content_type="application/x-ndjson",
        stream=_ndjson(service.stream_events(params["id"], since=since)),
    )


def _h_results(service, params, query, body) -> Response:
    if query.get("format", "json") == "csv":
        return Response(
            content_type="text/csv",
            text=service.results_csv(params["id"]),
        )
    return Response(payload=service.results(params["id"]))


def _h_submit_run(service, params, query, body) -> Response:
    return Response(status=202, payload=service.submit_run(_json_body(body)))


def _h_runs(service, params, query, body) -> Response:
    return Response(payload=service.list_runs())


def _h_run(service, params, query, body) -> Response:
    return Response(payload=service.run_status(params["id"]))


def _h_run_results(service, params, query, body) -> Response:
    since = _int_query(query, "since", 0)
    return Response(payload=service.run_results(params["id"], since=since))


def _h_lease(service, params, query, body) -> Response:
    # Leasing needs no parameters; a body, when present, names the worker.
    payload = _json_body(body) if body else {}
    return Response(payload=service.lease_shard(payload))


def _h_deliver(service, params, query, body) -> Response:
    return Response(payload=service.deliver_result(_json_body(body)))


def _h_complete(service, params, query, body) -> Response:
    return Response(payload=service.complete_shard(_json_body(body)))


_HANDLERS: Dict[Tuple[str, str], RouteHandler] = {
    ("GET", f"{API_PREFIX}"): _h_index,
    ("GET", f"{API_PREFIX}/health"): _h_health,
    ("GET", f"{API_PREFIX}/metrics"): _h_metrics,
    ("GET", "/metrics"): _h_metrics_text,
    ("GET", f"{API_PREFIX}/designs"): _h_designs,
    ("GET", f"{API_PREFIX}/workloads"): _h_workloads,
    ("GET", f"{API_PREFIX}/figures"): _h_figures,
    ("POST", f"{API_PREFIX}/figures/{{name}}"): _h_submit_figure,
    ("POST", f"{API_PREFIX}/jobs"): _h_submit,
    ("GET", f"{API_PREFIX}/jobs"): _h_jobs,
    ("GET", f"{API_PREFIX}/jobs/{{id}}"): _h_job,
    ("POST", f"{API_PREFIX}/jobs/{{id}}/cancel"): _h_cancel,
    ("GET", f"{API_PREFIX}/jobs/{{id}}/events"): _h_events,
    ("GET", f"{API_PREFIX}/jobs/{{id}}/results"): _h_results,
    ("GET", f"{API_PREFIX}/journal"): lambda service, p, q, b: Response(
        payload=service.journal()
    ),
    ("POST", f"{API_PREFIX}/coordinator/runs"): _h_submit_run,
    ("GET", f"{API_PREFIX}/coordinator/runs"): _h_runs,
    ("GET", f"{API_PREFIX}/coordinator/runs/{{id}}"): _h_run,
    ("GET", f"{API_PREFIX}/coordinator/runs/{{id}}/results"): _h_run_results,
    ("POST", f"{API_PREFIX}/coordinator/lease"): _h_lease,
    ("POST", f"{API_PREFIX}/coordinator/results"): _h_deliver,
    ("POST", f"{API_PREFIX}/coordinator/complete"): _h_complete,
}

assert set(_HANDLERS) == set(API_ROUTES), "route table and handlers diverged"


def _find(
    method: str, path: str
) -> Optional[Tuple[RouteHandler, Dict[str, str]]]:
    for (route_method, route_path), handler in _HANDLERS.items():
        if route_method != method:
            continue
        params = match_route(route_path, path)
        if params is not None:
            return handler, params
    return None


__all__ = [
    "API_PREFIX",
    "API_ROUTES",
    "API_VERSION",
    "RESULTS_CSV_COLUMNS",
    "Response",
    "ServiceError",
    "SimulationService",
    "dispatch",
    "match_route",
]
