"""The worker side of the distributed-sweep protocol.

``python -m repro worker --coordinator URL`` runs a :class:`WorkerLoop`:
lease a shard from the coordinator, reconstruct its
:class:`~repro.exp.spec.ExperimentPoint` payloads, simulate them through
any inner :class:`~repro.exp.backends.SweepBackend` (serial by default,
``--jobs N`` for a process pool), stream each result back as it
completes, then mark the shard complete so the coordinator folds it.
Repeat until told to stop or idle past ``--max-idle``.

Failure handling is deliberately simple because the coordinator owns
correctness: on any transport error or a stale-lease reply the worker
*abandons* the shard and re-leases — the coordinator's lease deadline
reassigns abandoned work, and duplicate deliveries of a half-finished
shard are idempotent.  A worker therefore never needs local durability;
killing one mid-shard (the fault the CI distributed-smoke job injects)
costs one lease window, nothing else.
"""

from __future__ import annotations

import secrets
import threading
import time
from typing import Callable, Optional, Sequence

from repro.exp.backends.base import SweepBackend
from repro.exp.backends.distributed import (
    COORDINATOR_PREFIX,
    HttpTransport,
    TransportError,
)
from repro.exp.backends.serial import SerialBackend
from repro.exp.plugins import load_plugins
from repro.exp.spec import ExperimentPoint
from repro.obs.log import get_logger
from repro.obs.metrics import registry
from repro.obs.spans import tracer


class LeaseLost(RuntimeError):
    """The coordinator no longer recognises our lease (expired/folded)."""


class WorkerKilled(RuntimeError):
    """Injected crash (``FaultyWorker`` / ``--kill-after``) fired."""


class WorkerLoop:
    """Lease -> simulate -> stream -> complete, until idle or stopped.

    Parameters
    ----------
    transport:
        A coordinator base URL (``http://host:port``) or anything with
        ``call(method, path, payload) -> dict`` (an
        :class:`~repro.exp.backends.distributed.HttpTransport` against a
        live coordinator, or the in-process transports in
        :mod:`repro.serve.faults`).
    backend:
        The inner execution backend for leased points (default serial).
    plugins:
        Locally forced plugin modules, merged with whatever the lease
        carries (leases only carry plugins when the coordinator was
        started with ``--allow-plugins``).
    poll_seconds / max_idle_seconds:
        Idle-poll cadence, and how long to idle before :meth:`run`
        returns (``None`` = poll forever).
    """

    def __init__(
        self,
        transport,
        backend: Optional[SweepBackend] = None,
        worker_id: Optional[str] = None,
        plugins: Sequence[str] = (),
        poll_seconds: float = 1.0,
        max_idle_seconds: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
        quiet: bool = True,
    ):
        if isinstance(transport, str):
            transport = HttpTransport(transport)
        self.transport = transport
        self.backend = backend or SerialBackend()
        self.worker_id = worker_id or f"worker-{secrets.token_hex(3)}"
        self.plugins = tuple(plugins)
        self.poll_seconds = poll_seconds
        self.max_idle_seconds = max_idle_seconds
        self.delivered_total = 0
        self.shards_completed = 0
        self.quiet = quiet
        self._clock = clock
        self._stop = threading.Event()
        self.log = get_logger("serve.worker").bind(worker=self.worker_id)

    def request_stop(self) -> None:
        """Ask :meth:`run` to return after the current shard."""
        self._stop.set()

    def _log(self, message: str, **fields) -> None:
        # Library embedders default to quiet=True: shard chatter drops to
        # debug level there, so only `repro worker -v` (or programmatic
        # quiet=False) narrates the protocol on stderr.
        if self.quiet:
            self.log.debug(message, **fields)
        else:
            self.log.info(message, **fields)

    # -- one protocol round --------------------------------------------

    def step(self) -> bool:
        """Lease and process one shard; False when the queue was idle.

        Raises :class:`LeaseLost` when the coordinator reassigned the
        shard mid-flight, :class:`TransportError` on wire failure, and
        :class:`WorkerKilled` from the fault-injection subclass — the
        :meth:`run` loop (or a test harness) decides what survives.
        """
        reply = self.transport.call(
            "POST", f"{COORDINATOR_PREFIX}/lease", {"worker": self.worker_id}
        )
        if reply.get("state") != "granted":
            return False
        lease = reply["lease"]
        plugins = self.plugins + tuple(
            name for name in lease.get("plugins", ()) if name not in self.plugins
        )
        load_plugins(plugins)
        points = [ExperimentPoint.from_dict(raw) for raw in lease["points"]]
        self._log(
            "leased shard", lease=lease["id"], run=lease["run"],
            shard=lease["shard"], points=len(points),
        )
        with tracer().span(
            "worker.shard", worker=self.worker_id, lease=lease["id"],
            run=lease["run"], shard=lease["shard"], points=len(points),
        ):
            self._run_shard(lease["id"], points, plugins)
        self.shards_completed += 1
        registry().counter(
            "repro_worker_shards_total", "shards folded by this worker",
            worker=self.worker_id,
        ).inc()
        self._log("folded shard", lease=lease["id"], run=lease["run"],
                  shard=lease["shard"])
        return True

    def _run_shard(self, lease_id, points, plugins) -> None:
        trace = tracer()
        delivered_counter = registry().counter(
            "repro_worker_points_total", "points delivered by this worker",
            worker=self.worker_id,
        )
        for point, result in self.backend.execute(points, plugins=plugins):
            self._before_delivery()
            reply = self.transport.call(
                "POST",
                f"{COORDINATOR_PREFIX}/results",
                {
                    "lease": lease_id,
                    "worker": self.worker_id,
                    "key": point.key(),
                    "result": result.to_dict(),
                },
            )
            if reply.get("state") == "stale":
                raise LeaseLost(f"lease {lease_id} lost mid-shard")
            self.delivered_total += 1
            delivered_counter.inc()
            trace.event(
                "worker.deliver", worker=self.worker_id, lease=lease_id,
                key=point.key(),
            )
        reply = self.transport.call(
            "POST", f"{COORDINATOR_PREFIX}/complete", {"lease": lease_id}
        )
        if reply.get("state") == "stale":
            raise LeaseLost(f"lease {lease_id} lost at completion")

    def _before_delivery(self) -> None:
        """Fault-injection hook (:class:`FaultyWorker` overrides)."""

    # -- the service loop ----------------------------------------------

    def run(self) -> None:
        """Serve shards until stopped or idle for ``max_idle_seconds``.

        Transport errors and lost leases are survivable by design; only
        :class:`WorkerKilled` (and genuine bugs) propagate.
        """
        idle_since: Optional[float] = None
        while not self._stop.is_set():
            try:
                worked = self.step()
            except LeaseLost as error:
                self.log.warning("lease lost", error=str(error))
                continue
            except TransportError as error:
                self.log.warning("transport error", error=str(error))
                worked = False
            if worked:
                idle_since = None
                continue
            now = self._clock()
            if idle_since is None:
                idle_since = now
            if (
                self.max_idle_seconds is not None
                and now - idle_since >= self.max_idle_seconds
            ):
                self._log("idle, exiting",
                          idle_seconds=self.max_idle_seconds)
                return
            # Event-based sleep so request_stop() interrupts the wait.
            self._stop.wait(self.poll_seconds)


__all__ = ["LeaseLost", "WorkerKilled", "WorkerLoop"]
