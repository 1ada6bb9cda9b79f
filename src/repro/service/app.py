"""The sweep service application: wiring, routing, serve loop, drain.

``repro serve`` builds a :class:`ServiceApp` around one data
directory::

    data_dir/
      wal.jsonl                  service WAL (submissions, lifecycle)
      experiments/<id>/journal.jsonl   per-experiment pair checkpoints
      solve-cache/               shared content-addressed solve tier

Startup *always* runs WAL recovery: a process that was SIGKILLed
mid-anything comes back with every accepted experiment intact and
every non-terminal one requeued; their sweeps resume from their pair
journals, so nothing solved is re-solved.

Shutdown (SIGTERM/SIGINT) is a graceful drain: admission closes
(503 + Retry-After), in-flight sweeps checkpoint after their current
pair and requeue, the WAL records the requeue, and the process exits
0.  A SIGKILL instead of a drain loses nothing either -- recovery
covers it -- the drain just avoids abandoning a half-solved pair.

The asyncio loop serves HTTP; sweeps run on scheduler threads (the
solver work is CPU-bound and blocking), each on ``--procs`` lease
workers.  Handlers touch shared state only through the thread-safe
store/scheduler/admission objects, and run blocking report rebuilds
in the default executor so the control plane stays responsive
mid-sweep.
"""

from __future__ import annotations

import asyncio
import os
import signal
import sys
from dataclasses import dataclass
from pathlib import Path

from repro.service.admission import AdmissionController, AdmissionPolicy
from repro.service.experiments import (
    DEFAULT_TENANT,
    ExperimentState,
    PayloadError,
    experiment_id,
    resolve_payload,
)
from repro.service.http import (
    BadRequest,
    OversizedBody,
    Request,
    Response,
    read_request,
)
from repro.service.scheduler import Scheduler, SchedulerConfig
from repro.service.store import (
    ExperimentStore,
    StoreWriteError,
    TransitionError,
)


@dataclass(frozen=True)
class ServiceConfig:
    """Everything ``repro serve`` exposes as flags."""

    data_dir: str
    host: str = "127.0.0.1"
    port: int = 8080
    concurrency: int = 1
    sweep_procs: int = 1
    default_time_limit: float = 20.0
    solve_cache: "str | None" = None  # default: <data_dir>/solve-cache
    no_solve_cache: bool = False
    max_queue_depth: int = 16
    max_pending_per_tenant: int = 8
    max_body_bytes: int = 8 * 1024 * 1024
    drain_grace: float = 30.0
    chaos_kill_after: int = 0


class ServiceApp:
    """Store + admission + scheduler + HTTP routing."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        root = Path(config.data_dir)
        self.store = ExperimentStore(root)
        self.admission = AdmissionController(AdmissionPolicy(
            max_queue_depth=config.max_queue_depth,
            max_pending_per_tenant=config.max_pending_per_tenant,
            max_body_bytes=config.max_body_bytes,
            drain_grace_seconds=config.drain_grace,
        ))
        cache_dir: "str | None" = None
        if not config.no_solve_cache:
            cache_dir = config.solve_cache or str(root / "solve-cache")
        self.solve_cache_dir = cache_dir
        self.scheduler = Scheduler(self.store, SchedulerConfig(
            n_workers=config.concurrency,
            sweep_procs=config.sweep_procs,
            solve_cache_dir=cache_dir,
            chaos_kill_after=config.chaos_kill_after,
        ))
        self.recovery: dict = {}

    # -- lifecycle ----------------------------------------------------------

    def startup(self) -> None:
        self.recovery = self.store.recover()
        self.scheduler.start()

    def drain(self) -> bool:
        """Stop admitting, checkpoint in-flight sweeps, flush."""
        self.admission.start_drain()
        return self.scheduler.drain(timeout=self.config.drain_grace)

    # -- routing ------------------------------------------------------------

    async def handle(self, request: Request) -> Response:
        parts = [p for p in request.path.split("/") if p]
        try:
            if request.path == "/healthz" and request.method == "GET":
                return Response.json({
                    "status": "ok",
                    "draining": self.admission.draining,
                })
            if request.path == "/v1/stats" and request.method == "GET":
                return self._stats()
            if parts[:2] == ["v1", "experiments"]:
                if len(parts) == 2:
                    if request.method == "POST":
                        return self._submit(request)
                    if request.method == "GET":
                        return self._list(request)
                    return Response.error(405, "use GET or POST")
                exp_id = parts[2]
                if len(parts) == 3 and request.method == "GET":
                    return self._status(exp_id)
                if len(parts) == 4:
                    return await self._subresource(
                        request, exp_id, parts[3]
                    )
            return Response.error(404, f"no route for {request.path}")
        except KeyError:
            return Response.error(404, f"unknown experiment {parts[2]!r}")
        except (BadRequest, PayloadError) as exc:
            return Response.error(400, str(exc))
        except TransitionError as exc:
            return Response.error(409, str(exc))
        except StoreWriteError as exc:
            return Response.error(
                503, str(exc),
                retry_after=self.admission.policy.retry_after_seconds,
            )

    async def _subresource(
        self, request: Request, exp_id: str, action: str
    ) -> Response:
        if action == "report" and request.method == "GET":
            return await self._report(exp_id)
        if action == "results" and request.method == "GET":
            return self._results(exp_id)
        if action == "cancel" and request.method == "POST":
            experiment = self.scheduler.cancel(exp_id)
            return Response.json(experiment.summary(), status=202)
        if action in ("rerun", "resume") and request.method == "POST":
            return self._requeue(exp_id, fresh=action == "rerun")
        return Response.error(404, f"no route for {request.path}")

    # -- handlers -----------------------------------------------------------

    def _submit(self, request: Request) -> Response:
        tenant_header = request.headers.get("x-tenant")
        payload = request.json()
        resolved = resolve_payload(
            payload,
            tenant=tenant_header,
            default_time_limit=self.config.default_time_limit,
        )
        try:
            existing = self.store.get(
                experiment_id(resolved.tenant, resolved.canonical)
            )
        except KeyError:
            pass
        else:
            # A retried POST of an accepted experiment is idempotent
            # even under backpressure: it adds no work, so admission
            # must not shed it (the client needs its id back).
            body = dict(existing.summary())
            body["deduplicated"] = True
            return Response.json(body, status=200)
        decision = self.admission.check_queue(
            self.store.counts(), resolved.tenant
        )
        if not decision.admitted:
            return Response.error(
                decision.status, decision.reason, decision.retry_after
            )
        experiment, created = self.store.submit(resolved)
        if created:
            self.scheduler.wake()
        body = dict(experiment.summary())
        body["deduplicated"] = not created
        return Response.json(body, status=201 if created else 200)

    def _list(self, request: Request) -> Response:
        tenant = request.first("tenant")
        return Response.json({
            "experiments": [
                e.summary() for e in self.store.list(tenant=tenant)
            ],
        })

    def _status(self, exp_id: str) -> Response:
        return Response.json(self.store.get(exp_id).summary())

    async def _report(self, exp_id: str) -> Response:
        experiment = self.store.get(exp_id)
        if experiment.report is not None:
            return Response.text(experiment.report)
        if experiment.state is not ExperimentState.DONE:
            return Response.error(
                409,
                f"experiment {exp_id} is {experiment.state.value}; "
                "the report exists once it is DONE",
            )
        # The rebuild replays the pair journal (zero solves) but does
        # blocking file/CPU work; keep the event loop responsive.
        loop = asyncio.get_running_loop()
        report = await loop.run_in_executor(
            None, self.scheduler.report_for, exp_id
        )
        return Response.text(report)

    def _results(self, exp_id: str) -> Response:
        """Journaled (clip, rule) records as NDJSON -- streamable
        progress, readable mid-run (tolerant snapshot)."""
        import json as _json

        from repro.exec.checkpoint import CheckpointJournal, dedupe_results

        self.store.get(exp_id)  # 404 on unknown id
        journal = CheckpointJournal(self.store.journal_path(exp_id))
        records = dedupe_results(journal.read()) if journal.exists() else []
        lines = [
            _json.dumps(record, sort_keys=True) for record in records
        ]
        body = ("\n".join(lines) + "\n") if lines else ""
        return Response(
            status=200,
            body=body.encode("utf-8"),
            content_type="application/x-ndjson",
        )

    def _requeue(self, exp_id: str, fresh: bool) -> Response:
        experiment = self.store.get(exp_id)
        if not experiment.terminal:
            return Response.error(
                409,
                f"experiment {exp_id} is {experiment.state.value}; "
                "rerun/resume applies to terminal experiments",
            )
        decision = self.admission.check_queue(
            self.store.counts(), experiment.tenant
        )
        if not decision.admitted:
            return Response.error(
                decision.status, decision.reason, decision.retry_after
            )
        if fresh:
            # A rerun discards prior pair results; resume keeps them
            # (useful after FAILED: only missing pairs re-solve).
            journal_path = self.store.journal_path(exp_id)
            try:
                journal_path.unlink()
            except FileNotFoundError:
                pass
            experiment.report = None
            experiment.completed_pairs = 0
        else:
            experiment.report = None
        experiment = self.store.transition(
            exp_id,
            ExperimentState.QUEUED,
            "rerun requested" if fresh else "resume requested",
        )
        self.scheduler.wake()
        return Response.json(experiment.summary(), status=202)

    def _stats(self) -> Response:
        cache_stats = None
        if self.solve_cache_dir is not None:
            from repro.ilp.solve_cache import SolveCache

            cache_stats = SolveCache(self.solve_cache_dir).stats()
        return Response.json({
            "store": self.store.counts(),
            "admission": self.admission.stats(),
            "recovery": self.recovery,
            "pairs_journaled": self.scheduler.pairs_journaled,
            "solve_cache": cache_stats,
            "wal_write_failures": self.store.wal.write_failures,
        })

    # -- connection handling ------------------------------------------------

    async def _client(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            try:
                request = await read_request(
                    reader, self.admission.policy.max_body_bytes
                )
            except OversizedBody as exc:
                decision = self.admission.check_body_size(exc.declared)
                response = Response.error(
                    decision.status or 413,
                    decision.reason or "request body too large",
                    decision.retry_after,
                )
            except BadRequest as exc:
                response = Response.error(400, str(exc))
            except (ConnectionError, asyncio.IncompleteReadError):
                return
            else:
                try:
                    response = await self.handle(request)
                except Exception as exc:  # noqa: BLE001 - last resort
                    response = Response.error(
                        500, f"internal error: {type(exc).__name__}: {exc}"
                    )
            writer.write(response.encode())
            await writer.drain()
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


async def _serve_async(app: ServiceApp) -> int:
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()

    def _request_drain() -> None:
        stop.set()

    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, _request_drain)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass

    server = await asyncio.start_server(
        app._client, host=app.config.host, port=app.config.port
    )
    addr = server.sockets[0].getsockname()
    # Parsed by clients/tests when port 0 picked an ephemeral port;
    # keep the format stable and flush so pipes see it immediately.
    print(f"repro-serve listening on {addr[0]}:{addr[1]}", flush=True)
    if app.recovery:
        print(
            f"recovered {app.recovery.get('experiments', 0)} experiment(s), "
            f"requeued {app.recovery.get('requeued', 0)}, "
            f"quarantined {app.recovery.get('quarantined_records', 0)} "
            "WAL record(s)",
            flush=True,
        )

    await stop.wait()
    print("drain: admission closed, checkpointing in-flight sweeps",
          flush=True)
    server.close()
    await server.wait_closed()
    drained = await loop.run_in_executor(None, app.drain)
    print("drain complete" if drained else
          "drain timed out; journals are consistent (resume on restart)",
          flush=True)
    return 0


def serve(config: ServiceConfig) -> int:
    """Blocking entry point for ``repro serve``."""
    app = ServiceApp(config)
    app.startup()
    try:
        return asyncio.run(_serve_async(app))
    except KeyboardInterrupt:  # pragma: no cover - signal handler races
        app.drain()
        return 0


__all__ = [
    "DEFAULT_TENANT",
    "ServiceApp",
    "ServiceConfig",
    "serve",
]


if __name__ == "__main__":  # pragma: no cover - convenience
    sys.exit(serve(ServiceConfig(data_dir=os.environ.get(
        "REPRO_SERVICE_DATA", "./service-data"
    ))))
