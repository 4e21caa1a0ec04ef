"""A thin stdlib HTTP/JSON front end over the job queue.

``python -m repro.jobs serve --dir DIR --port P`` exposes the same
operations as the CLI -- nothing here computes anything; every route is
a direct call into :class:`~repro.jobs.service.JobService` /
:class:`~repro.jobs.admin.AdminService`, so HTTP submissions produce
records (and results) identical to CLI ones.  Workers are *not* started
by the server; run ``python -m repro.jobs worker --dir DIR`` separately.

Routes::

    POST   /jobs                 {"figure": "fig9",
                                  "engine": {...EngineConfig...}} -> job
    GET    /jobs[?state=pending] -> [job, ...]
    GET    /jobs/<id>            -> job
    GET    /jobs/<id>/result     -> text/plain rendered figure
    POST   /jobs/<id>/cancel     -> job
    GET    /admin/stats          -> queue summary
    POST   /admin/purge          -> {"purged": [ids]}
    GET    /admin/quarantine     -> [job, ...] (QUARANTINED shelf)
    POST   /admin/quarantine/<id>/release -> job (back to PENDING)

Deliberately no TLS, no auth: this is a localhost experiment harness,
not a deployment surface.
"""

from __future__ import annotations

import json
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.engine.config import EngineConfig
from repro.jobs.admin import AdminService
from repro.jobs.lifecycle import STATES, InvalidTransition
from repro.jobs.repository import JobRepository, UnknownJobError
from repro.jobs.service import JobNotFinished, JobService

__all__ = ["JobApiHandler", "make_server"]


class JobApiHandler(BaseHTTPRequestHandler):
    """Request handler bound to the server's repository (see make_server)."""

    server_version = "repro-jobs/1"

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    @property
    def service(self) -> JobService:
        return self.server.job_service  # type: ignore[attr-defined]

    @property
    def admin(self) -> AdminService:
        return self.server.admin_service  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 -- stdlib signature
        if getattr(self.server, "quiet", False):
            return
        super().log_message(format, *args)

    def _send_json(self, payload, status: HTTPStatus = HTTPStatus.OK) -> None:
        body = json.dumps(payload, indent=2).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, text: str, status: HTTPStatus = HTTPStatus.OK) -> None:
        body = text.encode()
        self.send_response(status)
        self.send_header("Content-Type", "text/plain; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: HTTPStatus, message: str) -> None:
        self._send_json({"error": message}, status)

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length", 0))
        if length == 0:
            return {}
        return json.loads(self.rfile.read(length))

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 -- stdlib handler name
        parsed = urlparse(self.path)
        parts = [p for p in parsed.path.split("/") if p]
        try:
            if parts == ["jobs"]:
                query = parse_qs(parsed.query)
                state = query.get("state", [None])[0]
                if state is not None and state not in STATES:
                    return self._send_error_json(
                        HTTPStatus.BAD_REQUEST,
                        f"state must be one of {STATES}, got {state!r}",
                    )
                jobs = self.service.list_jobs(state=state)
                return self._send_json([j.as_dict() for j in jobs])
            if len(parts) == 2 and parts[0] == "jobs":
                return self._send_json(self.service.status(parts[1]).as_dict())
            if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "result":
                return self._send_text(self.service.result(parts[1]))
            if parts == ["admin", "stats"]:
                return self._send_json(self.admin.stats())
            if parts == ["admin", "quarantine"]:
                return self._send_json(
                    [j.as_dict() for j in self.admin.quarantine_list()]
                )
        except UnknownJobError as exc:
            return self._send_error_json(HTTPStatus.NOT_FOUND, str(exc))
        except JobNotFinished as exc:
            return self._send_error_json(HTTPStatus.CONFLICT, str(exc))
        self._send_error_json(HTTPStatus.NOT_FOUND, f"no route {self.path!r}")

    def do_POST(self) -> None:  # noqa: N802 -- stdlib handler name
        parts = [p for p in urlparse(self.path).path.split("/") if p]
        try:
            if parts == ["jobs"]:
                return self._submit()
            if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "cancel":
                return self._send_json(self.service.cancel(parts[1]).as_dict())
            if parts == ["admin", "purge"]:
                return self._send_json({"purged": self.admin.purge()})
            if (
                len(parts) == 4
                and parts[:2] == ["admin", "quarantine"]
                and parts[3] == "release"
            ):
                return self._send_json(
                    self.admin.quarantine_release(parts[2]).as_dict()
                )
        except UnknownJobError as exc:
            return self._send_error_json(HTTPStatus.NOT_FOUND, str(exc))
        except InvalidTransition as exc:
            return self._send_error_json(HTTPStatus.CONFLICT, str(exc))
        except (ValueError, TypeError) as exc:
            return self._send_error_json(HTTPStatus.BAD_REQUEST, str(exc))
        self._send_error_json(HTTPStatus.NOT_FOUND, f"no route {self.path!r}")

    def _submit(self) -> None:
        payload = self._read_body()
        figure = payload.get("figure")
        if not figure:
            return self._send_error_json(
                HTTPStatus.BAD_REQUEST, "body must include a 'figure' id"
            )
        config = None
        if "engine" in payload:
            config = EngineConfig.from_dict(payload["engine"])
        job = self.service.submit_figure(
            figure,
            config=config,
            max_retries=int(payload.get("max_retries", 3)),
            reuse_completed=bool(payload.get("reuse_completed", False)),
        )
        self._send_json(job.as_dict(), HTTPStatus.CREATED)


def make_server(
    repository: JobRepository,
    host: str = "127.0.0.1",
    port: int = 0,
    quiet: bool = False,
) -> ThreadingHTTPServer:
    """A ready-to-serve HTTP server bound to ``repository``.

    ``port=0`` picks a free port (tests); read it back from
    ``server.server_address``.  Call ``serve_forever()`` to run,
    ``shutdown()`` from another thread to stop.
    """
    server = ThreadingHTTPServer((host, port), JobApiHandler)
    server.job_service = JobService(repository)  # type: ignore[attr-defined]
    server.admin_service = AdminService(repository)  # type: ignore[attr-defined]
    server.quiet = quiet  # type: ignore[attr-defined]
    return server
