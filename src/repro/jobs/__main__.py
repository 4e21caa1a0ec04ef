"""Command-line front end of the background-job queue.

Everything a deployment needs, one subcommand each::

    python -m repro.jobs submit fig9 --dir Q          # enqueue
    python -m repro.jobs worker --dir Q               # drain the queue
    python -m repro.jobs status <id> --dir Q          # one record
    python -m repro.jobs watch <id> --dir Q           # poll to terminal
    python -m repro.jobs result <id> --dir Q          # rendered figure
    python -m repro.jobs cancel <id> --dir Q          # cooperative cancel
    python -m repro.jobs sweep --dir Q                # requeue dead workers' jobs
    python -m repro.jobs list --dir Q [--state s]     # queue listing
    python -m repro.jobs admin stats|purge --dir Q    # queue-wide ops
    python -m repro.jobs admin quarantine-list --dir Q
    python -m repro.jobs admin quarantine-release <id> --dir Q
    python -m repro.jobs serve --dir Q --port 8642    # HTTP front end

The ``--dir`` directory is the durable queue; every command operating
on the same directory sees the same jobs, across processes and across
crashes.  ``--backend`` picks the store (``file`` JSON-dir, ``sqlite``
WAL database, or the default ``auto``, which re-opens whatever backend
already lives in the directory).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence

from repro.engine.config import EngineConfig
from repro.jobs.admin import AdminService
from repro.jobs.lifecycle import COMPLETED, STATES
from repro.jobs.lifecycle import InvalidTransition
from repro.jobs.repository import UnknownJobError, open_repository
from repro.jobs.service import JobNotFinished, JobService
from repro.jobs.sweeper import StaleJobSweeper
from repro.jobs.worker import JobWorker

__all__ = ["main"]


def _summary_line(job) -> str:
    progress = f"{job.points_done}"
    if job.points_total:
        progress += f"/{job.points_total}"
    return (
        f"{job.job_id}  {job.state:<9}  {job.spec.figure:<6}  "
        f"points={progress}  retries={job.retries}"
        + (f"  worker={job.worker_id}" if job.worker_id else "")
        + (f"  error={job.error}" if job.error else "")
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.jobs",
        description="Durable background-job queue over the sweep engine.",
    )
    parser.add_argument(
        "--dir",
        dest="queue_dir",
        default="jobs-queue",
        metavar="DIR",
        help="queue directory (default ./jobs-queue); all commands "
        "against the same DIR share one durable queue",
    )
    parser.add_argument(
        "--backend",
        choices=("auto", "file", "sqlite"),
        default="auto",
        help="job-store backend (default auto: re-open whatever backend "
        "already lives in DIR, JSON-dir for a fresh queue)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_submit = sub.add_parser("submit", help="enqueue a figure job")
    p_submit.add_argument("figure", help="figure id (fig1..fig13)")
    p_submit.add_argument(
        "--engine-json",
        default=None,
        metavar="JSON",
        help="EngineConfig as a JSON object (default: queue-cached defaults)",
    )
    p_submit.add_argument("--max-retries", type=int, default=3)
    p_submit.add_argument(
        "--reuse-completed",
        action="store_true",
        help="return an existing COMPLETED job with the same spec "
        "instead of enqueueing a duplicate",
    )

    p_status = sub.add_parser("status", help="print one job record as JSON")
    p_status.add_argument("job_id")

    p_watch = sub.add_parser("watch", help="poll a job until it is terminal")
    p_watch.add_argument("job_id")
    p_watch.add_argument(
        "--timeout-ms", type=float, default=600_000.0, metavar="MS"
    )

    p_result = sub.add_parser("result", help="print a COMPLETED job's result")
    p_result.add_argument("job_id")

    p_cancel = sub.add_parser("cancel", help="cancel a job (cooperative)")
    p_cancel.add_argument("job_id")

    p_worker = sub.add_parser("worker", help="claim and execute queued jobs")
    p_worker.add_argument(
        "--max-jobs",
        type=int,
        default=None,
        metavar="N",
        help="stop after N jobs (default: drain the queue)",
    )

    p_sweep = sub.add_parser(
        "sweep", help="requeue RUNNING jobs whose worker died"
    )
    p_sweep.add_argument(
        "--lease-ms",
        type=float,
        default=30_000.0,
        metavar="MS",
        help="heartbeat age after which a RUNNING job is stale",
    )

    p_list = sub.add_parser("list", help="list jobs, oldest first")
    p_list.add_argument("--state", choices=STATES, default=None)

    p_admin = sub.add_parser("admin", help="queue-wide operations")
    p_admin.add_argument(
        "operation",
        choices=(
            "stats",
            "purge",
            "cancel-all",
            "quarantine-list",
            "quarantine-release",
        ),
    )
    p_admin.add_argument(
        "job_id",
        nargs="?",
        default=None,
        help="job id (quarantine-release only)",
    )
    p_admin.add_argument(
        "--include-quarantined",
        action="store_true",
        help="let purge remove QUARANTINED records too",
    )

    p_serve = sub.add_parser("serve", help="run the HTTP/JSON front end")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8642)

    args = parser.parse_args(argv)
    repository = open_repository(args.queue_dir, backend=args.backend)
    service = JobService(repository)

    try:
        if args.command == "submit":
            config = None
            if args.engine_json is not None:
                config = EngineConfig.from_dict(json.loads(args.engine_json))
            job = service.submit_figure(
                args.figure,
                config=config,
                max_retries=args.max_retries,
                reuse_completed=args.reuse_completed,
            )
            print(job.job_id)
            return 0
        if args.command == "status":
            print(json.dumps(service.status(args.job_id).as_dict(), indent=2))
            return 0
        if args.command == "watch":
            job = service.wait(args.job_id, timeout_ms=args.timeout_ms)
            print(_summary_line(job))
            return 0 if job.state == COMPLETED else 1
        if args.command == "result":
            print(service.result(args.job_id))
            return 0
        if args.command == "cancel":
            print(_summary_line(service.cancel(args.job_id)))
            return 0
        if args.command == "worker":
            worker = JobWorker(repository)
            done = worker.run_until_drained(max_jobs=args.max_jobs)
            for job in done:
                print(_summary_line(job))
            return 0 if all(j.state == COMPLETED for j in done) else 1
        if args.command == "sweep":
            sweeper = StaleJobSweeper(repository, lease_ms=args.lease_ms)
            for job in sweeper.sweep():
                print(_summary_line(job))
            return 0
        if args.command == "list":
            for job in service.list_jobs(state=args.state):
                print(_summary_line(job))
            return 0
        if args.command == "admin":
            admin = AdminService(repository)
            if args.operation == "stats":
                print(json.dumps(admin.stats(), indent=2))
            elif args.operation == "purge":
                for job_id in admin.purge(
                    include_quarantined=args.include_quarantined
                ):
                    print(job_id)
            elif args.operation == "quarantine-list":
                for job in admin.quarantine_list():
                    print(_summary_line(job))
            elif args.operation == "quarantine-release":
                if not args.job_id:
                    print(
                        "quarantine-release needs a job id", file=sys.stderr
                    )
                    return 2
                print(_summary_line(admin.quarantine_release(args.job_id)))
            else:
                for job in admin.cancel_all():
                    print(_summary_line(job))
            return 0
        if args.command == "serve":
            from repro.jobs.http import make_server

            server = make_server(repository, host=args.host, port=args.port)
            host, port = server.server_address[:2]
            print(f"serving job queue {args.queue_dir!r} on {host}:{port}")
            try:
                server.serve_forever()
            except KeyboardInterrupt:  # pragma: no cover - interactive
                pass
            finally:
                server.server_close()
            return 0
    except UnknownJobError as exc:
        print(f"unknown job: {exc}", file=sys.stderr)
        return 2
    except (JobNotFinished, TimeoutError) as exc:
        print(str(exc), file=sys.stderr)
        return 3
    except InvalidTransition as exc:
        print(str(exc), file=sys.stderr)
        return 4
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
