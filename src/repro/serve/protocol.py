"""The JSONL wire protocol of the ``pasta serve`` daemon.

Every endpoint speaks newline-delimited JSON: one self-describing object per
line, flushed per line, so unary responses and long-lived streams share one
format and a slow reader applies backpressure through its socket instead of
forcing the server to buffer.  (The discipline follows the jn repo's
"JSON Lines everywhere" architecture cited in the ROADMAP.)

Record types
------------
``job``
    A job's status.  ``event`` says why it was sent: ``status`` (a status
    request) or a lifecycle step on the stream (``queued`` / ``started`` /
    ``cancelling`` / ``finished``).  Every ``job`` record carries the full
    status fields: ``state`` (:data:`JOB_STATES`), ``job_id``,
    ``namespace``, ``kind``, ``digest``, ``cache_hit``, ``error``,
    ``created_unix`` / ``started_unix`` / ``finished_unix``, ``events``
    (the job's record count; a lifecycle record counts itself) and
    ``resumed``.  So a stream's terminal ``job`` record is the job's final
    status, and a client needs no status request after it.
``progress``
    Per-cell progress of a campaign job (``index`` / ``total`` / ``label`` /
    ``status`` / ``cache_hit`` / full ``digest``), emitted as each grid cell
    finishes.  Campaign jobs run through the campaign scheduler, so a spec
    with ``"execution": "replay"`` simulates each distinct workload once.
``result``
    The job's result payload.  For profile jobs, ``record`` is exactly what
    :func:`repro.api.runner.execute_payload` returns — which is why a remote
    run is byte-identical to a local one.  For campaign jobs, ``record``
    carries the merged summary plus per-cell digests (full per-cell reports
    stay content-addressed behind ``GET /v1/cache/<digest>``).
``error``
    A failure the *request* (not a job) ran into: ``code`` mirrors the HTTP
    status (400 bad spec, 404 unknown job, 429 quota exceeded), ``error`` is
    the human-readable reason.
``health``
    The ``/v1/healthz`` snapshot: daemon version, uptime and job counters.
``cache``
    Cache-endpoint acknowledgements (``stored`` / ``evicted``) and the
    ``GET /v1/cache`` stats snapshot.

Versioning: every record carries ``v`` (:data:`PROTOCOL_VERSION`); clients
reject records from a future major protocol.
"""

from __future__ import annotations

import time
from typing import Mapping, Optional

from repro.core.serialization import stable_json_dumps

#: Wire protocol version stamped on every record.
PROTOCOL_VERSION = 1

#: Job lifecycle states, in order of progression.  ``done`` / ``failed`` /
#: ``cancelled`` are terminal; ``cancelling`` marks a running job whose
#: cancellation was requested but whose worker has not yet observed it.
JOB_STATES = ("queued", "running", "cancelling", "done", "failed", "cancelled")

#: States a job can never leave.
TERMINAL_STATES = ("done", "failed", "cancelled")

#: Submission kinds: one ProfileSpec, or a CampaignSpec grid.
JOB_KINDS = ("profile", "campaign")

#: Default namespace for clients that do not set ``X-Pasta-Namespace``.
DEFAULT_NAMESPACE = "default"

#: Request header carrying the client's namespace.
NAMESPACE_HEADER = "X-Pasta-Namespace"


def record(rtype: str, **fields: object) -> dict[str, object]:
    """One protocol record: ``{"type": rtype, "v": 1, "ts_unix": now, ...}``."""
    return {
        "type": rtype,
        "v": PROTOCOL_VERSION,
        "ts_unix": round(time.time(), 6),
        **fields,
    }


def error_record(code: int, message: str, **fields: object) -> dict[str, object]:
    """A request-level failure record mirroring an HTTP status code."""
    return record("error", code=int(code), error=str(message), **fields)


def encode_line(rec: Mapping[str, object]) -> bytes:
    """One wire line: canonical JSON plus the terminating newline."""
    return (stable_json_dumps(rec) + "\n").encode("utf-8")


def check_protocol(rec: Mapping[str, object]) -> None:
    """Reject records stamped by a future, incompatible protocol."""
    version = rec.get("v", PROTOCOL_VERSION)
    if isinstance(version, int) and version > PROTOCOL_VERSION:
        from repro.errors import ReproError

        raise ReproError(
            f"server speaks protocol v{version}, this client understands "
            f"v{PROTOCOL_VERSION}; upgrade the client"
        )


def validate_namespace(namespace: Optional[str]) -> str:
    """Normalise a namespace: non-empty, no path separators or whitespace."""
    from repro.errors import ReproError

    name = (namespace or DEFAULT_NAMESPACE).strip()
    if not name or any(ch in name for ch in "/\\ \t\n"):
        raise ReproError(
            f"namespace must be a non-empty token without separators, "
            f"got {namespace!r}"
        )
    return name
