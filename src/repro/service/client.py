"""Thin stdlib client for the experiment service.

Backs ``repro submit`` / ``repro status`` and the e2e tests; it is just
``http.client`` plus the wire format — one connection per request, no
retries, no connection pooling.  The one non-trivial piece is
:meth:`ServiceClient.events`, which iterates the NDJSON stream line by
line so callers can react to progress while the batch is still running.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Dict, Iterator, Optional, Tuple
from urllib.parse import quote, urlsplit

from ..errors import ServiceError
from .wire import JSONDict

__all__ = ["ServiceClient"]

#: What a failed exchange raises below the HTTP status line: refused or
#: reset connections and timeouts (``OSError``), malformed responses
#: (``HTTPException``).
_TRANSPORT_ERRORS = (OSError, http.client.HTTPException)


class ServiceClient:
    """Talk to one running service at ``base_url``."""

    def __init__(self, base_url: str, timeout_s: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        url = urlsplit(self.base_url)
        if url.scheme != "http" or not url.netloc:
            # The service speaks plain HTTP (``http.server``).
            raise ServiceError(f"not an http:// URL: {base_url!r}")
        self._netloc = url.netloc
        self._prefix = url.path

    # --- plumbing ---------------------------------------------------------

    def _send(
        self, method: str, path: str, body: Optional[JSONDict], accept: str
    ) -> Tuple[http.client.HTTPConnection, http.client.HTTPResponse]:
        """Send one request on a fresh connection; returns the connection
        (the caller closes it) and the response, whatever its status."""
        data = None
        headers: Dict[str, str] = {"Accept": accept, "Connection": "close"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        conn = http.client.HTTPConnection(self._netloc, timeout=self.timeout_s)
        try:
            conn.request(method, self._prefix + path, body=data, headers=headers)
            return conn, conn.getresponse()
        except _TRANSPORT_ERRORS as exc:
            conn.close()
            raise ServiceError(f"{method} {path} failed: {exc}") from exc

    def _request(
        self, method: str, path: str, body: Optional[JSONDict] = None
    ) -> JSONDict:
        conn, resp = self._send(method, path, body, "application/json")
        try:
            raw = resp.read()
        except _TRANSPORT_ERRORS as exc:
            raise ServiceError(f"{method} {path} failed: {exc}") from exc
        finally:
            conn.close()
        if not 200 <= resp.status < 300:
            try:
                detail = json.loads(raw).get("error", "")
            except (ValueError, AttributeError):
                detail = ""
            raise ServiceError(
                f"{method} {path} -> {resp.status}"
                + (f": {detail}" if detail else "")
            )
        payload = json.loads(raw)
        if not isinstance(payload, dict):
            raise ServiceError(f"{method} {path}: response is not a JSON object")
        return payload

    # --- API --------------------------------------------------------------

    def health(self) -> JSONDict:
        return self._request("GET", "/healthz")

    def submit(self, payload: JSONDict) -> JSONDict:
        """``POST /batches``; returns the new job's status view."""
        return self._request("POST", "/batches", body=payload)

    def status(self, job_id: str) -> JSONDict:
        return self._request("GET", f"/batches/{quote(job_id)}")

    def list_batches(self) -> JSONDict:
        return self._request("GET", "/batches")

    def cancel(self, job_id: str) -> JSONDict:
        return self._request("DELETE", f"/batches/{quote(job_id)}")

    def events(
        self, job_id: str, after: int = 0, follow: bool = False
    ) -> Iterator[JSONDict]:
        """Iterate the job's NDJSON event stream (parsed per line)."""
        path = (
            f"/batches/{quote(job_id)}/events"
            f"?after={after}&follow={'1' if follow else '0'}"
        )
        conn, resp = self._send("GET", path, None, "application/x-ndjson")
        try:
            if not 200 <= resp.status < 300:
                raise ServiceError(f"GET {path} -> {resp.status}")
            for raw in resp:
                line = raw.strip()
                if not line:
                    continue
                event = json.loads(line)
                if not isinstance(event, dict):
                    raise ServiceError(f"GET {path}: event is not a JSON object")
                yield event
        finally:
            conn.close()

    def wait(
        self,
        job_id: str,
        timeout_s: float = 120.0,
        poll_s: float = 0.2,
    ) -> JSONDict:
        """Poll until the job is terminal; returns its final status view."""
        deadline = time.monotonic() + timeout_s
        while True:
            view = self.status(job_id)
            state = view.get("state")
            if state in ("done", "failed", "cancelled"):
                return view
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"batch {job_id!r} still {state!r} after {timeout_s:g}s"
                )
            time.sleep(poll_s)
