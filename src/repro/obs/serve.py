"""``--serve-metrics``: the in-process Prometheus/health endpoint.

A single daemon thread runs a stdlib ``ThreadingHTTPServer`` for the
duration of a run, serving

* ``GET /metrics`` — the run's :class:`~repro.obs.metrics
  .MetricsRegistry` in strict Prometheus exposition format
  (:func:`~repro.obs.metrics.render_prometheus`: ``# HELP``/``# TYPE``
  per family, histogram ``_bucket``/``_sum``/``_count`` with ``le``
  labels and ``+Inf``), followed by the per-phase snapshot the PR 2/4
  exporter derives from the trace;
* ``GET /healthz`` — a JSON liveness document: run name and phase
  (the open span stack), the tracer's monotone progress counter, the
  stall verdict from the PR 4 detector, plus anything the caller's
  ``health_provider`` contributes (the CLI adds the run id and
  engine).

Port ``0`` binds an ephemeral port (tests, parallel CI); the bound
port is on :attr:`MetricsServer.port` and in the startup log line.
Request logging is routed to the ``repro.obs`` logger at DEBUG so a
scrape loop cannot spam stderr.

Shutdown is idempotent and leak-free: ``stop()`` may be called any
number of times, closes the listening socket even when joining the
serve thread raises mid-run, and the request threads are daemons — so
two sequential runs can bind the same port.

Stdlib only apart from :mod:`repro.runtime.sync` (itself pure
stdlib), which supplies the sanctioned thread factory.
"""

from __future__ import annotations

import json
import logging
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Optional

from repro.obs.metrics import MetricsRegistry, render_prometheus
from repro.runtime.sync import make_thread

logger = logging.getLogger("repro.obs")

HealthProvider = Callable[[], Dict[str, Any]]


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-metrics/1"

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        path = self.path.split("?", 1)[0]
        if path == "/metrics":
            body = self.server.owner.metrics_text()
            self._reply(200, body, "text/plain; version=0.0.4")
        elif path == "/healthz":
            body = json.dumps(self.server.owner.health(), indent=2,
                              sort_keys=True, default=str) + "\n"
            self._reply(200, body, "application/json")
        else:
            self._reply(404, "not found: try /metrics or /healthz\n",
                        "text/plain")

    def _reply(self, status: int, body: str, content_type: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, fmt: str, *args: Any) -> None:
        logger.debug("metrics endpoint: " + fmt, *args)


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    owner: "MetricsServer"


class MetricsServer:
    """The endpoint's lifecycle: bind, serve on a daemon thread, stop.

    Args:
        registry: the run's metrics registry (``/metrics`` body).
        health_provider: zero-argument callable merged into the
            ``/healthz`` document on every request; keep it cheap and
            lock-free (it runs on the request thread).
        trace: optional trace whose per-phase snapshot is appended to
            ``/metrics`` (the PR 2/4 ``prometheus_text`` exporter).
        port: TCP port; ``0`` binds an ephemeral one.
        host: bind address (loopback by default — this is an
            introspection endpoint, not a public listener).
    """

    def __init__(self, registry: MetricsRegistry,
                 health_provider: Optional[HealthProvider] = None,
                 trace=None, port: int = 0, host: str = "127.0.0.1"):
        self.registry = registry
        self.health_provider = health_provider
        self.trace = trace
        self._server = _Server((host, port), _Handler)
        self._server.owner = self
        self.host, self.port = self._server.server_address[:2]
        self._thread: Optional[Any] = None
        self._stopped = False

    # ------------------------------------------------------------------
    def start(self) -> "MetricsServer":
        self._thread = make_thread(
            self._server.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-obs-serve", daemon=True)
        self._thread.start()
        logger.info("metrics endpoint on http://%s:%d "
                    "(/metrics, /healthz)", self.host, self.port)
        return self

    def stop(self) -> None:
        """Tear the endpoint down; safe to call repeatedly.

        The listening socket is closed in a ``finally`` so the port is
        released even when the serve thread refuses to shut down (a
        hung handler, a join timeout mid-exception) — a later run must
        always be able to bind the same port.
        """
        if self._stopped:
            return
        self._stopped = True
        thread, self._thread = self._thread, None
        try:
            if thread is not None:
                self._server.shutdown()
                thread.join(timeout=5.0)
        finally:
            self._server.server_close()

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    def metrics_text(self) -> str:
        if self.trace is not None and getattr(self.trace, "enabled",
                                              False):
            from repro.obs.export import prometheus_text
            try:
                return prometheus_text(self.trace,
                                       registry=self.registry)
            except Exception:  # scrape must survive a mid-run race
                logger.debug("phase snapshot unavailable mid-run",
                             exc_info=True)
        return render_prometheus(self.registry)

    def health(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {"status": "ok"}
        trace = self.trace
        if trace is not None and getattr(trace, "enabled", False):
            doc["run"] = trace.name
            doc["progress"] = trace.progress
            stack = getattr(trace, "_stack", [])
            doc["phase"] = [sp.name for sp in stack]
            doc["spans_finished"] = len(trace.spans)
            stalled = any(e.name == "run.stalled" for e in trace.events)
            doc["stalled"] = stalled
            if stalled:
                doc["status"] = "stalled"
        if self.health_provider is not None:
            try:
                doc.update(self.health_provider())
            except Exception as exc:
                doc["health_provider_error"] = repr(exc)
        return doc


def maybe_serve(registry, port: Optional[int],
                health_provider: Optional[HealthProvider] = None,
                trace=None) -> Optional[MetricsServer]:
    """A started server when ``port`` is not ``None``; else ``None``.

    Binding failures (port in use, no loopback in the sandbox) degrade
    to a warning — telemetry must never take the run down.
    """
    if port is None:
        return None
    try:
        return MetricsServer(registry, health_provider=health_provider,
                             trace=trace, port=port).start()
    except OSError as exc:
        logger.warning("cannot serve metrics on port %s: %s", port, exc)
        return None
