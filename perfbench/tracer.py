"""Spans around the public functions of each mothfed module, installed from outside.

The program is not edited: `Tracer.install` replaces each named function or
method with a wrapper that records a span (name, start, end, parent span,
request id, note) and then calls the original. Spans stay in memory until the
run ends; `summarize` turns them into per-layer counts and self times.
"""
from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

# (module, attribute) pairs to wrap. "Class.method" wraps the method on that
# class and on every subclass in the same module that overrides it.
TARGETS: tuple[tuple[str, str], ...] = (
    ("httpsig", "sign_request"),
    ("httpsig", "verify_signature"),
    ("httpsig", "generate_rsa_keypair"),
    ("activitypub", "serialize_object"),
    ("activitypub", "parse_activity"),
    ("activitypub", "validate_actor_document"),
    ("mastodon", "status_to_note"),
    ("mastodon", "note_to_status"),
    ("mastodon", "sanitize_html"),
    ("federation", "FederationEngine.process_queue"),
    ("federation", "FederationEngine.handle_inbox"),
    ("federation", "FederationEngine.fan_out"),
    ("federation", "FederationEngine.enqueue"),
    ("storage", "open_store"),
    ("storage", "MemoryStore.store_status"),
    ("storage", "MemoryStore.insert_timeline_entry"),
    ("storage", "MemoryStore.enqueue_task"),
    ("storage", "MemoryStore.save_task"),
    ("storage", "MemoryStore.next_sequence"),
    ("storage", "MemoryStore.record_peer"),
    ("storage", "MemoryStore.upsert_account"),
    ("storage", "MemoryStore.due_tasks"),
    ("storage", "MemoryStore.pending_count"),
    ("storage", "MemoryStore.next_pending_time"),
    ("storage", "MemoryStore.query_home_timeline"),
    ("storage", "MemoryStore.get_local_account"),
    ("instance", "InstanceNode.fetch_actor"),
    ("instance", "InstanceNode.resolve_account"),
    ("identity", "Resolver.resolve"),
    ("simnet", "VirtualNet.route"),
    ("simnet", "VirtualNet.run_until_quiet"),
    ("http_api", "HttpApi.handle"),
    ("transport", "UrllibTransport.request"),
)

# Span names that stand for "the request left this process or instance".
TRANSPORT_SPANS = ("simnet.route", "transport.UrllibTransport.request")

ROUTES = ("webfinger", "actor", "inbox", "home_timeline", "post_status", "other")

REQUEST_ID_HEADER = "X-Bench-Request"


def route_of(method: str, path: str) -> str:
    """Label a request by the route the benchmark mix names."""
    parts = [p for p in path.split("?", 1)[0].split("/") if p]
    method = method.upper()
    if method == "GET" and parts == [".well-known", "webfinger"]:
        return "webfinger"
    if method == "GET" and len(parts) == 2 and parts[0] == "users":
        return "actor"
    if method == "POST" and len(parts) == 3 and parts[0] == "users" and parts[2] == "inbox":
        return "inbox"
    if method == "GET" and parts == ["api", "v1", "timelines", "home"]:
        return "home_timeline"
    if method == "POST" and parts == ["api", "v1", "statuses"]:
        return "post_status"
    return "other"


def span_name(module: str, attr: str) -> str:
    """Metric prefix for a target: `module.method`, except that methods of
    Resolver, HttpApi and UrllibTransport keep their class in the name."""
    if "." not in attr:
        return f"{module}.{attr}"
    cls, method = attr.split(".", 1)
    if cls in ("Resolver", "HttpApi", "UrllibTransport"):
        return f"{module}.{attr}"
    return f"{module}.{method}"


def _describe_http(args: tuple) -> tuple[str, str | None]:
    request = args[1]
    return "." + route_of(request.method, request.path), request.header(REQUEST_ID_HEADER)


def _note_queue_report(report: Any) -> Any:
    return [report.attempted, report.delivered, report.retried, report.failed]


DESCRIBE: dict[str, Callable[[tuple], tuple[str, str | None]]] = {
    "http_api.HttpApi.handle": _describe_http,
}
NOTE: dict[str, Callable[[Any], Any]] = {
    "federation.process_queue": _note_queue_report,
    "simnet.run_until_quiet": int,
}


class Tracer:
    """Records spans from every thread of this process while enabled."""

    def __init__(self) -> None:
        # (span id, name, start, end, parent span id, request id, note)
        self.spans: list[tuple] = []
        self.enabled = False
        self._ids = itertools.count(1)
        self._auto_requests = itertools.count(1)
        self._local = threading.local()

    def install(self) -> list[str]:
        """Wrap every target that exists; return the names of those missing."""
        modules = {
            name: importlib.import_module(f"mothfed.{name}") for name, _ in TARGETS
        }
        importlib.import_module("mothfed.cli")  # holds copies of httpsig names too
        missing = []
        for module_name, attr in TARGETS:
            module = modules[module_name]
            name = span_name(module_name, attr)
            if "." in attr:
                cls_name, method = attr.split(".", 1)
                base = getattr(module, cls_name, None)
                if base is None or not hasattr(base, method):
                    missing.append(name)
                    continue
                for cls in list(vars(module).values()):
                    if isinstance(cls, type) and issubclass(cls, base) and method in vars(cls):
                        setattr(cls, method, self._wrap(name, vars(cls)[method]))
                continue
            original = getattr(module, attr, None)
            if original is None:
                missing.append(name)
                continue
            wrapped = self._wrap(name, original)
            # `from .x import f` copies the name: patch every copy.
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded_name == "mothfed" or loaded_name.startswith("mothfed."):
                    for key, value in list(vars(loaded).items()):
                        if value is original:
                            setattr(loaded, key, wrapped)
        return missing

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        local = self._local
        describe = DESCRIBE.get(name)
        make_note = NOTE.get(name)

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            parent = getattr(local, "span", None)
            if parent is not None and parent[1] == name:
                # An override calling super(): one call, one span.
                return fn(*args, **kwargs)
            label, request_id = describe(args) if describe else ("", None)
            if parent is None:
                if request_id is None:
                    request_id = f"auto-{next(tracer._auto_requests)}"
            else:
                request_id = parent[2]
            sid = next(tracer._ids)
            local.span = (sid, name, request_id)
            note = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if make_note is not None:
                    note = make_note(result)
                return result
            except BaseException as exc:
                note = f"raised {type(exc).__name__}"
                raise
            finally:
                end = time.perf_counter()
                local.span = parent
                tracer.spans.append(
                    (sid, name + label, start, end, parent[0] if parent else None, request_id, note)
                )

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(list(self.spans)), encoding="utf-8")


def load_spans(path: str | Path) -> list[tuple]:
    return [tuple(span) for span in json.loads(Path(path).read_text(encoding="utf-8"))]


def summarize(spans: list[tuple]) -> dict[str, dict[str, Any]]:
    """Per span name: calls, busy seconds (inclusive), self seconds, notes, and
    how many calls raised or reached a transport span."""
    by_id = {span[0]: span for span in spans}
    child_time: dict[int, float] = {}
    child_names: dict[int, set[str]] = {}
    for sid, name, start, end, parent, _, _ in spans:
        if parent is not None and parent in by_id:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
            child_names.setdefault(parent, set()).add(name)
    out: dict[str, dict[str, Any]] = {}
    for sid, name, start, end, parent, _, note in spans:
        entry = out.setdefault(
            name,
            {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "raised": 0,
             "reached_transport": 0, "notes": []},
        )
        entry["calls"] += 1
        entry["busy_s"] += end - start
        entry["self_s"] += (end - start) - child_time.get(sid, 0.0)
        if any(n in TRANSPORT_SPANS for n in child_names.get(sid, ())):
            entry["reached_transport"] += 1
        if isinstance(note, str) and note.startswith("raised "):
            entry["raised"] += 1
        elif note is not None:
            entry["notes"].append(note)
    return out


# Per-layer metrics, in the order BENCHMARK.json lists them. A function with
# children gets a busy_ms beside its self_ms.
_CALLS_SELF = (
    "httpsig.sign_request",
    "httpsig.generate_rsa_keypair",
    "activitypub.serialize_object",
    "activitypub.parse_activity",
    "activitypub.validate_actor_document",
    "mastodon.status_to_note",
    "mastodon.sanitize_html",
    "storage.store_status",
    "storage.insert_timeline_entry",
    "storage.save_task",
    "storage.next_sequence",
    "storage.record_peer",
    "storage.due_tasks",
    "storage.pending_count",
    "storage.next_pending_time",
    "storage.query_home_timeline",
    "storage.get_local_account",
    "transport.UrllibTransport.request",
)
_CALLS_SELF_BUSY = (
    "httpsig.verify_signature",
    "mastodon.note_to_status",
    "federation.process_queue",
    "federation.handle_inbox",
    "federation.fan_out",
    "federation.enqueue",
    "storage.enqueue_task",
    "storage.upsert_account",
    "instance.fetch_actor",
    "instance.resolve_account",
    "identity.Resolver.resolve",
    "simnet.route",
)


def per_layer_names() -> list[tuple[str, str]]:
    """(metric name, unit) for every per-layer metric the traced run prints."""
    names: list[tuple[str, str]] = []
    for fn in _CALLS_SELF:
        names += [(f"{fn}.calls", "count"), (f"{fn}.self_ms", "ms")]
    for fn in _CALLS_SELF_BUSY:
        names += [(f"{fn}.calls", "count"), (f"{fn}.self_ms", "ms"), (f"{fn}.busy_ms", "ms")]
    for route in ROUTES:
        fn = f"http_api.HttpApi.handle.{route}"
        names += [(f"{fn}.calls", "count"), (f"{fn}.self_ms", "ms"), (f"{fn}.busy_ms", "ms")]
    names += [
        ("httpsig.verify_signature.rejected", "count"),
        ("federation.attempted", "count"),
        ("federation.delivered", "count"),
        ("federation.retried", "count"),
        ("federation.failed", "count"),
        ("federation.delivered_per_attempt", "ratio"),
        ("storage.tasks_held", "count"),
        ("storage.open_s", "s"),
        ("instance.fetch_actor.misses", "count"),
        ("instance.fetch_actor.hit_ratio", "ratio"),
        ("simnet.run_until_quiet.calls", "count"),
        ("simnet.run_until_quiet.steps", "count"),
        ("cli.http_overhead_ms", "ms"),
        ("cli.http_overhead_share", "ratio"),
        ("gen.client_cpu_s", "s"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.window_s", "s"),
        ("trace.spans", "count"),
    ]
    return names


def layer_values(spans: list[tuple]) -> dict[str, float]:
    """Every span-derived per-layer metric; the caller adds the rest."""
    summary = summarize(spans)
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "raised": 0,
             "reached_transport": 0, "notes": []}
    values: dict[str, float] = {}
    for fn in _CALLS_SELF + _CALLS_SELF_BUSY + tuple(
        f"http_api.HttpApi.handle.{route}" for route in ROUTES
    ):
        entry = summary.get(fn, empty)
        values[f"{fn}.calls"] = entry["calls"]
        values[f"{fn}.self_ms"] = entry["self_s"] * 1000.0
        values[f"{fn}.busy_ms"] = entry["busy_s"] * 1000.0
    values["httpsig.verify_signature.rejected"] = summary.get(
        "httpsig.verify_signature", empty)["raised"]

    reports = summary.get("federation.process_queue", empty)["notes"]
    attempted, delivered, retried, failed = (sum(r[i] for r in reports) for i in range(4))
    values["federation.attempted"] = attempted
    values["federation.delivered"] = delivered
    values["federation.retried"] = retried
    values["federation.failed"] = failed
    values["federation.delivered_per_attempt"] = delivered / attempted if attempted else 0.0

    values["storage.open_s"] = summary.get("storage.open_store", empty)["busy_s"]

    fetch = summary.get("instance.fetch_actor", empty)
    values["instance.fetch_actor.misses"] = fetch["reached_transport"]
    values["instance.fetch_actor.hit_ratio"] = (
        1.0 - fetch["reached_transport"] / fetch["calls"] if fetch["calls"] else 0.0
    )

    quiet = summary.get("simnet.run_until_quiet", empty)
    values["simnet.run_until_quiet.calls"] = quiet["calls"]
    values["simnet.run_until_quiet.steps"] = sum(quiet["notes"])
    values["trace.spans"] = len(spans)
    return values


def handle_time_by_request(spans: list[tuple]) -> dict[str, float]:
    """Seconds inside HttpApi.handle for each request id the client sent."""
    out: dict[str, float] = {}
    for _, name, start, end, parent, request_id, _ in spans:
        if parent is None and name.startswith("http_api.HttpApi.handle."):
            out[request_id] = out.get(request_id, 0.0) + (end - start)
    return out
