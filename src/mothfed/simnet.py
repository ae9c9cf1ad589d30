"""In-process multi-instance federation harness over a virtual transport.

Instances talk HTTP to each other through VirtualNet.route, which hands each
real request (headers, signature, body) to the receiver as its sender built
it, but never touches a socket. Time is a virtual clock, so retry backoff runs
in microseconds of wall time and a fixed seed makes whole scenario runs
byte-reproducible.
"""
from __future__ import annotations

import inspect
import json
import sys
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .config import Config
from .errors import (
    DuplicateDomain,
    ExpectationFailed,
    NameTaken,
    NotQuiescent,
    TransportError,
    UnknownUser,
)
from .httpsig import sha256
from .instance import InstanceNode
from .transport import HttpRequest, HttpResponse, Transport

START_TIME = 1_704_067_200.0  # 2024-01-01T00:00:00Z


class VirtualClock:
    def __init__(self, start: float = START_TIME) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("virtual time cannot run backwards")
        self._now += seconds

    def advance_to(self, timestamp: float) -> None:
        if timestamp > self._now:
            self._now = timestamp


@dataclass
class FaultRule:
    rule_id: int
    behavior: str  # drop | delay | status | empty_200
    host: str | None = None
    method: str | None = None
    path_contains: str | None = None
    delay_ms: float = 0.0  # waited before the behavior, whichever it is
    status_code: int = 500
    times: int | None = None  # None = until removed
    applied: int = 0

    def matches(self, request: HttpRequest) -> bool:
        if self.times is not None and self.applied >= self.times:
            return False
        if self.host is not None and request.host != self.host:
            return False
        if self.method is not None and request.method.upper() != self.method.upper():
            return False
        if self.path_contains is not None and self.path_contains not in request.target:
            return False
        return True


@dataclass(frozen=True, slots=True)
class LogEntry:
    from_domain: str
    method: str
    url: str
    status: int | None
    fault: str | None


class VirtualTransport(Transport):
    """Transport bound to one sender; everything goes through net.route."""

    def __init__(self, net: "VirtualNet", from_domain: str) -> None:
        self.net = net
        self.from_domain = from_domain

    def request(self, request: HttpRequest) -> HttpResponse:
        return self.net.route(self.from_domain, request)


class VirtualNet:
    def __init__(
        self,
        seed: int = 0,
        backend: str = "memory",
        storage_root: str | None = None,
        key_bits: int = 1024,
    ) -> None:
        self.seed = seed
        self.clock = VirtualClock()
        self.backend = backend
        self.storage_root = Path(storage_root) if storage_root else None
        self.key_bits = key_bits
        self.instances: dict[str, InstanceNode] = {}
        self._instance_users: dict[str, list[str]] = {}
        self.log: list[LogEntry] = []
        self._faults: dict[int, FaultRule] = {}
        self._fault_seq = 0

    # --- instances -------------------------------------------------------------

    def _token_for(self, domain: str, username: str) -> str:
        seedling = f"{self.seed}:{domain}:{username}".encode("utf-8")
        return sha256(seedling).hex()[:32]

    def _config_for(self, domain: str) -> Config:
        if self.backend == "file":
            if self.storage_root is None:
                raise ValueError("file backend needs a storage_root")
            path = str(self.storage_root / domain)
        else:
            path = None
        return Config(
            domain=domain,
            storage_backend=self.backend,
            storage_path=path,
            test_mode=True,
            key_bits=self.key_bits,
        )

    def _start_instance(self, domain: str, users: list[str]) -> InstanceNode:
        if domain in self.instances:
            raise DuplicateDomain(domain)
        node = InstanceNode(
            self._config_for(domain),
            transport=VirtualTransport(self, domain),
            clock=self.clock.now,
        )
        for username in users:
            # A reopened store keeps its users, and a deleted user stays deleted.
            with suppress(NameTaken):
                node.create_user(username, token=self._token_for(domain, username))
        self.instances[domain] = node
        return node

    def spawn_instance(self, domain: str, users: list[str] | None = None) -> InstanceNode:
        users = list(users or [])
        node = self._start_instance(domain, users)
        self._instance_users[domain] = users
        return node

    def kill_instance(self, domain: str) -> None:
        """Drop the process state without any orderly shutdown."""
        self.instances.pop(domain)

    def respawn_instance(self, domain: str) -> InstanceNode:
        """Bring a killed instance back over the same storage root."""
        return self._start_instance(domain, self._instance_users.get(domain, []))

    def node(self, domain: str) -> InstanceNode:
        if domain not in self.instances:
            raise ExpectationFailed(f"no instance {domain!r} is running")
        return self.instances[domain]

    def user_token(self, domain: str, username: str) -> str:
        store = self.node(domain).store
        account = store.get_local_account(username)
        token = store.token_for_account(account.id) if account and account.id is not None else None
        if token is None:
            raise ExpectationFailed(f"no user {username!r} with a token on {domain}")
        return token

    # --- faults -----------------------------------------------------------------

    def inject_fault(
        self,
        behavior: str,
        host: str | None = None,
        method: str | None = None,
        path_contains: str | None = None,
        delay_ms: float = 0.0,
        status_code: int = 500,
        times: int | None = None,
    ) -> int:
        if behavior not in ("drop", "delay", "status", "empty_200"):
            raise ValueError(f"unknown fault behavior {behavior!r}")
        self._fault_seq += 1
        rule = FaultRule(
            rule_id=self._fault_seq,
            behavior=behavior,
            host=host,
            method=method,
            path_contains=path_contains,
            delay_ms=delay_ms,
            status_code=status_code,
            times=times,
        )
        self._faults[rule.rule_id] = rule
        return rule.rule_id

    def remove_fault(self, rule_id: int) -> None:
        self._faults.pop(rule_id, None)

    def _match_fault(self, request: HttpRequest) -> FaultRule | None:
        for rule in self._faults.values():
            if rule.matches(request):
                return rule
        return None

    # --- transport -----------------------------------------------------------------

    def route(self, from_domain: str, request: HttpRequest) -> HttpResponse:
        fault_label = None
        rule = self._match_fault(request)
        if rule is not None:
            rule.applied += 1
            fault_label = f"{rule.behavior}#{rule.rule_id}"
            # A drop after a wait is what a timeout looks like.
            self.clock.advance(rule.delay_ms / 1000.0)
            if rule.behavior == "drop":
                self._log(from_domain, request, None, fault_label)
                raise TransportError(f"dropped by fault rule {rule.rule_id}")
            if rule.behavior == "status":
                self._log(from_domain, request, rule.status_code, fault_label)
                return HttpResponse(
                    rule.status_code,
                    {"Content-Type": "application/json"},
                    json.dumps({"error": "FaultInjected"}).encode("utf-8"),
                )
            if rule.behavior == "empty_200":
                # The classic silent failure: success code, nothing inside.
                self._log(from_domain, request, 200, fault_label)
                return HttpResponse(200, {}, b"")

        node = self.instances.get(request.host)
        if node is None:
            self._log(from_domain, request, None, fault_label)
            raise TransportError(f"no instance serves {request.host}")
        # Forwarded as sent: its sender set Host, as an HTTP client does.
        response = node.handle_http(request)
        self._log(from_domain, request, response.status, fault_label)
        return response

    def _log(
        self, from_domain: str, request: HttpRequest, status: int | None, fault: str | None
    ) -> None:
        # One shared string per method, not a fresh copy per entry.
        method = sys.intern(request.method.upper())
        self.log.append(LogEntry(from_domain, method, request.url, status, fault))

    def log_json(self) -> bytes:
        entries = [
            {"from": e.from_domain, "method": e.method, "url": e.url, "status": e.status,
             "fault": e.fault}
            for e in self.log
        ]
        return json.dumps(entries, sort_keys=True).encode("utf-8")

    # --- scheduling ------------------------------------------------------------------

    def pending_total(self) -> int:
        return sum(node.store.pending_count() for node in self.instances.values())

    def run_until_quiet(self, max_steps: int = 200) -> int:
        """Drive every delivery queue until nothing is pending.

        Terminal failures count as quiet: the queue gave up, which is an
        answer. Raises NotQuiescent only when the step budget runs out with
        work still scheduled.
        """
        if max_steps <= 0:
            raise ValueError("max_steps must be positive")
        steps = 0
        while True:
            if self.pending_total() == 0:
                return steps
            if steps >= max_steps:
                raise NotQuiescent(
                    f"{self.pending_total()} tasks still pending after {max_steps} steps"
                )
            due_times = [
                t
                for node in self.instances.values()
                if (t := node.store.next_pending_time()) is not None
            ]
            if due_times:
                self.clock.advance_to(min(due_times))
            for domain in sorted(self.instances):
                self.instances[domain].process_deliveries()
            steps += 1

    # --- client-side helpers -------------------------------------------------------

    def api(
        self,
        domain: str,
        method: str,
        path: str,
        token: str | None = None,
        body: dict[str, Any] | None = None,
    ) -> HttpResponse:
        self.node(domain)  # ExpectationFailed, not route's TransportError, for no instance
        headers = {"Host": domain, "Accept": "application/json"}
        if token is not None:
            headers["Authorization"] = f"Bearer {token}"
        data = b""
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = HttpRequest(method, f"http://{domain}{path}", headers, data)
        return self.route("client", request)

    def post_status(
        self,
        domain: str,
        username: str,
        text: str,
        visibility: str = "public",
        in_reply_to_id: int | None = None,
    ) -> dict[str, Any]:
        body: dict[str, Any] = {"status": text, "visibility": visibility}
        if in_reply_to_id is not None:
            body["in_reply_to_id"] = in_reply_to_id
        response = self.api(
            domain,
            "POST",
            "/api/v1/statuses",
            token=self.user_token(domain, username),
            body=body,
        )
        payload = json.loads(response.body)
        if response.status != 200:
            raise ExpectationFailed(
                f"post_status by {username}@{domain} failed: {response.status} {payload}"
            )
        return payload

    def lookup(self, domain: str, acct: str) -> HttpResponse:
        return self.api(domain, "GET", f"/api/v1/accounts/lookup?acct={acct}")

    def follow(self, domain: str, username: str, target_acct: str) -> dict[str, Any]:
        token = self.user_token(domain, username)
        found = self.api(domain, "GET", f"/api/v1/accounts/lookup?acct={target_acct}")
        if found.status != 200:
            raise ExpectationFailed(
                f"lookup of {target_acct} on {domain} failed: "
                f"{found.status} {found.body.decode('utf-8', 'replace')}"
            )
        target = json.loads(found.body)
        response = self.api(
            domain, "POST", f"/api/v1/accounts/{target['id']}/follow", token=token
        )
        if response.status != 200:
            raise ExpectationFailed(
                f"follow of {target_acct} by {username}@{domain} failed: {response.status}"
            )
        return json.loads(response.body)

    def home_timeline(self, domain: str, username: str, limit: int = 40) -> list[dict[str, Any]]:
        response = self.api(
            domain,
            "GET",
            f"/api/v1/timelines/home?limit={limit}",
            token=self.user_token(domain, username),
        )
        if response.status != 200:
            raise ExpectationFailed(f"home timeline failed: {response.status}")
        return json.loads(response.body)

    def tag_timeline(self, domain: str, tag: str, limit: int = 40) -> list[dict[str, Any]]:
        response = self.api(domain, "GET", f"/api/v1/timelines/tag/{tag}?limit={limit}")
        if response.status != 200:
            raise ExpectationFailed(f"tag timeline failed: {response.status}")
        return json.loads(response.body)

    def delete_account(self, domain: str, username: str) -> dict[str, int]:
        try:
            return self.node(domain).delete_local_account(username)
        except UnknownUser:
            raise ExpectationFailed(f"no user {username!r} on {domain}") from None

    # --- log queries ------------------------------------------------------------------

    def log_entries(
        self,
        method: str | None = None,
        url_contains: str | None = None,
        status: int | None = None,
        start: int = 0,
    ) -> list[LogEntry]:
        return [
            e
            for e in self.log[start:]
            if (method is None or e.method == method.upper())
            and (url_contains is None or url_contains in e.url)
            and (status is None or e.status == status)
        ]

    def outbox_gets(self) -> list[LogEntry]:
        return [
            e
            for e in self.log
            if e.method == "GET" and e.url.split("?", 1)[0].rstrip("/").endswith("/outbox")
        ]


# --- scenario scripts ------------------------------------------------------------

# Step ops run as the VirtualNet method of that name, with the step's other
# members as keyword arguments.
NET_OPS = ("spawn_instance", "follow", "post_status", "delete_account", "run_until_quiet")
RUNNER_OPS = ("lookup", "inject_fault", "remove_fault", "mark_log", "expect")


def _call(function: Any, members: dict[str, Any]) -> Any:
    """function(**members); a member it does not take, or lacks, fails the step."""
    try:
        inspect.signature(function).bind(**members)
    except TypeError as exc:
        raise ExpectationFailed(str(exc)) from None
    return function(**members)


class ScenarioRunner:
    """Executes a JSON scenario: a name plus an ordered list of step objects.

    A step's "op" is either one of NET_OPS or one of RUNNER_OPS, the runner's
    own steps, which keep fault aliases and the log mark or check an outcome.
    """

    def __init__(self, net: VirtualNet) -> None:
        self.net = net
        self._fault_aliases: dict[str, int] = {}
        self._log_mark = 0

    @staticmethod
    def load(path: str | Path) -> dict[str, Any]:
        with open(path, "r", encoding="utf-8") as handle:
            scenario = json.load(handle)
        if not isinstance(scenario, dict) or "steps" not in scenario:
            raise ExpectationFailed(f"scenario {path} has no steps")
        return scenario

    def run(self, scenario: dict[str, Any]) -> None:
        for index, step in enumerate(scenario["steps"]):
            try:
                self._step(step)
            except ExpectationFailed as exc:
                name = scenario.get("name", "scenario")
                raise ExpectationFailed(
                    f"{name} step {index} ({step.get('op')}): {exc}"
                ) from exc

    def run_file(self, path: str | Path) -> None:
        self.run(self.load(path))

    def _step(self, step: dict[str, Any]) -> None:
        members = dict(step)
        op = members.pop("op", None)
        if op in NET_OPS:
            _call(getattr(self.net, op), members)
        elif op in RUNNER_OPS:
            _call(getattr(self, f"_{op}"), members)
        else:
            raise ExpectationFailed(f"unknown scenario op {op!r}")

    def _lookup(self, domain: str, acct: str, expect_status: int = 200) -> None:
        status = self.net.lookup(domain, acct).status
        if status != expect_status:
            raise ExpectationFailed(f"lookup {acct} returned {status}, wanted {expect_status}")

    def _inject_fault(self, id: str | None = None, **rule: Any) -> None:
        rule_id = _call(self.net.inject_fault, rule)
        if id is not None:
            self._fault_aliases[id] = rule_id

    def _remove_fault(self, id: str) -> None:
        if id not in self._fault_aliases:
            raise ExpectationFailed(f"no fault was injected with id {id!r}")
        self.net.remove_fault(self._fault_aliases.pop(id))

    def _mark_log(self) -> None:
        self._log_mark = len(self.net.log)

    def _expect(
        self, check: str, domain: str = "", user: str = "", tag: str = "", acct: str = "",
        content_substring: str = "", method: str | None = None, url_contains: str | None = None,
        status: int | None = None, since_mark: bool = False, equals: int | None = None,
    ) -> None:
        """One check; its keywords are every member some check reads."""
        net = self.net
        kind, _, outcome = check.partition("_timeline_")
        if kind in ("home", "tag") and outcome in ("contains", "absent"):
            if kind == "home":
                where, items = f"{user}@{domain} home timeline", net.home_timeline(domain, user)
            else:
                where, items = f"tag #{tag}", net.tag_timeline(domain, tag)
            hit = any(content_substring in item["content"] for item in items)
            if hit != (outcome == "contains"):
                found = "contains" if hit else "lacks"
                raise ExpectationFailed(f"{where} {found} {content_substring!r}")
        elif check == "account_absent":
            response = net.lookup(domain, acct)
            if response.status not in (404, 410):
                raise ExpectationFailed(f"lookup {acct} on {domain} returned {response.status}")
        elif check == "log_count":
            start = self._log_mark if since_mark else 0
            count = len(net.log_entries(method, url_contains, status, start))
            if count != equals:
                raise ExpectationFailed(
                    f"log count {count}, wanted {equals} (filter {url_contains!r})"
                )
        elif check == "no_outbox_get":
            hits = net.outbox_gets()
            if hits:
                raise ExpectationFailed(f"outbox GETs in transport log: {hits}")
        elif check == "pending_zero":
            if net.pending_total() != 0:
                raise ExpectationFailed(f"{net.pending_total()} deliveries still pending")
        elif check == "failures_have_reasons":
            for name in sorted(net.instances):
                for task in net.instances[name].store.all_tasks():
                    if task.terminal and not task.result:
                        raise ExpectationFailed(
                            f"terminal task {task.task_id} on {name} has no recorded reason"
                        )
        elif check == "status_count":
            store = net.node(domain).store
            account = store.get_local_account(user)
            if account is None:
                raise ExpectationFailed(f"no user {user!r} on {domain}")
            count = len(store.statuses_by_account(account.id))
            if count != equals:
                raise ExpectationFailed(f"{user}@{domain} has {count} statuses, wanted {equals}")
        else:
            raise ExpectationFailed(f"unknown expect check {check!r}")
