"""serve_mixed: a real `moth-fed serve` over loopback under a keep-alive request mix.

Closed loop: min(2, nproc) client threads, each with one persistent HTTP/1.1
connection. The server's file store is built beforehand through the store
API: one reading user with ~10^4 home-timeline entries and a few thousand
known remote accounts. Signed inbox POSTs come from 50 remote actors whose
actor documents this benchmark serves on a second loopback port.
"""
from __future__ import annotations

import base64
import hashlib
import http.client
import itertools
import json
import os
import random
import resource
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from datetime import datetime, timedelta, timezone
from email.utils import formatdate
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import padding, rsa

from mothfed.config import Config
from mothfed.instance import InstanceNode
from mothfed.mastodon import Account, Status, Visibility
from mothfed.storage import open_store

from common import BENCH_DIR, SRC, BenchError, cpu_count, emit, environment, pct, scratch_dir
from tracer import (
    REQUEST_ID_HEADER,
    handle_time_by_request,
    layer_values,
    load_spans,
    per_layer_names,
)

DOMAIN = "social.bench"
READER = "reader"
LOCAL_USERS = (READER, "alice", "bob", "carol", "dave", "erin", "frank", "grace")
REMOTE_ACTORS = 50  # inbox senders, followed by the reader
KNOWN_REMOTES = 3000  # remote account rows, the senders included
TIMELINE_ENTRIES = 10_000
KEY_BITS = 1024
SETUPS = 3  # server starts per run; setup_s is their median
POST_TAG = "benchpost"
# Request mix in tenths: 20% WebFinger, 20% actor, 30% home timeline, 10% post, 20% inbox.
MIX = (("webfinger", 2), ("actor", 2), ("home_timeline", 3), ("post_status", 1), ("inbox", 2))
PLAN_LENGTH = 50_000
MIN_REQUESTS = 1000  # p99 needs ten samples beyond it
READY_TIMEOUT_S = 90.0
STOP_TIMEOUT_S = 30.0
PUBLIC = "https://www.w3.org/ns/activitystreams#Public"
AS_CONTEXT = "https://www.w3.org/ns/activitystreams"

WORDS = (
    "moth", "lamp", "night", "wing", "dust", "signal", "relay", "garden", "river",
    "lantern", "orbit", "cedar", "pebble", "harbor", "window", "meadow", "copper",
    "thread", "ember", "shadow", "summer", "bright", "quiet", "paper", "stone",
)


def _text(rng: random.Random, chars: int = 240) -> str:
    words: list[str] = []
    while len(" ".join(words)) < chars:
        words.append(rng.choice(WORDS))
    return " ".join(words)


# --- remote actors served by the benchmark ----------------------------------------


class RemoteActors:
    """50 remote actors: private keys loaded once, documents on a loopback port."""

    def __init__(self) -> None:
        self.keys = [
            rsa.generate_private_key(public_exponent=65537, key_size=KEY_BITS)
            for _ in range(REMOTE_ACTORS)
        ]
        documents: dict[str, bytes] = {}

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, format, *args) -> None:
                pass

            def do_GET(self) -> None:
                body = documents.get(self.path)
                self.send_response(200 if body else 404)
                self.send_header("Content-Type", "application/activity+json")
                self.send_header("Content-Length", str(len(body or b"")))
                self.end_headers()
                self.wfile.write(body or b"")

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.base = f"http://127.0.0.1:{self.server.server_address[1]}"
        self.pems = []
        for index, key in enumerate(self.keys):
            uri = self.uri(index)
            pem = key.public_key().public_bytes(
                serialization.Encoding.PEM, serialization.PublicFormat.SubjectPublicKeyInfo
            ).decode("ascii")
            self.pems.append(pem)
            documents[f"/actors/r{index}"] = json.dumps({
                "@context": [AS_CONTEXT, "https://w3id.org/security/v1"],
                "id": uri,
                "type": "Person",
                "preferredUsername": f"r{index}",
                "inbox": f"{uri}/inbox",
                "outbox": f"{uri}/outbox",
                "followers": f"{uri}/followers",
                "following": f"{uri}/following",
                "publicKey": {"id": f"{uri}#main-key", "owner": uri, "publicKeyPem": pem},
            }).encode("utf-8")
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()

    def uri(self, index: int) -> str:
        return f"{self.base}/actors/r{index}"

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join()


# --- the store the server reopens -----------------------------------------------


def build_store(root: Path, actors: RemoteActors, rng: random.Random) -> str:
    """Fill a file store through its API; return the reader's bearer token."""
    config = Config(domain=DOMAIN, storage_backend="file", storage_path=str(root),
                    test_mode=True, key_bits=KEY_BITS)
    node = InstanceNode(config)
    store = node.store
    start = datetime(2024, 1, 1, tzinfo=timezone.utc)
    followed = []
    for index in range(REMOTE_ACTORS):
        uri = actors.uri(index)
        followed.append(store.upsert_account(Account(
            id=None, username=f"r{index}", acct=f"r{index}@127.0.0.1", display_name="",
            actor_uri=uri, inbox_uri=f"{uri}/inbox", public_key_pem=actors.pems[index],
            created_at=start,
        )))
    for index in range(KNOWN_REMOTES - REMOTE_ACTORS):
        host = f"host{index % 97}.remote.test"
        uri = f"http://{host}/users/f{index}"
        store.upsert_account(Account(
            id=None, username=f"f{index}", acct=f"f{index}@{host}", display_name="",
            actor_uri=uri, inbox_uri=f"{uri}/inbox", public_key_pem=actors.pems[0],
            created_at=start,
        ))
    tokens = {name: node.create_user(name)[1] for name in LOCAL_USERS}
    reader = store.get_local_account(READER)
    for account in followed:
        store.upsert_follow(
            follower_actor_uri=reader.actor_uri, followee_account_id=account.id,
            state="accepted", follow_activity_id=f"{reader.actor_uri}#follows/{account.id}",
            created_at=start.timestamp(),
        )
    texts = [_text(rng) for _ in range(32)]
    for index in range(TIMELINE_ENTRIES):
        author = followed[index % REMOTE_ACTORS]
        created = start + timedelta(seconds=index)
        status_id = store.next_status_id(created.timestamp())
        store.store_status(Status(
            id=status_id, uri=f"{author.actor_uri}/notes/old{index}",
            content=texts[index % len(texts)], account_id=author.id,
            visibility=Visibility.PUBLIC, mentions=(), tags=("moths",), created_at=created,
        ))
        store.insert_timeline_entry(reader.id, status_id, created.timestamp())
    node.close()
    return tokens[READER]


# --- the server under test ------------------------------------------------------


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if "proxy" not in k.lower()}
    env["no_proxy"] = "*"  # actor fetches go to loopback, never through a proxy
    # Absolute: the child runs with its cwd elsewhere.
    env["PYTHONPATH"] = str(SRC)
    return env


def _get(port: int, path: str, timeout: float = 5.0) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path, headers={"Host": DOMAIN, "Accept": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class Server:
    """One `moth-fed serve` child; `seconds` is process start to first 200."""

    def __init__(self, store_root: Path, workdir: Path, trace: bool) -> None:
        self.port = _free_port()
        self.spans_path = workdir / f"spans-{self.port}.json"
        self.stderr_path = workdir / f"serve-{self.port}.err"
        command = [
            sys.executable, str(BENCH_DIR / "serve_launcher.py"),
            "--src", str(SRC), "--trace", "1" if trace else "0",
            "--spans", str(self.spans_path), "--",
            "--domain", DOMAIN, "--port", str(self.port),
            "--store", f"file:{store_root}", "--test-mode", "serve",
        ]
        start = time.perf_counter()
        with open(workdir / f"serve-{self.port}.out", "wb") as out, \
                open(self.stderr_path, "wb") as err:
            self.process = subprocess.Popen(
                command, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                env=_child_env(), cwd=workdir,
            )
        try:
            self._wait_ready(start)
        except BaseException:
            self.stop()
            raise
        self.seconds = time.perf_counter() - start

    def _wait_ready(self, start: float) -> None:
        probe = f"/.well-known/webfinger?resource=acct:{READER}@{DOMAIN}"
        while True:
            if self.process.poll() is not None:
                raise BenchError(
                    f"serve exited with {self.process.returncode} before it was ready:\n"
                    + self.stderr_path.read_text(errors="replace")[-4000:]
                )
            try:
                if _get(self.port, probe)[0] == 200:
                    return
            except OSError:
                pass
            if time.perf_counter() - start > READY_TIMEOUT_S:
                raise BenchError(f"serve not ready after {READY_TIMEOUT_S:.0f}s")
            time.sleep(0.005)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


# --- the load generator -----------------------------------------------------------


class Load:
    """The seeded request mix; op n is plan[n % len(plan)] with ids made from n."""

    def __init__(self, seed: int, actors: RemoteActors, token: str) -> None:
        rng = random.Random(seed ^ 0x5EED)
        self.texts = [_text(rng) for _ in range(64)]
        # Shuffled blocks of ten keep every stretch of the run at the stated
        # mix; inbox senders take turns, so each actor misses the cache once.
        block = [kind for kind, tenths in MIX for _ in range(tenths)]
        self.plan = []
        senders = itertools.count()
        while len(self.plan) < PLAN_LENGTH:
            rng.shuffle(block)
            for kind in block:
                actor = next(senders) % REMOTE_ACTORS if kind == "inbox" else 0
                self.plan.append((kind, rng.randrange(len(LOCAL_USERS)), actor,
                                  rng.randrange(len(self.texts))))
        self.seed = seed
        self.actors = actors
        self.token = token
        self.counter = itertools.count()
        self.posts_ok = 0
        self._lock = threading.Lock()

    def request(self, n: int) -> tuple[str, str, str, str, dict[str, str], bytes]:
        """(kind, local user, method, path, headers, body) of op n."""
        kind, user_index, actor_index, text_index = self.plan[n % len(self.plan)]
        user = LOCAL_USERS[user_index]
        headers = {"Host": DOMAIN, REQUEST_ID_HEADER: str(n)}
        if kind == "webfinger":
            path = f"/.well-known/webfinger?resource=acct:{user}@{DOMAIN}"
            return kind, user, "GET", path, headers, b""
        if kind == "actor":
            headers["Accept"] = "application/activity+json"
            return kind, user, "GET", f"/users/{user}", headers, b""
        if kind == "home_timeline":
            headers["Authorization"] = f"Bearer {self.token}"
            return kind, READER, "GET", "/api/v1/timelines/home?limit=20", headers, b""
        if kind == "post_status":
            headers["Authorization"] = f"Bearer {self.token}"
            headers["Content-Type"] = "application/json"
            body = json.dumps({
                "status": f"{self.texts[text_index]} #{POST_TAG} (op {n})",
                "visibility": "public",
            }).encode("utf-8")
            return kind, READER, "POST", "/api/v1/statuses", headers, body
        return (kind, READER, "POST", f"/users/{READER}/inbox",
                *self._signed_create(n, actor_index, text_index))

    def _signed_create(self, n: int, actor_index: int, text_index: int):
        actor = self.actors.uri(actor_index)
        published = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        body = json.dumps({
            "@context": AS_CONTEXT,
            "id": f"{actor}/activities/{self.seed}-{n}",
            "type": "Create",
            "actor": actor,
            "to": [PUBLIC],
            "cc": [f"{actor}/followers"],
            "published": published,
            "object": {
                "id": f"{actor}/notes/{self.seed}-{n}",
                "type": "Note",
                "attributedTo": actor,
                "content": f"{self.texts[text_index]} #moths",
                "to": [PUBLIC],
                "cc": [f"{actor}/followers"],
                "published": published,
                "tag": [{"type": "Hashtag", "name": "#moths"}],
            },
        }).encode("utf-8")
        path = f"/users/{READER}/inbox"
        date = formatdate(usegmt=True)
        digest = "SHA-256=" + base64.b64encode(hashlib.sha256(body).digest()).decode("ascii")
        signed = f"(request-target): post {path}\nhost: {DOMAIN}\ndate: {date}\ndigest: {digest}"
        # The key was loaded once, at start; signing here costs one RSA operation.
        raw = self.actors.keys[actor_index].sign(
            signed.encode("utf-8"), padding.PKCS1v15(), hashes.SHA256()
        )
        headers = {
            "Host": DOMAIN,
            REQUEST_ID_HEADER: str(n),
            "Date": date,
            "Digest": digest,
            "Content-Type": "application/activity+json",
            "Signature": (
                f'keyId="{actor}#main-key",algorithm="rsa-sha256",'
                f'headers="(request-target) host date digest",'
                f'signature="{base64.b64encode(raw).decode("ascii")}"'
            ),
        }
        return headers, body

    def expect(self, kind: str, status: int, body: bytes, user: str) -> str | None:
        """None when the response is what the route promises, else why not."""
        want = 202 if kind == "inbox" else 200
        if status != want:
            return f"{kind}: status {status}: {body[:200]!r}"
        try:
            data = json.loads(body)
        except ValueError:
            return f"{kind}: body is not JSON"
        if kind == "inbox" and data != {"queued": True, "warnings": []}:
            return f"inbox: {data}"
        if kind == "home_timeline" and (not isinstance(data, list) or len(data) != 20):
            return "home_timeline: page is not 20 statuses"
        if kind == "webfinger" and data.get("subject") != f"acct:{user}@{DOMAIN}":
            return f"webfinger: subject {data.get('subject')!r}"
        if kind == "actor" and not str(data.get("id", "")).endswith(f"/users/{user}"):
            return f"actor: id {data.get('id')!r}"
        if kind == "post_status":
            if "id" not in data:
                return "post_status: no id"
            with self._lock:
                self.posts_ok += 1
        return None

    def run(self, port: int, seconds: float, connections: int,
            min_requests: int = 0) -> "LoadResult":
        """The mix for `seconds`, and on until `min_requests` have completed."""
        result = LoadResult()
        deadline = time.perf_counter() + seconds

        def next_request():
            if time.perf_counter() >= deadline and len(result.samples) >= min_requests:
                return None
            n = next(self.counter)
            return (n, *self.request(n))

        return self._drive(port, connections, next_request, result)

    def warm_up(self, port: int, connections: int) -> "LoadResult":
        """One inbox POST from each remote actor, so timing starts with the
        server's actor cache full, as in a server that has been up a while."""
        actors = iter(range(REMOTE_ACTORS))

        def next_request():
            actor = next(actors, None)
            if actor is None:
                return None
            n = next(self.counter)
            return (n, "inbox", READER, "POST", f"/users/{READER}/inbox",
                    *self._signed_create(n, actor, 0))

        return self._drive(port, connections, next_request, LoadResult())

    def _drive(self, port: int, connections: int, next_request, result: "LoadResult"):
        start = time.perf_counter()
        cpu = time.process_time()
        threads = [
            threading.Thread(target=self._client, args=(port, next_request, result))
            for _ in range(connections)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        result.elapsed = time.perf_counter() - start
        result.client_cpu_s = time.process_time() - cpu
        return result

    def _client(self, port: int, next_request, result: "LoadResult") -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            while (item := next_request()) is not None:
                n, kind, user, method, path, headers, body = item
                began = time.perf_counter()
                try:
                    conn.request(method, path, body=body or None, headers=headers)
                    response = conn.getresponse()
                    data = response.read()
                except (OSError, http.client.HTTPException) as exc:
                    result.add(n, kind, time.perf_counter() - began, f"{kind}: {exc!r}")
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
                    continue
                latency = time.perf_counter() - began
                result.add(n, kind, latency, self.expect(kind, response.status, data, user))
        finally:
            conn.close()


class LoadResult:
    def __init__(self) -> None:
        self.samples: list[tuple[int, str, float, str | None]] = []  # n, kind, s, error
        self.elapsed = 0.0
        self.client_cpu_s = 0.0

    def add(self, n: int, kind: str, seconds: float, error: str | None) -> None:
        self.samples.append((n, kind, seconds, error))  # list.append is atomic

    def latencies_ms(self, kind: str | None = None) -> list[float]:
        return [s * 1000.0 for _, k, s, e in self.samples if e is None and kind in (None, k)]

    def errors(self) -> list[str]:
        return [e for _, _, _, e in self.samples if e is not None]


def tag_count(port: int) -> int:
    """Statuses on the post tag's timeline, paged through the client API."""
    count, max_id = 0, None
    while True:
        path = f"/api/v1/timelines/tag/{POST_TAG}?limit=40"
        if max_id is not None:
            path += f"&max_id={max_id}"
        status, body = _get(port, path, timeout=60)
        if status != 200:
            raise BenchError(f"tag timeline: status {status}")
        page = json.loads(body)
        if not page:
            return count
        count += len(page)
        max_id = page[-1]["id"]


# --- the workload -------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool) -> None:
    connections = min(2, cpu_count())
    env = environment(
        seed, workload, backend="file", key_bits=KEY_BITS,
        loop=f"closed, {connections} keep-alive connections", timing="wall clock",
        store=f"{TIMELINE_ENTRIES} home-timeline entries, {KNOWN_REMOTES} remote accounts",
    )
    notes = ["the store is a file system inside a sandbox, not a measured disk"]
    rng = random.Random(seed)
    actors = RemoteActors()
    servers: list[Server] = []
    try:
        with scratch_dir(f"{workload}-") as scratch:
            store_root = scratch / "store"
            token = build_store(store_root, actors, rng)
            load = Load(seed, actors, token)
            problems: list[str] = []
            if not trace:
                setups = []
                for _ in range(SETUPS):
                    if servers:
                        servers[-1].stop()
                    servers.append(Server(store_root, scratch, trace=False))
                    setups.append(servers[-1].seconds)
                warm = load.warm_up(servers[-1].port, connections)
                result = load.run(servers[-1].port, seconds, connections, MIN_REQUESTS)
                problems += check_tags(servers[-1].port, load)
                servers[-1].stop()
                metrics = end_to_end(result, setups)
                samples = warm.samples + result.samples
            else:
                servers.append(Server(store_root, scratch, trace=False))
                warm = load.warm_up(servers[-1].port, connections)
                plain = load.run(servers[-1].port, seconds / 2, connections)
                servers[-1].stop()
                servers.append(Server(store_root, scratch, trace=True))
                window_start = time.perf_counter()
                warm.samples += load.warm_up(servers[-1].port, connections).samples
                traced = load.run(servers[-1].port, seconds / 2, connections)
                window = time.perf_counter() - window_start
                problems += check_tags(servers[-1].port, load)
                servers[-1].stop()
                if not servers[-1].spans_path.exists():
                    raise BenchError("the traced server wrote no spans:\n"
                                     + servers[-1].stderr_path.read_text(errors="replace")[-4000:])
                spans = load_spans(servers[-1].spans_path)
                reopened = open_store("file", str(store_root))
                tasks_held = len(reopened.all_tasks())
                reopened.close()
                metrics = layer_metrics(spans, plain, traced, window, tasks_held)
                samples = warm.samples + plain.samples + traced.samples
    finally:
        for server in servers:
            server.stop()
        actors.close()
    errors = [e for _, _, _, e in samples if e is not None]
    failed = len(errors) + len(problems)
    notes += errors[:10] + problems
    emit(env, failed == 0, len(samples), failed, metrics, notes)


def check_tags(port: int, load: Load) -> list[str]:
    found = tag_count(port)
    if found != load.posts_ok:
        return [f"tag timeline holds {found} statuses, {load.posts_ok} were posted"]
    return []


def end_to_end(result: LoadResult, setups: list[float]) -> dict[str, tuple[float, str]]:
    everything = result.latencies_ms()
    inbox = result.latencies_ms("inbox")
    posts = result.latencies_ms("post_status")
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    ok = len(result.samples) - len(result.errors())
    return {
        "setup_s": (statistics.median(setups), "s"),
        "rss_mb": (rss_mb, "MB"),
        "ok_ratio": (ok / len(result.samples), "ratio"),
        "deliveries_per_s": (len(inbox) / result.elapsed, "1/s"),
        "federate_ms_p50": (pct(inbox, 50), "ms"),
        "federate_ms_p90": (pct(inbox, 90), "ms"),
        "post_ms_p50": (pct(posts, 50), "ms"),
        "post_ms_p90": (pct(posts, 90), "ms"),
        "requests_per_s": (len(everything) / result.elapsed, "1/s"),
        "request_ms_p50": (pct(everything, 50), "ms"),
        "request_ms_p99": (pct(everything, 99), "ms"),
        "inbox_ms_p50": (pct(inbox, 50), "ms"),
        "timeline_ms_p50": (pct(result.latencies_ms("home_timeline"), 50), "ms"),
    }


def layer_metrics(spans: list[tuple], plain: LoadResult, traced: LoadResult,
                  window: float, tasks_held: int) -> dict[str, tuple[float, str]]:
    values = layer_values(spans)
    values["storage.tasks_held"] = tasks_held
    handled = handle_time_by_request(spans)
    overhead = [
        (seconds - handled[str(n)]) * 1000.0
        for n, _, seconds, error in traced.samples
        if error is None and str(n) in handled
    ]
    overhead_p50 = pct(overhead, 50) if overhead else 0.0
    values["cli.http_overhead_ms"] = overhead_p50
    values["cli.http_overhead_share"] = overhead_p50 / pct(traced.latencies_ms(), 50)
    values["gen.client_cpu_s"] = plain.client_cpu_s + traced.client_cpu_s
    values["trace.overhead_ratio"] = (
        statistics.fmean(traced.latencies_ms()) / statistics.fmean(plain.latencies_ms()) - 1.0
    )
    values["trace.window_s"] = window
    return {name: (values[name], unit) for name, unit in per_layer_names()}
