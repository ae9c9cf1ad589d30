"""fanout_memory and fanout_file: one author instance posting to four peers in simnet.

Closed loop, one caller. Each operation is `post_status` then `run_until_quiet`,
then one follower's home timeline is read back. The two workloads run the same
traffic from the same seed and differ only in the storage backend.
"""
from __future__ import annotations

import itertools
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Iterator
from urllib.parse import urlsplit

from mothfed.errors import MothError
from mothfed.simnet import VirtualNet

from common import BENCH_DIR, BenchError, emit, environment, pct, scratch_dir
from tracer import Tracer, layer_values, per_layer_names, route_of

AUTHOR_DOMAIN = "author.test"
AUTHORS = ("ann", "ben", "cat")
PEERS = ("peer0.test", "peer1.test", "peer2.test", "peer3.test")
PEER_USERS = ("u0", "u1", "u2", "u3")
FOLLOWERS = tuple((domain, user) for domain in PEERS for user in PEER_USERS)
KEY_BITS = 1024  # VirtualNet's default
PARTS = 3  # child processes per untraced run, one set-up each; setup_s is their median
PART_TIMEOUT_S = 150
MIN_POSTS = 100  # p90 needs ten samples beyond it
FAULT_SHARE = 0.10
POST_CHARS = 250

WORDS = (
    "moth", "lamp", "night", "wing", "dust", "signal", "relay", "inbox", "garden",
    "river", "lantern", "orbit", "cedar", "pebble", "harbor", "window", "meadow",
    "copper", "thread", "ember", "shadow", "summer", "little", "bright", "quiet",
    "travel", "window", "paper", "stone", "cloud", "morning", "letter", "forest",
)
TAGS = ("fediverse", "moths", "nightwatch", "simnet")

# The workload is one thread that never sleeps or waits on a socket, so its
# timings are that thread's CPU time. Wall-clock time on a shared VM also holds
# hypervisor steal, which moved p90 by up to a quarter between runs.
# Blocking waits (fsync, say) therefore do not show here; serve_mixed times
# wall-clock over real sockets on the same file store.
CLOCK = time.thread_time


class TimedNet(VirtualNet):
    """VirtualNet that records every routed request as its caller sees it."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # (method, url, status or None, seconds)
        self.timings: list[tuple[str, str, int | None, float]] = []

    def route(self, from_domain, request):
        status = None
        start = CLOCK()
        try:
            response = super().route(from_domain, request)
            status = response.status
            return response
        finally:
            self.timings.append((request.method, request.url, status, CLOCK() - start))


def post_inputs(seed: int) -> Iterator[tuple[str, str, str | None]]:
    """(author, ~250-char text with a hashtag, peer to fault or None), forever."""
    rng = random.Random(seed)
    for index in itertools.count():
        tag = rng.choice(TAGS)
        suffix = f" #{tag} (post {index})"
        words: list[str] = []
        while len(" ".join(words)) + len(suffix) < POST_CHARS:
            words.append(rng.choice(WORDS))
        fault_peer = rng.choice(PEERS) if rng.random() < FAULT_SHARE else None
        yield AUTHORS[index % len(AUTHORS)], " ".join(words) + suffix, fault_peer


def set_up(seed: int, backend: str, root: Path | None) -> tuple[TimedNet, float]:
    """Spawn the five instances and complete every follow; return (net, seconds)."""
    start = CLOCK()
    net = TimedNet(
        seed=seed, backend=backend, storage_root=str(root) if root else None,
        key_bits=KEY_BITS,
    )
    net.spawn_instance(AUTHOR_DOMAIN, list(AUTHORS))
    for domain in PEERS:
        net.spawn_instance(domain, list(PEER_USERS))
    for domain, user in FOLLOWERS:
        for author in AUTHORS:
            net.follow(domain, user, f"{author}@{AUTHOR_DOMAIN}")
    net.run_until_quiet()
    seconds = CLOCK() - start

    store = net.node(AUTHOR_DOMAIN).store
    for author in AUTHORS:
        account = store.get_local_account(author)
        followers = store.followers_of(account.id, state="accepted")
        if len(followers) != len(FOLLOWERS):
            raise BenchError(f"set-up: {author} has {len(followers)} accepted followers")
    if net.pending_total() or failed_tasks(net):
        raise BenchError("set-up: follow deliveries did not all succeed")
    return net, seconds


def failed_tasks(net: VirtualNet) -> list:
    return [
        task
        for node in net.instances.values()
        for task in node.store.all_tasks()
        if task.terminal and not (task.result or "").startswith("delivered")
    ]


class Phase:
    """One measured stretch of operations on one net."""

    def __init__(self) -> None:
        self.ops: list[dict] = []
        self.elapsed = 0.0  # CPU seconds
        self.wall = 0.0
        self.window = (0, 0)  # slice of net.timings taken while measuring
        self.gen_cpu_s = 0.0


def measure(net: TimedNet, inputs: Iterator, seconds: float, min_ops: int) -> Phase:
    phase = Phase()
    first = len(net.timings)
    start, wall_start = CLOCK(), time.perf_counter()
    for index in itertools.count():
        if index >= min_ops and time.perf_counter() - wall_start >= seconds:
            break
        cpu = time.process_time()
        author, text, fault_peer = next(inputs)
        phase.gen_cpu_s += time.process_time() - cpu
        rule = None
        if fault_peer is not None:
            rule = net.inject_fault(
                "status", host=fault_peer, path_contains="/inbox", status_code=503, times=1
            )
        mark = len(net.timings)
        op = {"uri": None, "error": None, "fault": fault_peer is not None}
        began, began_wall = CLOCK(), time.perf_counter()
        try:
            op["uri"] = net.post_status(AUTHOR_DOMAIN, author, text)["uri"]
            net.run_until_quiet()
            op["federate_s"] = CLOCK() - began
            op["federate_wall_s"] = time.perf_counter() - began_wall
            domain, user = FOLLOWERS[index % len(FOLLOWERS)]
            top = net.home_timeline(domain, user, limit=1)
            if not top or top[0].get("uri") != op["uri"]:
                op["error"] = f"{user}@{domain} does not see the post first"
        except MothError as exc:
            op["error"] = f"{type(exc).__name__}: {exc}"
        finally:
            if rule is not None:
                net.remove_fault(rule)
        op["requests"] = (mark, len(net.timings))
        phase.ops.append(op)
    phase.elapsed = CLOCK() - start
    phase.wall = time.perf_counter() - wall_start
    phase.window = (first, len(net.timings))
    return phase


def _inbox_2xx(method: str, url: str, status: int | None) -> bool:
    return (
        status is not None and 200 <= status < 300
        and route_of(method, urlsplit(url).path) == "inbox"
    )


def check(net: TimedNet, phase: Phase) -> list[str]:
    """Mark failed operations in place; return problems not tied to one."""
    problems = []
    expected = len(FOLLOWERS)
    for op in phase.ops:
        if op["error"]:
            continue
        lo, hi = op["requests"]
        delivered = sum(1 for m, u, s, _ in net.timings[lo:hi] if _inbox_2xx(m, u, s))
        if delivered != expected:
            op["error"] = f"{delivered} of {expected} deliveries accepted"

    by_uri = {op["uri"]: op for op in phase.ops if op["uri"]}
    for task in failed_tasks(net):
        try:
            obj = json.loads(task.activity_body).get("object")
            uri = obj.get("id") if isinstance(obj, dict) else None
        except ValueError:
            uri = None
        if uri in by_uri:
            by_uri[uri]["error"] = by_uri[uri]["error"] or f"task ended {task.result}"
        else:
            problems.append(f"task {task.task_id} ended {task.result}")
    if net.pending_total():
        problems.append(f"{net.pending_total()} deliveries still pending")

    for domain, user in FOLLOWERS:
        seen = timeline_uris(net, domain, user)
        for uri, op in by_uri.items():
            if uri not in seen and not op["error"]:
                op["error"] = f"{user}@{domain} lacks {uri}"
    return problems


def timeline_uris(net: VirtualNet, domain: str, user: str) -> set[str]:
    """Every status uri in a home timeline, paged through the client API."""
    token = net.user_token(domain, user)
    uris: set[str] = set()
    max_id = None
    while True:
        path = "/api/v1/timelines/home?limit=40"
        if max_id is not None:
            path += f"&max_id={max_id}"
        response = net.api(domain, "GET", path, token=token)
        if response.status != 200:
            raise BenchError(f"home timeline of {user}@{domain}: {response.status}")
        page = json.loads(response.body)
        if not page:
            return uris
        uris.update(item["uri"] for item in page)
        max_id = page[-1]["id"]


def part(workload: str, seed: int, index: int, seconds: float, min_ops: int,
         root: Path | None) -> dict:
    """One child process's share of an untraced run: set up once, measure, check.

    Returns raw samples; the parent pools the children's samples. Spreading a
    run over several processes averages out per-process effects (memory layout,
    which core) that moved sub-millisecond medians by up to a fifth between
    back-to-back runs of one seed.
    """
    backend = "file" if workload == "fanout_file" else "memory"
    net, setup_s = set_up(seed, backend, root)
    phase = measure(net, post_inputs(f"{seed}:{index}"), seconds, min_ops)
    problems = check(net, phase)
    lo, hi = phase.window
    return {
        "setup_s": setup_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "elapsed_s": phase.elapsed,
        "wall_s": phase.wall,
        "ops": [
            {"federate_ms": op.get("federate_s", 0.0) * 1000.0,
             "federate_wall_ms": op.get("federate_wall_s", 0.0) * 1000.0,
             "error": op["error"]}
            for op in phase.ops
        ],
        # (route, answered 2xx, ms) for every request routed while measuring
        "requests": [
            (route_of(method, urlsplit(url).path),
             status is not None and 200 <= status < 300, seconds_taken * 1000.0)
            for method, url, status, seconds_taken in net.timings[lo:hi]
        ],
        "problems": problems,
    }


def run_parts(workload: str, seed: int, seconds: float) -> list[dict]:
    parts = []
    with scratch_dir(f"{workload}-") as scratch:
        # File stores are deleted only after every part has measured, so no
        # part is timed while the file system frees another part's files.
        for index in range(PARTS):
            root = str(scratch / f"part{index}") if workload == "fanout_file" else "-"
            command = [
                sys.executable, str(BENCH_DIR / "fanout_part.py"), workload, str(seed),
                str(index), str(seconds / PARTS), str(-(-MIN_POSTS // PARTS)), root,
            ]
            try:
                done = subprocess.run(command, capture_output=True, text=True,
                                      timeout=PART_TIMEOUT_S, check=False)
            except subprocess.TimeoutExpired as exc:
                raise BenchError(f"{workload} part {index} ran over {PART_TIMEOUT_S}s") from exc
            if done.returncode != 0:
                raise BenchError(f"{workload} part {index} failed:\n{done.stderr[-4000:]}")
            parts.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return parts


def end_to_end(parts: list[dict]) -> dict[str, tuple[float, str]]:
    by_route: dict[str, list[float]] = {}
    everything = []
    for part_result in parts:
        for route, answered, ms in part_result["requests"]:
            everything.append(ms)
            if answered:
                by_route.setdefault(route, []).append(ms)
    ops = [op for part_result in parts for op in part_result["ops"]]
    federate = [op["federate_ms"] for op in ops if not op["error"]]
    elapsed = sum(part_result["elapsed_s"] for part_result in parts)
    return {
        "setup_s": (statistics.median(p["setup_s"] for p in parts), "s"),
        "rss_mb": (max(p["rss_mb"] for p in parts), "MB"),
        "ok_ratio": (sum(1 for op in ops if not op["error"]) / len(ops), "ratio"),
        "deliveries_per_s": (len(by_route.get("inbox", ())) / elapsed, "1/s"),
        "federate_ms_p50": (pct(federate, 50), "ms"),
        "federate_ms_p90": (pct(federate, 90), "ms"),
        "post_ms_p50": (pct(by_route["post_status"], 50), "ms"),
        "post_ms_p90": (pct(by_route["post_status"], 90), "ms"),
        "requests_per_s": (len(everything) / elapsed, "1/s"),
        "request_ms_p50": (pct(everything, 50), "ms"),
        "request_ms_p99": (pct(everything, 99), "ms"),
        "inbox_ms_p50": (pct(by_route["inbox"], 50), "ms"),
        "timeline_ms_p50": (pct(by_route["home_timeline"], 50), "ms"),
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> None:
    backend = "file" if workload == "fanout_file" else "memory"
    env = environment(
        seed, workload, backend=backend, key_bits=KEY_BITS, loop="closed, 1 caller",
        timing="thread CPU time", processes=PARTS,
        topology=f"{len(AUTHORS)} authors, {len(PEERS)} peers x {len(PEER_USERS)} followers",
    )
    notes = []
    if backend == "file":
        notes.append("fanout_file writes to a file system inside a sandbox; "
                     "its timings are not those of a measured disk")
    if not trace:
        parts = run_parts(workload, seed, seconds)
        metrics = end_to_end(parts)
        errors = [op["error"] for p in parts for op in p["ops"] if op["error"]]
        problems = [problem for p in parts for problem in p["problems"]]
        attempted = sum(len(p["ops"]) for p in parts)
        wall = [op["federate_wall_ms"] for p in parts for op in p["ops"] if not op["error"]]
        notes.append(
            f"wall clock, for comparison: {sum(p['wall_s'] for p in parts):.1f} s measured "
            f"in {PARTS} processes, federate p50 {pct(wall, 50):.1f} ms, "
            f"p90 {pct(wall, 90):.1f} ms"
        )
    else:
        with scratch_dir(f"{workload}-") as scratch:

            def root(k: int) -> Path | None:
                return scratch / f"setup{k}" if backend == "file" else None

            inputs = post_inputs(f"{seed}:trace")
            # Untraced half, then a traced set-up and traced half on a fresh net.
            net, _ = set_up(seed, backend, root(0))
            plain = measure(net, inputs, seconds / 2, 1)
            problems = check(net, plain)
            tracer = Tracer()
            missing = tracer.install()
            tracer.enabled = True
            window_start = time.perf_counter()
            net, _ = set_up(seed, backend, root(1))
            traced = measure(net, inputs, seconds / 2, 1)
            window = time.perf_counter() - window_start
            tracer.enabled = False
            problems += check(net, traced)
            metrics = layer_metrics(tracer, net, plain, traced, window)
        errors = [op["error"] for op in plain.ops + traced.ops if op["error"]]
        attempted = len(plain.ops) + len(traced.ops)
        if missing:
            notes.append("not traced (absent): " + ", ".join(missing))
    notes += [f"op failed: {error}" for error in errors[:10]] + problems
    emit(env, not problems and not errors, attempted, len(errors), metrics, notes)


def layer_metrics(tracer: Tracer, net: TimedNet, plain: Phase, traced: Phase,
                  window: float) -> dict[str, tuple[float, str]]:
    values = layer_values(tracer.spans)
    values["storage.tasks_held"] = sum(
        len(node.store.all_tasks()) for node in net.instances.values()
    )
    values["cli.http_overhead_ms"] = 0.0  # no sockets in simnet
    values["cli.http_overhead_share"] = 0.0
    values["gen.client_cpu_s"] = plain.gen_cpu_s + traced.gen_cpu_s

    def mean_federate(phase: Phase) -> float:
        return statistics.fmean(op["federate_s"] for op in phase.ops if "federate_s" in op)

    values["trace.overhead_ratio"] = mean_federate(traced) / mean_federate(plain) - 1.0
    values["trace.window_s"] = window
    return {name: (values[name], unit) for name, unit in per_layer_names()}
