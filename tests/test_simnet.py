"""Virtual network harness: faults, retries, determinism, scripted scenarios."""
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from mothfed import activitypub, identity, transport
from mothfed.errors import (
    DuplicateDomain,
    ExpectationFailed,
    NotQuiescent,
    TransportError,
)
from mothfed.simnet import START_TIME, ScenarioRunner, VirtualClock, VirtualNet

from .support import child_env

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def federated_pair(seed: int = 3) -> VirtualNet:
    net = VirtualNet(seed=seed)
    net.spawn_instance("a.test", ["alice"])
    net.spawn_instance("b.test", ["bob"])
    return net


def home_texts(net: VirtualNet, domain: str, username: str) -> list[str]:
    return [item["content"] for item in net.home_timeline(domain, username)]


class TestVirtualClock:
    def test_advance_rejects_negative(self):
        clock = VirtualClock()
        with pytest.raises(ValueError):
            clock.advance(-0.001)

    def test_advance_to_is_forward_only(self):
        clock = VirtualClock(START_TIME)
        clock.advance_to(START_TIME - 100.0)
        assert clock.now() == START_TIME
        clock.advance_to(START_TIME + 5.0)
        assert clock.now() == START_TIME + 5.0


class TestWorldBasics:
    def test_duplicate_domain_rejected(self):
        net = VirtualNet()
        net.spawn_instance("a.test", ["alice"])
        with pytest.raises(DuplicateDomain):
            net.spawn_instance("a.test", ["alice"])

    def test_idle_world_is_quiet_in_zero_steps(self):
        net = federated_pair()
        assert net.run_until_quiet() == 0

    def test_step_budget_must_be_positive(self):
        net = federated_pair()
        with pytest.raises(ValueError):
            net.run_until_quiet(0)

    def test_tokens_are_deterministic_per_seed(self):
        first = VirtualNet(seed=5)
        first.spawn_instance("a.test", ["alice"])
        second = VirtualNet(seed=5)
        second.spawn_instance("a.test", ["alice"])
        assert first.user_token("a.test", "alice") == second.user_token(
            "a.test", "alice"
        )

    def test_importing_simnet_loads_no_module_it_does_not_use(self):
        # _hashlib would be a second OpenSSL beside cryptography's.
        unused = ("sqlite3", "urllib.request", "ssl", "http.client", "_hashlib")
        code = f"import sys, mothfed.simnet; print([m for m in {unused!r} if m in sys.modules])"
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=child_env(), capture_output=True, text=True, check=True,
        )
        assert done.stdout.strip() == "[]"

    def test_log_entries_share_one_string_per_method(self):
        net = federated_pair()
        net.api("a.test", "get", "/api/v1/accounts/lookup?acct=alice")
        net.follow("b.test", "bob", "alice@a.test")
        net.run_until_quiet()
        methods = {}
        for entry in net.log:
            assert methods.setdefault(entry.method, entry.method) is entry.method
        assert sorted(methods) == ["GET", "POST"]


class TestRouting:
    """A request reaches its receiver as its sender built it."""

    @staticmethod
    def fan_out_world() -> VirtualNet:
        net = VirtualNet(seed=7)
        net.spawn_instance("a.test", ["alice"])
        for peer in range(4):
            domain = f"p{peer}.test"
            net.spawn_instance(domain, [f"u{i}" for i in range(4)])
            for i in range(4):
                net.follow(domain, f"u{i}", "alice@a.test")
        net.run_until_quiet()
        return net

    @staticmethod
    def received(net: VirtualNet, monkeypatch) -> list:
        """Every request the instances are handed from now on."""
        seen = []
        for node in net.instances.values():
            def handle(request, original=node.handle_http):
                seen.append(request)
                return original(request)
            monkeypatch.setattr(node, "handle_http", handle)
        return seen

    def test_one_posts_sixteen_deliveries_split_urls_at_most_40_times(self, monkeypatch):
        net = self.fan_out_world()
        net.post_status("a.test", "alice", "hello #moths")
        splits = []
        for module in (transport, activitypub, identity):
            def counted(url, *args, original=module.urlsplit, **kwargs):
                splits.append(url)
                return original(url, *args, **kwargs)
            monkeypatch.setattr(module, "urlsplit", counted)
        mark = len(net.log)
        net.run_until_quiet()
        inbox_posts = net.log_entries(method="POST", url_contains="/inbox", start=mark)
        assert [e.status for e in inbox_posts] == [202] * 16
        # The signer and the queue each split the inbox URL; routing adds no split,
        # and the receiver splits nothing it knew before the request came.
        assert len(splits) <= 40

    def test_a_signed_request_arrives_with_one_host_and_leaves_its_headers_alone(
        self, monkeypatch
    ):
        net = federated_pair()
        net.follow("b.test", "bob", "alice@a.test")
        received = self.received(net, monkeypatch)
        sent = []
        sender = net.node("a.test").transport

        def keep(request, original=sender.request):
            sent.append((request, dict(request.headers)))
            return original(request)

        monkeypatch.setattr(sender, "request", keep)
        net.run_until_quiet()  # the Accept, signed by a.test
        ((request, headers_before),) = [(r, h) for r, h in sent if r.method == "POST"]
        assert request.headers == headers_before
        # Forwarded as sent: the receiver is handed the sender's own request.
        assert any(r is request for r in received)
        hosts = [v for k, v in request.headers.items() if k.lower() == "host"]
        assert hosts == ["b.test"]

    def test_a_client_request_names_its_host(self, monkeypatch):
        net = federated_pair()
        received = self.received(net, monkeypatch)
        assert net.lookup("a.test", "alice@a.test").status == 200
        assert [r.headers.get("Host") for r in received] == ["a.test"]


class TestFaults:
    def test_drop_fault_exhausts_retries_then_goes_quiet(self):
        net = federated_pair()
        rule = net.inject_fault(
            behavior="drop", host="b.test", path_contains="/inbox"
        )
        net.post_status("a.test", "alice", "hi @bob@b.test vanishing")
        net.run_until_quiet(max_steps=40)

        tasks = net.node("a.test").store.all_tasks()
        assert len(tasks) == 1
        task = tasks[0]
        assert task.terminal
        assert task.attempts == 8
        assert task.result is not None
        assert task.result.startswith("failed:")
        assert task.result.endswith("after 8 attempts")

        attempts = net.log_entries(method="POST", url_contains="/users/bob/inbox")
        assert len(attempts) == 8
        assert all(e.status is None for e in attempts)
        assert all(e.fault == f"drop#{rule}" for e in attempts)
        assert not any("vanishing" in text for text in home_texts(net, "b.test", "bob"))

    def test_not_quiescent_then_heals_after_fault_removed(self):
        net = federated_pair()
        rule = net.inject_fault(
            behavior="drop", host="b.test", path_contains="/inbox"
        )
        net.post_status("a.test", "alice", "hello @bob@b.test persistence")
        with pytest.raises(NotQuiescent):
            net.run_until_quiet(max_steps=2)

        net.remove_fault(rule)
        net.run_until_quiet()
        task = net.node("a.test").store.all_tasks()[0]
        assert task.result == "delivered: 202"
        assert task.attempts == 2
        assert any("persistence" in text for text in home_texts(net, "b.test", "bob"))

    def test_delay_fault_slows_but_still_delivers(self):
        net = federated_pair()
        rule = net.inject_fault(
            behavior="delay", host="b.test", path_contains="/inbox", delay_ms=1500.0
        )
        net.post_status("a.test", "alice", "hi @bob@b.test slow lane")
        net.run_until_quiet()

        assert net.clock.now() >= START_TIME + 1.5
        entries = net.log_entries(method="POST", url_contains="/users/bob/inbox")
        assert len(entries) == 1
        assert entries[0].status == 202
        assert entries[0].fault == f"delay#{rule}"
        assert any("slow lane" in text for text in home_texts(net, "b.test", "bob"))

    def test_transient_500_retries_then_succeeds(self):
        net = federated_pair()
        net.inject_fault(
            behavior="status",
            status_code=500,
            host="b.test",
            path_contains="/inbox",
            times=1,
        )
        net.post_status("a.test", "alice", "hi @bob@b.test second try")
        net.run_until_quiet()

        statuses = [
            e.status
            for e in net.log_entries(method="POST", url_contains="/users/bob/inbox")
        ]
        assert statuses == [500, 202]
        task = net.node("a.test").store.all_tasks()[0]
        assert task.result == "delivered: 202"
        assert task.attempts == 1
        assert any("second try" in text for text in home_texts(net, "b.test", "bob"))

    def test_empty_200_looks_delivered_but_content_is_lost(self):
        # The silent-failure shape: the sender books a success while the
        # receiver never saw the activity. Detectable only end to end.
        net = federated_pair()
        net.inject_fault(
            behavior="empty_200", host="b.test", path_contains="/inbox"
        )
        net.post_status("a.test", "alice", "hi @bob@b.test into the void")
        net.run_until_quiet()

        task = net.node("a.test").store.all_tasks()[0]
        assert task.result == "delivered: 200"
        assert task.attempts == 0
        assert not any("void" in text for text in home_texts(net, "b.test", "bob"))

    def test_a_drop_with_a_delay_waits_then_fails_like_a_timeout(self):
        net = federated_pair()
        rule = net.inject_fault(behavior="drop", host="b.test", delay_ms=15000)
        before = net.clock.now()
        with pytest.raises(TransportError):
            net.api("b.test", "GET", "/users/bob")
        assert net.clock.now() == before + 15.0
        assert net.log[-1].fault == f"drop#{rule}"

    def test_unknown_fault_behavior_rejected(self):
        net = VirtualNet()
        with pytest.raises(ValueError):
            net.inject_fault(behavior="jitter")


class TestReplies:
    def test_a_reply_names_its_parent_on_every_wire_path(self):
        net = federated_pair()
        net.follow("b.test", "bob", "alice@a.test")
        net.run_until_quiet()
        root = net.post_status("a.test", "alice", "root post")
        reply = net.post_status("a.test", "alice", "a reply", in_reply_to_id=int(root["id"]))
        net.run_until_quiet()

        document = net.api("a.test", "GET", f"/users/alice/statuses/{reply['id']}")
        assert json.loads(document.body)["inReplyTo"] == root["uri"]
        outbox = json.loads(net.api("a.test", "GET", "/users/alice/outbox").body)
        notes = {item["object"]["id"]: item["object"] for item in outbox["orderedItems"]}
        assert notes[reply["uri"]]["inReplyTo"] == root["uri"]
        assert "inReplyTo" not in notes[root["uri"]]

        # b.test threads its copy of the reply under its copy of the root.
        copies = {item["uri"]: item for item in net.home_timeline("b.test", "bob")}
        assert copies[reply["uri"]]["in_reply_to_id"] == copies[root["uri"]]["id"]
        assert "in_reply_to_id" not in copies[root["uri"]]

    @staticmethod
    def three_instances(backend, tmp_path):
        net = VirtualNet(seed=30, backend=backend, storage_root=str(tmp_path))
        net.spawn_instance("a.test", ["alice"])
        net.spawn_instance("b.test", ["bob"])
        net.spawn_instance("c.test", ["carol"])
        net.follow("c.test", "carol", "alice@a.test")
        return net

    @staticmethod
    def carols_reply(net, root):
        [copy] = [s for s in net.home_timeline("c.test", "carol") if s["uri"] == root["uri"]]
        return net.post_status("c.test", "carol", "a reply", in_reply_to_id=int(copy["id"]))

    @pytest.mark.parametrize("backend", ["memory", "file"])
    def test_a_reply_to_a_parent_never_received_keeps_its_uri(self, backend, tmp_path):
        net = self.three_instances(backend, tmp_path)
        net.follow("b.test", "bob", "carol@c.test")
        net.run_until_quiet()
        root = net.post_status("a.test", "alice", "root post")
        net.run_until_quiet()
        reply = self.carols_reply(net, root)
        net.run_until_quiet()

        store = net.node("b.test").store
        assert store.get_status_by_uri(root["uri"]) is None
        assert store.get_status_by_uri(reply["uri"]).in_reply_to_uri == root["uri"]
        [copy] = net.home_timeline("b.test", "bob")
        assert copy["uri"] == reply["uri"] and "in_reply_to_id" not in copy

    @pytest.mark.parametrize("backend", ["memory", "file"])
    def test_a_reply_that_arrives_before_its_parent_links_to_it_once_it_arrives(
        self, backend, tmp_path
    ):
        net = self.three_instances(backend, tmp_path)
        net.follow("b.test", "bob", "alice@a.test")
        net.follow("b.test", "bob", "carol@c.test")
        net.run_until_quiet()
        # Holds back alice's delivery to bob once, so carol's reply lands first.
        net.inject_fault(
            behavior="status", status_code=503, host="b.test", path_contains="/inbox", times=1
        )
        root = net.post_status("a.test", "alice", "root post")
        net.node("a.test").process_deliveries()
        reply = self.carols_reply(net, root)
        net.node("c.test").process_deliveries()

        store = net.node("b.test").store
        assert store.get_status_by_uri(root["uri"]) is None
        assert store.get_status_by_uri(reply["uri"]).in_reply_to_uri == root["uri"]
        [early] = net.home_timeline("b.test", "bob")
        assert early["uri"] == reply["uri"] and "in_reply_to_id" not in early

        net.run_until_quiet()  # alice's delivery arrives on its retry
        copies = {item["uri"]: item for item in net.home_timeline("b.test", "bob")}
        assert copies[reply["uri"]]["in_reply_to_id"] == copies[root["uri"]]["id"]
        statuses = [e.status for e in net.log_entries(method="POST", url_contains="/users/bob/inbox")]
        assert statuses.count(503) == 1


class TestKillRespawn:
    def test_pending_delivery_lands_after_respawn(self):
        net = federated_pair()
        net.post_status("a.test", "alice", "back @bob@b.test revive")
        net.kill_instance("b.test")
        with pytest.raises(NotQuiescent):
            net.run_until_quiet(max_steps=3)

        net.respawn_instance("b.test")
        net.run_until_quiet()
        task = net.node("a.test").store.all_tasks()[0]
        assert task.result == "delivered: 202"
        assert task.attempts >= 1
        assert any("revive" in text for text in home_texts(net, "b.test", "bob"))

    def test_file_backend_survives_restart(self, tmp_path):
        net = VirtualNet(seed=9, backend="file", storage_root=str(tmp_path))
        net.spawn_instance("a.test", ["alice"])
        net.spawn_instance("b.test", ["bob"])
        net.follow("b.test", "bob", "alice@a.test")
        net.run_until_quiet()
        net.post_status("a.test", "alice", "durable words #keep")
        net.run_until_quiet()

        token_before = net.user_token("b.test", "bob")
        assert any("durable words" in text for text in home_texts(net, "b.test", "bob"))

        net.kill_instance("b.test")
        net.respawn_instance("b.test")

        assert net.user_token("b.test", "bob") == token_before
        assert any("durable words" in text for text in home_texts(net, "b.test", "bob"))
        tagged = net.tag_timeline("b.test", "keep")
        assert any("durable words" in item["content"] for item in tagged)

        # The follow relationship survived too: new posts keep arriving.
        net.post_status("a.test", "alice", "second after restart")
        net.run_until_quiet()
        assert any(
            "second after restart" in text for text in home_texts(net, "b.test", "bob")
        )


    def test_respawn_does_not_create_a_deleted_user_again(self, tmp_path):
        net = VirtualNet(seed=9, backend="file", storage_root=str(tmp_path))
        net.spawn_instance("a.test", ["alice"])
        net.delete_account("a.test", "alice")
        net.kill_instance("a.test")
        net.respawn_instance("a.test")
        assert net.lookup("a.test", "alice").status in (404, 410)


def scripted_run(seed: int) -> bytes:
    net = VirtualNet(seed=seed)
    net.spawn_instance("a.test", ["alice"])
    net.spawn_instance("b.test", ["bob"])
    net.follow("b.test", "bob", "alice@a.test")
    net.run_until_quiet()
    net.inject_fault(behavior="drop", host="b.test", path_contains="/inbox", times=1)
    net.post_status("a.test", "alice", "retries converge #logs")
    net.post_status("a.test", "alice", "hello @bob@b.test directly", visibility="direct")
    net.run_until_quiet()
    return net.log_json()


class TestDeterminism:
    def test_identical_seeds_produce_identical_logs(self):
        assert scripted_run(7) == scripted_run(7)

    @pytest.mark.parametrize(
        "path", sorted(SCENARIO_DIR.glob("*.json")), ids=lambda path: path.stem
    )
    def test_scenario_replay_is_byte_identical(self, path):
        logs = []
        for _ in range(2):
            net = VirtualNet(seed=21)
            ScenarioRunner(net).run_file(path)
            logs.append(net.log_json())
        assert logs[0] == logs[1]


class TestConservation:
    def test_delivered_tasks_match_accepted_inbox_posts(self):
        net = VirtualNet(seed=4)
        net.spawn_instance("a.test", ["alice"])
        net.spawn_instance("b.test", ["bob"])
        net.spawn_instance("c.test", ["carol"])
        net.follow("b.test", "bob", "alice@a.test")
        net.follow("c.test", "carol", "alice@a.test")
        net.run_until_quiet()
        net.inject_fault(
            behavior="status",
            status_code=500,
            host="b.test",
            path_contains="/inbox",
            times=3,
        )
        for text in ("first dispatch", "second dispatch", "third dispatch"):
            net.post_status("a.test", "alice", text)
        net.post_status(
            "a.test", "alice", "@carol@c.test just you", visibility="direct"
        )
        net.run_until_quiet()

        delivered = [
            task
            for node in net.instances.values()
            for task in node.store.all_tasks()
            if task.terminal and task.result and task.result.startswith("delivered:")
        ]
        accepted = [
            entry
            for entry in net.log
            if entry.method == "POST"
            and "/inbox" in entry.url
            and entry.status is not None
            and 200 <= entry.status < 300
        ]
        assert len(delivered) == len(accepted)

        for task in (
            task for node in net.instances.values() for task in node.store.all_tasks()
        ):
            if task.terminal:
                assert task.result

        # Fan-in happened exactly once per status despite the retries.
        bob_home = home_texts(net, "b.test", "bob")
        for text in ("first dispatch", "second dispatch", "third dispatch"):
            assert sum(text in item for item in bob_home) == 1
        carol_home = home_texts(net, "c.test", "carol")
        assert sum("just you" in item for item in carol_home) == 1
        assert not any("just you" in item for item in bob_home)


class TestScenarios:
    @pytest.mark.parametrize(
        "filename",
        [
            "mention_federation.json",
            "follow_forwarding.json",
            "delete_propagation.json",
            "fault_silent200.json",
        ],
    )
    def test_scenario_file_passes(self, filename):
        net = VirtualNet(seed=11)
        ScenarioRunner(net).run_file(SCENARIO_DIR / filename)

    def test_scenario_without_steps_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text('{"name": "hollow"}', encoding="utf-8")
        with pytest.raises(ExpectationFailed):
            ScenarioRunner(VirtualNet()).run_file(path)

    def test_unknown_op_reports_step_position(self):
        runner = ScenarioRunner(VirtualNet())
        with pytest.raises(ExpectationFailed, match="step 0"):
            runner.run({"name": "bad", "steps": [{"op": "frobnicate"}]})

    @pytest.mark.parametrize(
        "step, reason",
        [
            ({"op": "remove_fault", "id": "nope"}, "no fault was injected with id 'nope'"),
            ({"op": "expect", "check": "status_count", "user": "alice", "equals": 0},
             "no instance '' is running"),
            ({"op": "expect", "check": "home_timeline_contains", "domain": "a.test",
              "content_substring": "hi"}, "no user '' with a token on a.test"),
            ({"op": "expect", "check": "home_timeline_contains", "domain": "a.test",
              "user": "alice"}, "home_timeline_contains needs a non-empty content_substring"),
            ({"op": "expect", "check": "tag_timeline_absent", "domain": "a.test", "tag": "x",
              "content_substring": ""}, "tag_timeline_absent needs a non-empty content_substring"),
            ({"op": "lookup", "domain": "zz.test", "acct": "alice@a.test"},
             "no instance 'zz.test' is running"),
            ({"op": "delete_account", "domain": "a.test", "username": "nobody"},
             "no user 'nobody' on a.test"),
        ],
        ids=["fault alias", "status_count without domain", "home timeline without user",
             "home timeline without substring", "tag timeline with empty substring",
             "lookup on no instance", "delete of no user"],
    )
    def test_a_member_naming_nothing_fails_the_step(self, step, reason):
        spawn = {"op": "spawn_instance", "domain": "a.test", "users": ["alice"]}
        with pytest.raises(ExpectationFailed, match=r"bad step 1 \(\w+\): ") as failed:
            ScenarioRunner(VirtualNet()).run({"name": "bad", "steps": [spawn, step]})
        assert str(failed.value).endswith(reason)

    @pytest.mark.parametrize(
        "step",
        [
            {"op": "post_status", "domain": "a.test", "username": "alice",
             "text": "hush", "vsibility": "direct"},
            {"op": "post_status", "domain": "a.test", "as": "alice", "text": "hush"},
            {"op": "inject_fault", "id": "f", "behavior": "drop", "hostname": "b.test"},
            {"op": "expect", "check": "log_count", "url_contain": "/inbox", "equals": 0},
        ],
        ids=["misspelled", "old name", "fault rule", "expect"],
    )
    def test_a_member_its_op_does_not_take_fails_the_step(self, step):
        net = VirtualNet()
        spawn = {"op": "spawn_instance", "domain": "a.test", "users": ["alice"]}
        with pytest.raises(ExpectationFailed, match=r"bad step 1 \(\w+\): .*argument"):
            ScenarioRunner(net).run({"name": "bad", "steps": [spawn, step]})
        assert net.log == []


def rows_outside_their_audience(net: VirtualNet) -> tuple[int, list[str]]:
    """How many home-timeline rows the instances hold, and those whose owner
    is not the status's author, holds no follow relation (in any state) to
    the author, and is not mentioned by the status."""
    rows, strays = 0, []
    for domain, node in sorted(net.instances.items()):
        store = node.store
        for owner_id, status_id in json.loads(store.snapshot())["timelines"]:
            rows += 1
            owner, status = store.get_account(owner_id), store.get_status(status_id)
            if owner is None or status is None or not (
                owner.id == status.account_id
                or store.get_follow(owner.actor_uri, status.account_id) is not None
                or any(m.actor_uri == owner.actor_uri for m in status.mentions)
            ):
                strays.append(f"{domain}: row ({owner_id}, {status_id})")
    return rows, strays


class TestTimelineAudience:
    """Every home-timeline row lies in its status's audience as fan-out wrote
    it: the rule a deletion reads to find the rows it takes out."""

    @pytest.mark.parametrize("backend", ["memory", "file"])
    @pytest.mark.parametrize(
        "path", sorted(SCENARIO_DIR.glob("*.json")), ids=lambda path: path.stem
    )
    def test_each_scenario_ends_with_every_row_in_its_audience(self, path, backend, tmp_path):
        net = VirtualNet(seed=11, backend=backend, storage_root=str(tmp_path))
        ScenarioRunner(net).run_file(path)
        assert rows_outside_their_audience(net)[1] == []

    @pytest.mark.parametrize("backend", ["memory", "file"])
    def test_every_row_stays_in_its_audience_through_a_seeded_run(self, backend, tmp_path):
        rng = random.Random(24)
        net = VirtualNet(seed=24, backend=backend, storage_root=str(tmp_path))
        net.spawn_instance("a.test", ["alice", "dave"])
        net.spawn_instance("b.test", ["bob"])
        net.spawn_instance("c.test", ["carol"])
        alive = [("a.test", "alice"), ("a.test", "dave"), ("b.test", "bob"), ("c.test", "carol")]

        def post(n: int) -> None:
            domain, author = rng.choice(alive)
            others = [f"@{user}@{host}" for host, user in alive if user != author]
            visibility = rng.choice(["public", "followers", "direct"])
            mentioned = rng.sample(others, rng.randint(visibility == "direct", 2))
            net.post_status(domain, author, f"post {n} {' '.join(mentioned)}", visibility)

        def delete_bob() -> None:
            net.delete_account("b.test", "bob")
            alive.remove(("b.test", "bob"))

        steps = [
            lambda: net.follow("b.test", "bob", "alice@a.test"),
            lambda: net.follow("c.test", "carol", "alice@a.test"),
            lambda: net.follow("a.test", "dave", "alice"),
            lambda: net.follow("a.test", "alice", "bob@b.test"),
            *[lambda n=n: post(n) for n in range(8)],
            delete_bob,
            *[lambda n=n: post(n) for n in range(8, 12)],
        ]
        most = 0
        for index, step in enumerate(steps):
            step()
            net.run_until_quiet()
            rows, strays = rows_outside_their_audience(net)
            assert strays == [], index
            most = max(most, rows)
        assert most > 10
