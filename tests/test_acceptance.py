"""Release gate: every shipping criterion as one test with a printed verdict.

Run with ``pytest tests/test_acceptance.py -q``; each test prints a
``[criterion NN] PASS/FAIL`` line so the output doubles as the report.
"""
import json
import random
import time
from contextlib import contextmanager
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from mothfed.activitypub import (
    PUBLIC_COLLECTION,
    Activity,
    ActivityKind,
    TagEntry,
    TagKind,
    Note,
    parse_activity,
    parse_note,
    serialize_object,
    validate_actor_document,
)
from mothfed.config import Config
from mothfed.errors import (
    BadSignature,
    DigestMismatch,
    NoSignature,
    StaleDate,
)
from mothfed.federation import FederationEngine
from mothfed.httpsig import (
    generate_rsa_keypair,
    load_private_key,
    sign_request,
    verify_signature,
)
from mothfed.mastodon import Account, Mention, Status, Visibility, status_to_note, note_to_status
from mothfed.simnet import ScenarioRunner, VirtualNet
from mothfed.storage import MemoryStore

from .support import (
    FIXED_PRIVATE_PEM,
    FIXED_PUBLIC_PEM,
    expected_remote_inboxes,
    gen_activity,
    gen_actor,
    gen_note,
    gen_status,
    walk_for_nulls,
)
from .test_federation import remote_actor
from .test_httpsig import actor_with_key

NOW = datetime(2024, 1, 1, tzinfo=timezone.utc)
NOW_TS = NOW.timestamp()
LOCAL = "local.test"
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SCENARIO_FILES = [
    "mention_federation.json",
    "follow_forwarding.json",
    "delete_propagation.json",
    "fault_silent200.json",
]


@contextmanager
def report(capsys, number: int, description: str):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[criterion {number:02d}] FAIL: {description}")
        raise
    with capsys.disabled():
        print(f"[criterion {number:02d}] PASS: {description}")


def local_account(store, username: str = "alice") -> Account:
    account = store.upsert_account(
        Account(
            id=None,
            username=username,
            acct=username,
            display_name="",
            actor_uri=f"http://{LOCAL}/users/{username}",
            inbox_uri=f"http://{LOCAL}/users/{username}/inbox",
            public_key_pem=FIXED_PUBLIC_PEM,
            created_at=NOW,
        )
    )
    store.save_keypair(username, FIXED_PRIVATE_PEM, FIXED_PUBLIC_PEM)
    return account


def account_row(store, username: str, domain: str) -> Account:
    root = f"http://{domain}/users/{username}"
    return store.upsert_account(
        Account(
            id=None,
            username=username,
            acct=username if domain == LOCAL else f"{username}@{domain}",
            display_name="",
            actor_uri=root,
            inbox_uri=f"{root}/inbox",
            public_key_pem=FIXED_PUBLIC_PEM,
            created_at=NOW,
        )
    )


def test_criterion_01_serialization_round_trip(capsys):
    with report(
        capsys,
        1,
        "200 generated actors, notes, and activities round-trip with no nulls",
    ):
        rng = random.Random(1001)
        started = time.monotonic()
        for _ in range(200):
            for obj, parse in (
                (gen_actor(rng), validate_actor_document),
                (gen_note(rng), parse_note),
                (gen_activity(rng), parse_activity),
            ):
                text = serialize_object(obj)
                assert parse(text) == obj
                assert walk_for_nulls(json.loads(text)) == []
        assert time.monotonic() - started < 5.0


def test_criterion_02_conversion_fidelity(capsys):
    with report(
        capsys,
        2,
        "200 generated statuses keep content, mentions, tags, visibility "
        "across both conversions",
    ):
        rng = random.Random(1002)
        started = time.monotonic()
        store = MemoryStore()
        alice = local_account(store)
        for _ in range(200):
            status = gen_status(rng, account_id=alice.id)
            note = status_to_note(status, alice)
            lookup = {
                m.actor_uri: Account(
                    id=100,
                    username=m.acct.split("@")[0],
                    acct=m.acct,
                    display_name="",
                    actor_uri=m.actor_uri,
                    inbox_uri=m.actor_uri + "/inbox",
                    public_key_pem="PEM",
                    created_at=NOW,
                )
                for m in status.mentions
            }
            back, warnings = note_to_status(note, alice, lookup.get, NOW)
            assert warnings == []
            assert back.content == status.content
            assert back.visibility == status.visibility
            assert {m.actor_uri for m in back.mentions} == {
                m.actor_uri for m in status.mentions
            }
            assert set(back.tags) == set(status.tags)
            # The dual direction: a Note projected to a Status and back is
            # the same Note.
            assert status_to_note(back, alice) == note
        assert time.monotonic() - started < 5.0


def test_criterion_03_two_instance_mention_federation(capsys):
    with report(
        capsys,
        3,
        "a mention crosses two instances with exactly one inbox POST "
        "and zero outbox GETs",
    ):
        net = VirtualNet(seed=31)
        net.spawn_instance("a.test", ["alice"])
        net.spawn_instance("b.test", ["bob"])
        net.post_status("a.test", "alice", "hello @bob@b.test across the wire")
        net.run_until_quiet()

        b_store = net.node("b.test").store
        alice_row = b_store.get_account_by_uri("http://a.test/users/alice")
        assert alice_row is not None
        stored = b_store.statuses_by_account(alice_row.id)
        assert len(stored) == 1
        assert "across the wire" in stored[0].content
        assert any(
            "across the wire" in item["content"]
            for item in net.home_timeline("b.test", "bob")
        )
        assert len(net.log_entries(method="POST", url_contains="/users/bob/inbox")) == 1
        assert net.outbox_gets() == []


def test_criterion_04_follow_handshake_and_forwarding(capsys):
    with report(
        capsys,
        4,
        "accepted follows get one delivery per public post; a direct post "
        "to someone else produces none",
    ):
        net = VirtualNet(seed=41)
        net.spawn_instance("a.test", ["alice"])
        net.spawn_instance("b.test", ["bob"])
        net.spawn_instance("c.test", ["carol"])
        net.follow("b.test", "bob", "alice@a.test")
        net.run_until_quiet()
        # The handshake completed: asking again reports an accepted follow
        # and enqueues nothing new.
        relationship = net.follow("b.test", "bob", "alice@a.test")
        assert relationship["following"] is True
        assert relationship["requested"] is False
        assert net.pending_total() == 0

        mark = len(net.log)
        net.post_status("a.test", "alice", "public update one")
        net.post_status("a.test", "alice", "public update two")
        net.run_until_quiet()
        deliveries = net.log_entries(
            method="POST", url_contains="/users/bob/inbox", start=mark
        )
        assert len(deliveries) == 2
        bob_home = [item["content"] for item in net.home_timeline("b.test", "bob")]
        assert any("public update one" in text for text in bob_home)
        assert any("public update two" in text for text in bob_home)

        mark = len(net.log)
        net.post_status(
            "a.test", "alice", "@carol@c.test between us", visibility="direct"
        )
        net.run_until_quiet()
        assert (
            net.log_entries(method="POST", url_contains="/users/bob/inbox", start=mark)
            == []
        )
        assert any(
            "between us" in item["content"]
            for item in net.home_timeline("c.test", "carol")
        )


def test_criterion_05_visibility_containment(capsys):
    with report(
        capsys,
        5,
        "500 random audience triples: fan-out matches the oracle and "
        "non-public statuses never reach tag timelines",
    ):
        rng = random.Random(1005)
        for trial in range(500):
            store = MemoryStore()
            engine = FederationEngine(
                Config(domain=LOCAL, test_mode=True), store, lambda: NOW_TS
            )
            alice = local_account(store)

            accepted = []
            for i in range(rng.randint(0, 4)):
                follower = account_row(
                    store, f"f{i}", rng.choice(["b.test", "c.test", LOCAL])
                )
                state = rng.choice(["accepted", "pending"])
                store.upsert_follow(
                    follower.actor_uri,
                    alice.id,
                    state,
                    f"{follower.actor_uri}#follow",
                    NOW_TS,
                )
                if state == "accepted":
                    accepted.append(follower)

            mentioned = []
            for i in range(rng.randint(0, 3)):
                if accepted and rng.random() < 0.2:
                    mentioned.append(rng.choice(accepted))
                else:
                    mentioned.append(
                        account_row(
                            store, f"m{i}", rng.choice(["b.test", "d.test", LOCAL])
                        )
                    )

            visibility = rng.choice(list(Visibility))
            if visibility is Visibility.DIRECT and not mentioned:
                mentioned.append(account_row(store, "m9", "d.test"))

            status = store.store_status(
                Status(
                    id=None,
                    uri=f"http://{LOCAL}/users/alice/statuses/{trial + 1}",
                    content=f"trial {trial}",
                    account_id=alice.id,
                    visibility=visibility,
                    mentions=tuple(
                        {m.actor_uri: Mention(m.acct, m.actor_uri) for m in mentioned}.values()
                    ),
                    tags=tuple({rng.choice(["cats", "dogs", "news"]) for _ in range(rng.randint(0, 2))}),
                    created_at=NOW,
                )
            )

            targets = {t.target_inbox for t in engine.fan_out(status, alice)}
            assert targets == expected_remote_inboxes(visibility, accepted, mentioned)
            if visibility is Visibility.DIRECT:
                assert targets <= {m.inbox_uri for m in mentioned}
            for tag in status.tags:
                listed = any(
                    row.id == status.id for row in store.query_tag_timeline(tag, limit=40)
                )
                assert listed == (visibility is Visibility.PUBLIC)


def test_criterion_06_delete_propagation(capsys):
    with report(
        capsys,
        6,
        "deleting an account sends one Delete per peer and scrubs it "
        "everywhere, with counts matching the pre-delete state",
    ):
        net = VirtualNet(seed=61)
        net.spawn_instance("a.test", ["alice"])
        net.spawn_instance("b.test", ["bob"])
        net.spawn_instance("c.test", ["carol"])
        # Pairwise federation through mentions plus one follow onto bob.
        net.post_status("b.test", "bob", "hi @alice@a.test one")
        net.post_status("b.test", "bob", "hi @carol@c.test two")
        net.post_status("a.test", "alice", "hi @carol@c.test three")
        net.run_until_quiet()
        net.follow("a.test", "alice", "bob@b.test")
        net.run_until_quiet()

        b_store = net.node("b.test").store
        bob_row = b_store.get_local_account("bob")
        bob_uri = bob_row.actor_uri
        expected = {
            "account": 1,
            "statuses": len(b_store.statuses_by_account(bob_row.id)),
            "timeline_entries": len(b_store.query_home_timeline(bob_row.id, limit=40)),
            "follows": len(b_store.followers_of(bob_row.id, state=None))
            + len(b_store.follows_by_follower(bob_uri)),
            "interactions": 0,
            "tokens": 1,
            "deliveries": len(
                [d for d, _ in b_store.list_peers() if d != "b.test"]
            ),
        }
        assert expected["statuses"] == 2
        assert expected["follows"] == 1
        assert expected["deliveries"] == 2

        mark = len(net.log)
        assert net.delete_account("b.test", "bob") == expected
        net.run_until_quiet()

        for inbox in ("/users/alice/inbox", "/users/carol/inbox"):
            assert len(net.log_entries(method="POST", url_contains=inbox, start=mark)) == 1
        assert len(net.log_entries(method="POST", url_contains="/inbox", start=mark)) == 2

        for domain in ("a.test", "c.test", "b.test"):
            assert net.lookup(domain, "bob@b.test").status in (404, 410)
        for domain in ("a.test", "c.test"):
            assert net.node(domain).store.get_account_by_uri(bob_uri) is None
        assert not any(
            "one" in item["content"] for item in net.home_timeline("a.test", "alice")
        )
        assert not any(
            "two" in item["content"] for item in net.home_timeline("c.test", "carol")
        )


def test_criterion_07_signature_security(capsys):
    with report(
        capsys,
        7,
        "50 generated keys verify in a closed loop; tamper, wrong key, "
        "missing signature, and stale dates are each rejected distinctly",
    ):
        url = "https://b.test/users/bob/inbox"
        target = "/users/bob/inbox"
        actor_uri = "https://a.test/users/alice"
        key_id = f"{actor_uri}#main-key"
        rng = random.Random(1007)
        for i in range(50):
            private_pem, public_pem = generate_rsa_keypair(1024)
            body = json.dumps({"n": i, "pad": rng.random()}).encode("utf-8")
            headers = sign_request(
                "POST", url, body, key_id, load_private_key(private_pem), NOW
            )
            fetch = lambda uri, pem=public_pem: actor_with_key(pem)  # noqa: E731
            verified = verify_signature("POST", target, headers, body, fetch, NOW)
            assert verified.public_key.key_id == key_id

        private_pem, public_pem = generate_rsa_keypair(1024)
        _, other_public = generate_rsa_keypair(1024)
        body = b'{"type": "Like"}'
        headers = sign_request(
            "POST", url, body, key_id, load_private_key(private_pem), NOW
        )
        good_fetch = lambda uri: actor_with_key(public_pem)  # noqa: E731

        reasons = set()
        with pytest.raises(DigestMismatch) as excinfo:
            verify_signature("POST", target, headers, body + b"x", good_fetch, NOW)
        reasons.add(excinfo.value.reason)

        with pytest.raises(BadSignature) as excinfo:
            verify_signature(
                "POST",
                target,
                headers,
                body,
                lambda uri: actor_with_key(other_public),
                NOW,
            )
        reasons.add(excinfo.value.reason)

        naked = {k: v for k, v in headers.items() if k.lower() != "signature"}
        with pytest.raises(NoSignature) as excinfo:
            verify_signature("POST", target, naked, body, good_fetch, NOW)
        reasons.add(excinfo.value.reason)

        for skew in (timedelta(seconds=301), timedelta(seconds=-301)):
            with pytest.raises(StaleDate) as excinfo:
                verify_signature("POST", target, headers, body, good_fetch, NOW + skew)
            reasons.add(excinfo.value.reason)

        assert reasons == {"DigestMismatch", "BadSignature", "NoSignature", "StaleDate"}


def _replay_world():
    store = MemoryStore()
    engine = FederationEngine(
        Config(domain=LOCAL, test_mode=True), store, lambda: NOW_TS
    )
    alice = local_account(store)
    liked = store.store_status(
        Status(
            id=None,
            uri=f"http://{LOCAL}/users/alice/statuses/1",
            content="something likeable",
            account_id=alice.id,
            visibility=Visibility.PUBLIC,
            mentions=(),
            tags=(),
            created_at=NOW,
        )
    )
    return engine, store, alice, liked


def test_criterion_08_idempotent_replay(capsys):
    with report(
        capsys,
        8,
        "a duplicated inbox stream leaves storage byte-identical to "
        "single processing",
    ):
        bob = remote_actor("bob", "b.test")
        carol = remote_actor("carol", "c.test")
        alice_uri = f"http://{LOCAL}/users/alice"

        note = Note(
            id="http://b.test/users/bob/statuses/1",
            content="first wave",
            attributed_to=bob.id,
            to=(PUBLIC_COLLECTION,),
            cc=(alice_uri,),
            tag_entries=(TagEntry(TagKind.MENTION, "@alice", alice_uri),),
            published=NOW,
        )
        stream = [
            (Activity(f"{note.id}/activity", ActivityKind.CREATE, bob.id, note,
                      to=note.to, cc=note.cc, published=NOW), bob),
            (Activity("http://c.test/users/carol#follows/1", ActivityKind.FOLLOW,
                      carol.id, alice_uri), carol),
            (Activity("http://b.test/users/bob#likes/1", ActivityKind.LIKE,
                      bob.id, f"http://{LOCAL}/users/alice/statuses/1"), bob),
            (Activity("http://c.test/users/carol/statuses/9/activity",
                      ActivityKind.CREATE, carol.id,
                      Note(id="http://c.test/users/carol/statuses/9",
                           content="just for alice",
                           attributed_to=carol.id,
                           to=(alice_uri,),
                           tag_entries=(TagEntry(TagKind.MENTION, "@alice", alice_uri),),
                           published=NOW), published=NOW), carol),
            (Activity("http://b.test/users/bob#undo/1", ActivityKind.UNDO,
                      bob.id, "http://b.test/users/bob#likes/1"), bob),
        ]

        single_engine, single_store, _, _ = _replay_world()
        for activity, sender in stream:
            single_engine.handle_inbox(activity, sender)

        double_engine, double_store, _, _ = _replay_world()
        for activity, sender in stream:
            double_engine.handle_inbox(activity, sender)
            double_engine.handle_inbox(activity, sender)

        assert single_store.snapshot() == double_store.snapshot()


def _run_suite(seed: int, backend: str = "memory", root: Path | None = None) -> list[bytes]:
    logs = []
    for index, name in enumerate(SCENARIO_FILES):
        if backend == "file":
            net = VirtualNet(
                seed=seed, backend="file", storage_root=str(root / f"run{index}")
            )
        else:
            net = VirtualNet(seed=seed)
        ScenarioRunner(net).run_file(SCENARIO_DIR / name)
        for domain in sorted(net.instances):
            for task in net.instances[domain].store.all_tasks():
                if task.terminal:
                    assert task.result, f"terminal task without reason on {domain}"
        logs.append(net.log_json())
    return logs


def test_criterion_09_silent_failure_resilience(capsys):
    with report(
        capsys,
        9,
        "fault scenarios finish with reasons recorded and replay "
        "byte-identically per seed",
    ):
        started = time.monotonic()
        first = _run_suite(91)
        second = _run_suite(91)
        assert first == second
        assert time.monotonic() - started < 60.0


def test_criterion_10_backend_equivalence(capsys, tmp_path):
    with report(
        capsys,
        10,
        "scenario suite is identical on memory and file backends; file "
        "backend survives a kill/restart",
    ):
        memory_logs = _run_suite(101)
        file_logs = _run_suite(101, backend="file", root=tmp_path / "suite")
        assert memory_logs == file_logs

        net = VirtualNet(seed=102, backend="file", storage_root=str(tmp_path / "kr"))
        net.spawn_instance("a.test", ["alice"])
        net.spawn_instance("b.test", ["bob"])
        net.follow("b.test", "bob", "alice@a.test")
        net.run_until_quiet()
        net.post_status("a.test", "alice", "committed before the crash")
        net.run_until_quiet()
        net.kill_instance("b.test")
        net.respawn_instance("b.test")
        net.post_status("a.test", "alice", "committed after the restart")
        net.run_until_quiet()
        bob_home = [item["content"] for item in net.home_timeline("b.test", "bob")]
        assert any("before the crash" in text for text in bob_home)
        assert any("after the restart" in text for text in bob_home)
