import json
import random
from dataclasses import replace
from datetime import datetime, timezone

import pytest

from mothfed import federation
from mothfed.activitypub import (
    PUBLIC_COLLECTION,
    Activity,
    ActivityKind,
    Actor,
    ActorKind,
    Note,
    PublicKeySpec,
    TagEntry,
    TagKind,
    serialize_object,
)
from mothfed.config import Config
from mothfed.errors import ActorMismatch, TombstonedActor, TransportError
from mothfed.federation import MAX_ATTEMPTS, FederationEngine, username_from_key_id
from mothfed.httpsig import generate_rsa_keypair, load_private_key
from mothfed.mastodon import Account, Mention, Status, Visibility
from mothfed.storage import FileStore, MemoryStore
from mothfed.transport import HttpResponse

from .support import (
    FIXED_PUBLIC_PEM,
    expected_remote_inboxes,
    gen_status,
    independent_verify,
    interactions_on,
    may_view,
)

LOCAL = "local.test"
NOW = datetime(2024, 1, 1, tzinfo=timezone.utc)

# One real keypair shared by every signing identity in this module; the
# engine only needs it to exist, signature bytes are not asserted here.
PRIVATE_PEM, PUBLIC_PEM = generate_rsa_keypair(1024)


class Ticker:
    def __init__(self, t=NOW.timestamp()):
        self.t = t

    def __call__(self):
        return self.t


def add_local_alice(store):
    alice = store.upsert_account(
        Account(
            id=None,
            username="alice",
            acct="alice",
            display_name="",
            actor_uri=f"http://{LOCAL}/users/alice",
            inbox_uri=f"http://{LOCAL}/users/alice/inbox",
            public_key_pem=PUBLIC_PEM,
            created_at=NOW,
        )
    )
    store.save_keypair("alice", PRIVATE_PEM, PUBLIC_PEM)
    return alice


@pytest.fixture
def world():
    store = MemoryStore()
    clock = Ticker()
    engine = FederationEngine(Config(domain=LOCAL, test_mode=True), store, clock)
    return engine, store, clock, add_local_alice(store)


def remote_actor(username="bob", domain="b.test"):
    root = f"http://{domain}/users/{username}"
    return Actor(
        id=root,
        kind=ActorKind.PERSON,
        preferred_username=username,
        inbox=f"{root}/inbox",
        public_key=PublicKeySpec(f"{root}#main-key", root, FIXED_PUBLIC_PEM),
    )


def remote_account(store, username="bob", domain="b.test"):
    root = f"http://{domain}/users/{username}"
    return store.upsert_account(
        Account(
            id=None,
            username=username,
            acct=f"{username}@{domain}",
            display_name="",
            actor_uri=root,
            inbox_uri=f"{root}/inbox",
            public_key_pem=FIXED_PUBLIC_PEM,
            created_at=NOW,
        )
    )


def note_from(actor, n=1, to=(PUBLIC_COLLECTION,), cc=(), tag_entries=()):
    return Note(
        id=f"{actor.id}/statuses/{n}",
        content=f"note {n}",
        attributed_to=actor.id,
        to=to,
        cc=cc,
        tag_entries=tuple(tag_entries),
        published=NOW,
    )


def create_activity(actor, note, activity_id=None):
    return Activity(
        id=activity_id or f"{note.id}/activity",
        kind=ActivityKind.CREATE,
        actor=actor.id,
        object=note,
        to=note.to,
        cc=note.cc,
        published=NOW,
    )


# --- dispatch basics -----------------------------------------------------------


def test_actor_mismatch_is_rejected_before_anything_else(world):
    engine, store, _, _ = world
    bob = remote_actor()
    mallory = remote_actor("mallory", "evil.test")
    activity = create_activity(bob, note_from(bob))
    with pytest.raises(ActorMismatch):
        engine.handle_inbox(activity, mallory)
    assert store.get_account_by_uri(bob.id) is None  # nothing was written


def test_a_replayed_activity_id_is_not_applied_again(world):
    engine, store, _, _ = world
    bob = remote_actor()
    activity = create_activity(bob, note_from(bob))
    assert engine.handle_inbox(activity, bob) == []
    assert engine.handle_inbox(activity, bob) == []
    assert len(store.statuses_by_account(store.get_account_by_uri(bob.id).id)) == 1


def test_tombstoned_sender_is_refused(world):
    engine, store, _, _ = world
    bob = remote_actor()
    store.add_tombstone(bob.id)
    with pytest.raises(TombstonedActor):
        engine.handle_inbox(create_activity(bob, note_from(bob)), bob)


def test_inbox_records_the_sender_as_peer_and_account(world):
    engine, store, _, _ = world
    bob = remote_actor()
    engine.handle_inbox(create_activity(bob, note_from(bob)), bob)
    assert ("b.test", bob.inbox) in store.list_peers()
    sender = store.get_account_by_uri(bob.id)
    assert sender is not None and sender.acct == "bob@b.test"


# --- Create ---------------------------------------------------------------------


def test_create_stores_status_and_fans_in_locally(world):
    engine, store, _, alice = world
    bob = remote_actor()
    bob_account = remote_account(store)
    store.upsert_follow(alice.actor_uri, bob_account.id, "accepted", "http://x/f1", 0.0)
    note = note_from(bob, to=(PUBLIC_COLLECTION,))
    assert engine.handle_inbox(create_activity(bob, note), bob) == []
    assert store.get_status_by_uri(note.id) is not None
    timeline = store.query_home_timeline(alice.id)
    assert [s.uri for s in timeline] == [note.id]
    # A remote author's own home timeline is not kept here.
    assert store.query_home_timeline(bob_account.id) == []


def test_an_inbound_create_writes_its_rows_and_enqueues_nothing(world):
    engine, store, _, alice = world
    bob = remote_actor()
    bob_account = remote_account(store)
    carol = remote_account(store, "carol", "c.test")
    # A local follower, a remote follower and a remote mention: delivering
    # is the author's own server's job, so none of them gets a task here.
    store.upsert_follow(alice.actor_uri, bob_account.id, "accepted", "http://x/f1", 0.0)
    store.upsert_follow(carol.actor_uri, bob_account.id, "accepted", "http://x/f2", 0.0)
    mention = TagEntry(TagKind.MENTION, "@carol@c.test", carol.actor_uri)
    note = note_from(bob, tag_entries=(mention,))
    assert engine.handle_inbox(create_activity(bob, note), bob) == []
    assert [s.uri for s in store.query_home_timeline(alice.id)] == [note.id]
    assert store.all_tasks() == []


def test_create_for_mentioned_local_is_visible_regardless_of_follow(world):
    engine, store, _, alice = world
    bob = remote_actor()
    note = Note(
        id=f"{bob.id}/statuses/7",
        content="psst",
        attributed_to=bob.id,
        to=(alice.actor_uri,),
        tag_entries=(
            TagEntry(TagKind.MENTION, "@alice@local.test", alice.actor_uri),
        ),
        published=NOW,
    )
    assert engine.handle_inbox(create_activity(bob, note), bob) == []
    assert [s.uri for s in store.query_home_timeline(alice.id)] == [note.id]


def test_create_without_embedded_note_warns(world):
    engine, store, _, _ = world
    bob = remote_actor()
    activity = Activity(
        id="http://b.test/act/1",
        kind=ActivityKind.CREATE,
        actor=bob.id,
        object="http://b.test/statuses/1",  # URI only, nothing to store
    )
    assert engine.handle_inbox(activity, bob) == ["Create without an embedded Note ignored"]
    assert store.get_status_by_uri("http://b.test/statuses/1") is None


def test_create_attributed_to_someone_else_warns(world):
    engine, store, _, _ = world
    bob = remote_actor()
    carol = remote_actor("carol", "c.test")
    stolen = note_from(carol)
    warnings = engine.handle_inbox(create_activity(bob, stolen, "http://b.test/act/2"), bob)
    assert warnings == ["Create for a Note attributed to someone else ignored"]
    assert store.get_status_by_uri(stolen.id) is None


def test_create_duplicate_uri_warns_instead_of_crashing(world):
    engine, store, _, _ = world
    bob = remote_actor()
    note = note_from(bob)
    engine.handle_inbox(create_activity(bob, note, "http://b.test/act/a"), bob)
    warnings = engine.handle_inbox(create_activity(bob, note, "http://b.test/act/b"), bob)
    assert warnings == [f"status {note.id} already stored"]
    assert len(store.statuses_by_account(store.get_account_by_uri(bob.id).id)) == 1


# --- Follow / Accept ----------------------------------------------------------------


def follow_activity(follower, target_uri, activity_id="http://b.test/follows/1"):
    return Activity(
        id=activity_id,
        kind=ActivityKind.FOLLOW,
        actor=follower.id,
        object=target_uri,
    )


def test_follow_is_accepted_and_acknowledged(world):
    engine, store, _, alice = world
    bob = remote_actor()
    assert engine.handle_inbox(follow_activity(bob, alice.actor_uri), bob) == []
    relation = store.get_follow(bob.id, alice.id)
    assert relation.state == "accepted"
    assert relation.follow_activity_id == "http://b.test/follows/1"

    tasks = store.all_tasks()
    assert len(tasks) == 1
    assert tasks[0].target_inbox == bob.inbox
    body = json.loads(tasks[0].activity_body)
    assert body["type"] == "Accept"
    assert body["actor"] == alice.actor_uri
    assert body["object"] == "http://b.test/follows/1"
    assert body["id"] == f"{alice.actor_uri}#accepts/follows/{relation.id}"


def test_an_inbound_follow_writes_its_follow_row_once(tmp_path, monkeypatch):
    store = FileStore(tmp_path / "store")
    engine = FederationEngine(Config(domain=LOCAL, test_mode=True), store, Ticker())
    alice = add_local_alice(store)
    bob = remote_actor()
    written = []
    write = store._write

    def counted(collection, key, value):
        written.append(collection)
        write(collection, key, value)

    monkeypatch.setattr(store, "_write", counted)
    assert engine.handle_inbox(follow_activity(bob, alice.actor_uri), bob) == []
    assert written.count("follows") == 1
    assert store.get_follow(bob.id, alice.id).state == "accepted"
    store.close()


def test_follow_without_id_cannot_be_acknowledged(world):
    engine, store, _, alice = world
    bob = remote_actor()
    activity = Activity(id=None, kind=ActivityKind.FOLLOW, actor=bob.id, object=alice.actor_uri)
    assert engine.handle_inbox(activity, bob) == ["Follow without an id cannot be acknowledged"]
    assert store.get_follow(bob.id, alice.id) is None
    assert store.all_tasks() == []


def test_follow_of_unknown_or_remote_target_warns(world):
    engine, store, _, _ = world
    bob = remote_actor()
    carol = remote_account(store, "carol", "c.test")
    for target in ("http://local.test/users/ghost", carol.actor_uri):
        warnings = engine.handle_inbox(
            follow_activity(bob, target, f"http://b.test/follows/{target[-5:]}"), bob
        )
        assert warnings == [f"Follow target {target} is not a local account"]
    assert store.get_follow(bob.id, carol.id) is None
    assert store.all_tasks() == []


def test_accept_marks_our_outbound_follow_accepted(world):
    engine, store, _, alice = world
    bob_account = remote_account(store)
    bob = remote_actor()
    rel = store.upsert_follow(
        alice.actor_uri, bob_account.id, "pending", "http://local.test/follows/9", 0.0
    )
    accept = Activity(
        id="http://b.test/act/acc1",
        kind=ActivityKind.ACCEPT,
        actor=bob.id,
        object="http://local.test/follows/9",
    )
    assert engine.handle_inbox(accept, bob) == []
    accepted = store.get_follow(alice.actor_uri, bob_account.id)
    assert (accepted.id, accepted.state) == (rel.id, "accepted")


def test_accept_from_the_wrong_actor_is_ignored(world):
    engine, store, _, alice = world
    bob_account = remote_account(store)
    mallory = remote_actor("mallory", "evil.test")
    store.upsert_follow(
        alice.actor_uri, bob_account.id, "pending", "http://local.test/follows/9", 0.0
    )
    accept = Activity(
        id="http://evil.test/act/1",
        kind=ActivityKind.ACCEPT,
        actor=mallory.id,
        object="http://local.test/follows/9",
    )
    warnings = engine.handle_inbox(accept, mallory)
    assert warnings == ["Accept from an actor who is not the followee ignored"]
    assert store.get_follow(alice.actor_uri, bob_account.id).state == "pending"


def test_accept_for_unknown_follow_warns(world):
    engine, _, _, _ = world
    bob = remote_actor()
    accept = Activity(
        id="http://b.test/act/acc2",
        kind=ActivityKind.ACCEPT,
        actor=bob.id,
        object="http://local.test/follows/nope",
    )
    assert engine.handle_inbox(accept, bob) == [
        "Accept references unknown object http://local.test/follows/nope"
    ]


# --- Like / Announce / Undo ------------------------------------------------------------


def like_activity(actor, object_uri, activity_id="http://b.test/act/like1"):
    return Activity(
        id=activity_id, kind=ActivityKind.LIKE, actor=actor.id, object=object_uri
    )


def test_like_records_an_interaction_once(world):
    engine, store, _, alice = world
    bob = remote_actor()
    target = f"{alice.actor_uri}/statuses/1"
    assert engine.handle_inbox(like_activity(bob, target), bob) == []
    assert [(i["kind"], i["actor_uri"]) for i in interactions_on(store, target)] == [
        ("Like", bob.id)
    ]
    again = engine.handle_inbox(like_activity(bob, target, "http://b.test/act/like2"), bob)
    assert again == [f"Like already recorded for {target}"]
    assert len(interactions_on(store, target)) == 1


def test_undo_like_by_its_author_removes_it(world):
    engine, store, _, alice = world
    bob = remote_actor()
    target = f"{alice.actor_uri}/statuses/1"
    engine.handle_inbox(like_activity(bob, target), bob)
    undo = Activity(
        id="http://b.test/act/undo1",
        kind=ActivityKind.UNDO,
        actor=bob.id,
        object="http://b.test/act/like1",
    )
    assert engine.handle_inbox(undo, bob) == []
    assert interactions_on(store, target) == []


def test_undo_by_someone_else_restores_the_interaction(world):
    engine, store, _, alice = world
    bob = remote_actor()
    mallory = remote_actor("mallory", "evil.test")
    target = f"{alice.actor_uri}/statuses/1"
    engine.handle_inbox(like_activity(bob, target), bob)
    undo = Activity(
        id="http://evil.test/act/undo1",
        kind=ActivityKind.UNDO,
        actor=mallory.id,
        object="http://b.test/act/like1",
    )
    assert engine.handle_inbox(undo, mallory) == ["Undo from a different actor ignored"]
    assert len(interactions_on(store, target)) == 1


def test_a_refused_undo_writes_nothing(tmp_path):
    store = FileStore(tmp_path / "store")
    engine = FederationEngine(Config(domain=LOCAL, test_mode=True), store, Ticker())
    bob = remote_actor()
    mallory = remote_actor("mallory", "evil.test")
    target = f"http://{LOCAL}/users/alice/statuses/1"
    engine.handle_inbox(like_activity(bob, target), bob)
    undo = Activity(
        id="http://evil.test/act/undo1",
        kind=ActivityKind.UNDO,
        actor=mallory.id,
        object="http://b.test/act/like1",
    )
    # Stores mallory's account and peer rows, and the seen id.
    assert engine.handle_inbox(undo, mallory) == ["Undo from a different actor ignored"]
    statements = []
    store._db.set_trace_callback(statements.append)
    try:
        # Without an id nothing is recorded seen, so only the Undo could write.
        warnings = engine.handle_inbox(replace(undo, id=None), mallory)
    finally:
        store._db.set_trace_callback(None)
    assert warnings == ["Undo from a different actor ignored"]
    assert statements == []
    assert len(interactions_on(store, target)) == 1
    store.close()


def test_undo_follow_removes_the_relation(world):
    engine, store, _, alice = world
    bob = remote_actor()
    engine.handle_inbox(follow_activity(bob, alice.actor_uri), bob)
    undo = Activity(
        id="http://b.test/act/undo2",
        kind=ActivityKind.UNDO,
        actor=bob.id,
        object="http://b.test/follows/1",
    )
    assert store.get_follow(bob.id, alice.id) is not None
    assert engine.handle_inbox(undo, bob) == []
    assert store.get_follow(bob.id, alice.id) is None


def test_undo_of_unknown_object_warns(world):
    engine, _, _, _ = world
    bob = remote_actor()
    undo = Activity(
        id="http://b.test/act/undo3",
        kind=ActivityKind.UNDO,
        actor=bob.id,
        object="http://b.test/act/never-seen",
    )
    assert engine.handle_inbox(undo, bob) == [
        "Undo references unknown object http://b.test/act/never-seen"
    ]


# --- Delete -----------------------------------------------------------------------------


def test_delete_of_self_wipes_the_senders_data(world):
    engine, store, _, alice = world
    bob = remote_actor()
    note = note_from(bob)
    engine.handle_inbox(create_activity(bob, note), bob)
    delete = Activity(
        id=f"{bob.id}#delete",
        kind=ActivityKind.DELETE,
        actor=bob.id,
        object=bob.id,
    )
    assert engine.handle_inbox(delete, bob) == []
    assert store.get_account_by_uri(bob.id) is None
    assert store.get_status_by_uri(note.id) is None
    assert store.is_tombstoned(bob.id)
    # Once deleted, the same sender is refused outright.
    with pytest.raises(TombstonedActor):
        engine.handle_inbox(create_activity(bob, note_from(bob, 2)), bob)


def test_delete_of_someone_else_is_ignored(world):
    engine, store, _, alice = world
    bob = remote_actor()
    carol = remote_account(store, "carol", "c.test")
    delete = Activity(
        id=f"{bob.id}#delete-carol",
        kind=ActivityKind.DELETE,
        actor=bob.id,
        object=carol.actor_uri,
    )
    assert engine.handle_inbox(delete, bob) == [
        f"Delete for {carol.actor_uri} from {bob.id} ignored"
    ]
    assert store.get_account_by_uri(carol.actor_uri) is not None
    assert not store.is_tombstoned(carol.actor_uri)


def test_delete_from_unknown_actor_still_tombstones(world):
    engine, store, _, _ = world
    ghost = remote_actor("ghost", "g.test")
    delete = Activity(
        id=f"{ghost.id}#delete", kind=ActivityKind.DELETE, actor=ghost.id, object=ghost.id
    )
    assert engine.handle_inbox(delete, ghost) == []
    assert store.get_account_by_uri(ghost.id) is None
    assert store.is_tombstoned(ghost.id)


# --- fan-out ---------------------------------------------------------------------------


def local_status(author, n, visibility=Visibility.PUBLIC, mentions=()):
    return Status(
        id=n,
        uri=f"{author.actor_uri}/statuses/{n}",
        content=f"status {n}",
        account_id=author.id,
        visibility=visibility,
        mentions=tuple(mentions),
        tags=(),
        created_at=NOW,
    )


def test_fan_out_targets_remote_followers_once_each(world):
    engine, store, _, alice = world
    bob = remote_account(store, "bob", "b.test")
    carol = remote_account(store, "carol", "c.test")
    for follower in (bob, carol):
        store.upsert_follow(
            follower.actor_uri, alice.id, "accepted", f"http://x/{follower.username}", 0.0
        )
    tasks = engine.fan_out(local_status(alice, 1), alice)
    assert sorted(t.target_inbox for t in tasks) == sorted(
        [bob.inbox_uri, carol.inbox_uri]
    )
    body = json.loads(tasks[0].activity_body)
    assert body["type"] == "Create"
    assert body["id"] == f"{alice.actor_uri}/statuses/1/activity"
    assert body["object"]["attributedTo"] == alice.actor_uri


def test_fan_out_direct_goes_only_to_mentioned_inboxes(world):
    engine, store, _, alice = world
    bob = remote_account(store, "bob", "b.test")
    carol = remote_account(store, "carol", "c.test")
    store.upsert_follow(carol.actor_uri, alice.id, "accepted", "http://x/c", 0.0)
    status = local_status(
        alice, 2, visibility=Visibility.DIRECT,
        mentions=[Mention(bob.acct, bob.actor_uri)],
    )
    tasks = engine.fan_out(status, alice)
    assert [t.target_inbox for t in tasks] == [bob.inbox_uri]


def test_fan_out_pending_followers_are_not_targets(world):
    engine, store, _, alice = world
    bob = remote_account(store, "bob", "b.test")
    store.upsert_follow(bob.actor_uri, alice.id, "pending", "http://x/b", 0.0)
    assert engine.fan_out(local_status(alice, 3), alice) == []


def test_fan_out_never_targets_local_inboxes(world):
    engine, store, _, alice = world
    dave = store.upsert_account(
        Account(
            id=None, username="dave", acct="dave", display_name="",
            actor_uri=f"http://{LOCAL}/users/dave",
            inbox_uri=f"http://{LOCAL}/users/dave/inbox",
            public_key_pem=PUBLIC_PEM, created_at=NOW,
        )
    )
    store.upsert_follow(dave.actor_uri, alice.id, "accepted", "http://x/d", 0.0)
    status = local_status(
        alice, 4, visibility=Visibility.PUBLIC,
        mentions=[Mention("dave", dave.actor_uri)],
    )
    assert engine.fan_out(status, alice) == []


def test_fan_out_dedupes_follower_who_is_also_mentioned(world):
    engine, store, _, alice = world
    bob = remote_account(store, "bob", "b.test")
    store.upsert_follow(bob.actor_uri, alice.id, "accepted", "http://x/b", 0.0)
    status = local_status(alice, 5, mentions=[Mention(bob.acct, bob.actor_uri)])
    tasks = engine.fan_out(status, alice)
    assert [t.target_inbox for t in tasks] == [bob.inbox_uri]


def test_fan_out_matches_the_audience_oracle(world, monkeypatch):
    engine, store, _, alice = world
    owner_ids = []
    insert = store.insert_timeline_entry

    def recording(owner_id, status_id, now):
        owner_ids.append(owner_id)
        return insert(owner_id, status_id, now)

    monkeypatch.setattr(store, "insert_timeline_entry", recording)
    rng = random.Random(77)
    pool = [
        remote_account(store, f"user{i}", f"host{i // 3}.test") for i in range(9)
    ]
    dave = store.upsert_account(
        Account(
            id=None, username="dave", acct="dave", display_name="",
            actor_uri=f"http://{LOCAL}/users/dave",
            inbox_uri=f"http://{LOCAL}/users/dave/inbox",
            public_key_pem=PUBLIC_PEM, created_at=NOW,
        )
    )
    erin = store.upsert_account(
        replace(
            dave, id=None, username="erin", acct="erin",
            actor_uri=f"http://{LOCAL}/users/erin",
            inbox_uri=f"http://{LOCAL}/users/erin/inbox",
        )
    )
    locals_ = [alice, dave, erin]
    candidates = pool + [dave, erin]
    for trial in range(60):
        followers = [a for a in candidates if rng.random() < 0.5]
        mentioned = [a for a in candidates if rng.random() < 0.3]
        for a in candidates:
            rel = store.get_follow(a.actor_uri, alice.id)
            if rel is not None:
                store.remove_follow(rel.id)
        for a in followers:
            store.upsert_follow(a.actor_uri, alice.id, "accepted", f"http://x/{trial}/{a.id}", 0.0)
        visibility = rng.choice(list(Visibility))
        status = local_status(
            alice, 1000 + trial, visibility=visibility,
            mentions=[Mention(a.acct, a.actor_uri) for a in mentioned],
        )
        # One call writes both halves: the remote inboxes' tasks, and a
        # timeline row for each local account that may view it.
        owner_ids.clear()
        tasks = engine.fan_out(status, alice)
        got = {t.target_inbox for t in tasks}
        want = expected_remote_inboxes(visibility, followers, mentioned)
        assert got == want, (trial, visibility)
        owners = {store.get_account(i).acct for i in owner_ids}
        follows = {(a.actor_uri, alice.id) for a in followers}
        viewers = {a.acct for a in locals_ if may_view(a, status, alice, follows)}
        assert owners == viewers, (trial, visibility)


def test_fan_out_serializes_the_activity_once_for_all_inboxes(world, monkeypatch):
    engine, store, _, alice = world
    for i in range(16):
        follower = remote_account(store, f"user{i}", f"host{i // 4}.test")
        store.upsert_follow(follower.actor_uri, alice.id, "accepted", f"http://x/{i}", 0.0)
    serialized = []

    def counting(obj):
        serialized.append(obj)
        return serialize_object(obj)

    monkeypatch.setattr(federation, "serialize_object", counting)
    tasks = engine.fan_out(local_status(alice, 1), alice)
    assert len(tasks) == 16 and len(serialized) == 1
    assert all(t.activity_body is tasks[0].activity_body for t in tasks)

    # The Delete to the four peers fan-out recorded is serialized once too.
    deletes = engine.propagate_delete(alice)
    assert len(deletes) == 4 and len(serialized) == 2
    assert all(t.activity_body is deletes[0].activity_body for t in deletes)


def test_fan_out_writes_a_peer_row_once_per_new_domain(world, monkeypatch):
    engine, store, _, alice = world
    followers = [remote_account(store, f"user{i}", "b.test") for i in range(4)]
    for i, follower in enumerate(followers):
        store.upsert_follow(follower.actor_uri, alice.id, "accepted", f"http://x/{i}", 0.0)
    writes = []
    monkeypatch.setattr(store, "_write", lambda collection, key, value: writes.append(collection))
    for n in range(3):
        assert len(engine.fan_out(local_status(alice, n), alice)) == 4
    assert writes.count("peers") == 1
    # The first follower's inbox is the hint a Delete goes to.
    assert store.list_peers() == [("b.test", followers[0].inbox_uri)]
    assert [t.target_inbox for t in engine.propagate_delete(alice)] == [followers[0].inbox_uri]


# --- propagate_delete ----------------------------------------------------------------------


def test_propagate_delete_sends_one_delete_per_peer(world):
    engine, store, _, alice = world
    store.record_peer("b.test", "http://b.test/users/bob/inbox")
    store.record_peer("c.test", "http://c.test/users/carol/inbox")
    engine.note_peer(f"http://{LOCAL}/users/dave/inbox")  # the local domain is no peer
    assert [domain for domain, _ in store.list_peers()] == ["b.test", "c.test"]
    tasks = engine.propagate_delete(alice)
    assert [t.target_inbox for t in tasks] == [
        "http://b.test/users/bob/inbox",
        "http://c.test/users/carol/inbox",
    ]
    body = json.loads(tasks[0].activity_body)
    assert body["type"] == "Delete"
    assert body["actor"] == alice.actor_uri
    assert body["object"] == alice.actor_uri
    assert body["to"] == [PUBLIC_COLLECTION]


# --- delivery queue ---------------------------------------------------------------------------


class ScriptedInboxes:
    """Transport whose behavior is scripted per target inbox."""

    def __init__(self):
        self.scripts = {}
        self.requests = []

    def set(self, inbox, outcomes):
        self.scripts[inbox] = list(outcomes)

    def request(self, request):
        self.requests.append(request)
        outcomes = self.scripts.get(request.url)
        outcome = outcomes.pop(0) if outcomes else 202
        if isinstance(outcome, Exception):
            raise outcome
        return HttpResponse(status=outcome, headers={}, body=b"")


def enqueue_like(engine, signer, inboxes, n=1):
    activity = Activity(
        id=f"{signer.actor_uri}#act/{n}",
        kind=ActivityKind.LIKE,
        actor=signer.actor_uri,
        object="http://b.test/statuses/1",
    )
    return engine.enqueue(activity, signer=signer, inboxes=inboxes)


def enqueue_one(engine, store, alice, inbox="http://b.test/users/bob/inbox"):
    (task,) = enqueue_like(engine, alice, [inbox])
    return task


def test_process_queue_delivers_and_signs(world):
    engine, store, clock, alice = world
    enqueue_one(engine, store, alice)
    transport = ScriptedInboxes()
    report = engine.process_queue(clock(), transport)
    assert (report.attempted, report.delivered, report.retried, report.failed) == (1, 1, 0, 0)
    task = store.all_tasks()[0]
    assert task.terminal and task.result == "delivered: 202"
    assert task.attempts == 0  # success on the first try does not bump attempts
    request = transport.requests[0]
    assert request.method == "POST"
    assert "Signature" in request.headers
    assert request.headers["Content-Type"] == "application/activity+json"


def test_process_queue_4xx_is_terminal_failure(world):
    engine, store, clock, alice = world
    enqueue_one(engine, store, alice)
    transport = ScriptedInboxes()
    transport.set("http://b.test/users/bob/inbox", [403])
    report = engine.process_queue(clock(), transport)
    assert report.failed == 1
    task = store.all_tasks()[0]
    assert task.terminal and task.result == "failed: rejected with 403"
    assert store.pending_count() == 0


@pytest.mark.parametrize("outcome", [429, 500, 503, TransportError("refused")])
def test_process_queue_transient_outcomes_back_off(world, outcome):
    engine, store, clock, alice = world
    enqueue_one(engine, store, alice)
    transport = ScriptedInboxes()
    transport.set("http://b.test/users/bob/inbox", [outcome])
    report = engine.process_queue(clock(), transport)
    assert report.retried == 1
    task = store.all_tasks()[0]
    assert not task.terminal
    assert task.attempts == 1
    # First retry waits base * 2^1 with the post-increment attempt count.
    assert task.next_attempt_at == clock() + 20.0


def test_retry_backoff_doubles_and_eventually_succeeds(world):
    engine, store, clock, alice = world
    enqueue_one(engine, store, alice)
    transport = ScriptedInboxes()
    transport.set(
        "http://b.test/users/bob/inbox",
        [TransportError("down"), TransportError("still down"), 202],
    )
    t0 = clock.t
    engine.process_queue(clock(), transport)
    assert store.all_tasks()[0].next_attempt_at == t0 + 20.0

    clock.t = t0 + 20.0
    engine.process_queue(clock(), transport)
    task = store.all_tasks()[0]
    assert task.attempts == 2
    assert task.next_attempt_at == clock.t + 40.0

    clock.t = task.next_attempt_at
    report = engine.process_queue(clock(), transport)
    assert report.delivered == 1
    final = store.all_tasks()[0]
    assert final.terminal and final.result == "delivered: 202"
    assert final.attempts == 2


def test_tasks_are_not_attempted_before_their_time(world):
    engine, store, clock, alice = world
    enqueue_one(engine, store, alice)
    transport = ScriptedInboxes()
    transport.set("http://b.test/users/bob/inbox", [TransportError("down")])
    engine.process_queue(clock(), transport)
    sent_so_far = len(transport.requests)
    report = engine.process_queue(clock() + 1.0, transport)  # before +20s
    assert report.attempted == 0
    assert len(transport.requests) == sent_so_far


def test_exhausted_retries_become_a_terminal_failure_with_reason(world):
    engine, store, clock, alice = world
    enqueue_one(engine, store, alice)
    transport = ScriptedInboxes()
    transport.set(
        "http://b.test/users/bob/inbox",
        [TransportError("down")] * MAX_ATTEMPTS,
    )
    for _ in range(MAX_ATTEMPTS):
        pending = store.next_pending_time()
        if pending is None:
            break
        clock.t = max(clock.t, pending)
        engine.process_queue(clock(), transport)
    task = store.all_tasks()[0]
    assert task.terminal
    assert task.attempts == MAX_ATTEMPTS
    assert task.result == (
        f"failed: network error: down after {MAX_ATTEMPTS} attempts"
    )


def test_each_attempt_is_signed_fresh(world):
    engine, store, clock, alice = world
    enqueue_one(engine, store, alice)
    transport = ScriptedInboxes()
    transport.set("http://b.test/users/bob/inbox", [500, 202])
    engine.process_queue(clock(), transport)
    clock.t += 20.0
    engine.process_queue(clock(), transport)
    dates = [r.headers["Date"] for r in transport.requests]
    signatures = [r.headers["Signature"] for r in transport.requests]
    assert len(dates) == 2 and dates[0] != dates[1]
    assert signatures[0] != signatures[1]


def test_missing_signing_key_is_a_terminal_failure(world):
    engine, store, clock, alice = world
    task = store.enqueue_task(
        "{}", "http://b.test/inbox", "http://local.test/users/ghost#main-key", clock()
    )
    transport = ScriptedInboxes()
    report = engine.process_queue(clock(), transport)
    assert report.failed == 1
    assert transport.requests == []
    stored = store.all_tasks()[0]
    assert stored.terminal and "no key" in stored.result


def verifies_with(request, public_pem):
    return independent_verify(
        request.method, request.url, request.headers, request.body, public_pem
    )


def test_a_batch_parses_each_signers_key_once(world, monkeypatch):
    engine, store, clock, alice = world
    loaded = []

    def counting(pem):
        loaded.append(pem)
        return load_private_key(pem)

    monkeypatch.setattr(federation, "load_private_key", counting)
    inboxes = [f"http://host{i}.test/users/u{i}/inbox" for i in range(12)]
    enqueue_like(engine, alice, inboxes)
    transport = ScriptedInboxes()
    report = engine.process_queue(clock(), transport)
    assert report.delivered == 12
    assert loaded == [PRIVATE_PEM]
    assert all(verifies_with(r, PUBLIC_PEM) for r in transport.requests)

    # Nothing is kept between batches: the next one parses the key again.
    enqueue_like(engine, alice, inboxes[:3], n=2)
    assert engine.process_queue(clock(), transport).delivered == 3
    assert loaded == [PRIVATE_PEM, PRIVATE_PEM]


def test_a_rotated_key_signs_from_the_next_batch(world):
    engine, store, clock, alice = world
    transport = ScriptedInboxes()
    enqueue_like(engine, alice, ["http://b.test/users/bob/inbox"])
    engine.process_queue(clock(), transport)
    new_private, new_public = generate_rsa_keypair(1024)
    store.save_keypair("alice", new_private, new_public)
    enqueue_like(engine, alice, ["http://b.test/users/bob/inbox"], n=2)
    engine.process_queue(clock(), transport)
    before, after = transport.requests
    assert verifies_with(before, PUBLIC_PEM) and not verifies_with(before, new_public)
    assert verifies_with(after, new_public) and not verifies_with(after, PUBLIC_PEM)


def test_a_missing_key_fails_each_of_its_tasks_with_its_own_reason(world):
    engine, store, clock, alice = world
    ghost_key = "http://local.test/users/ghost#main-key"
    ghost_tasks = [
        store.enqueue_task("{}", f"http://b.test/users/u{i}/inbox", ghost_key, clock())
        for i in range(3)
    ]
    enqueue_like(engine, alice, ["http://b.test/users/bob/inbox"])
    transport = ScriptedInboxes()
    report = engine.process_queue(clock(), transport)
    assert (report.delivered, report.failed) == (1, 3)
    assert [r.url for r in transport.requests] == ["http://b.test/users/bob/inbox"]
    tasks = {t.task_id: t for t in store.all_tasks()}
    for task in ghost_tasks:
        stored = tasks[task.task_id]
        assert stored.terminal and stored.result == "failed: no key for ghost"


def test_username_from_key_id():
    assert username_from_key_id("http://a.test/users/alice#main-key") == "alice"
    assert username_from_key_id("https://a.test/users/Bob") == "Bob"
