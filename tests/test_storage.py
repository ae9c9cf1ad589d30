import json
import os
import random
import sqlite3
import sys
import threading
import time
from dataclasses import replace
from datetime import datetime, timedelta, timezone

import pytest

from mothfed import storage
from mothfed.config import Config
from mothfed.errors import DuplicateUri, StorageUnavailable, TombstonedActor, UnknownAccount
from mothfed.federation import FederationEngine
from mothfed.mastodon import Account, Mention, Status, Visibility
from mothfed.simnet import VirtualNet
from mothfed.storage import MAX_TERMINAL_TASKS, FileStore, MemoryStore, open_store

from .support import interactions_on, may_view

NOW = datetime(2024, 1, 1, tzinfo=timezone.utc)


@pytest.fixture(params=["memory", "file"])
def store(request, tmp_path):
    if request.param == "memory":
        backend = MemoryStore()
    else:
        backend = FileStore(tmp_path / "store")
    yield backend
    backend.close()


def account(username, domain=None, **overrides):
    host = domain or "local.test"
    acct = username if domain is None else f"{username}@{domain}"
    fields = dict(
        id=None,
        username=username,
        acct=acct,
        display_name="",
        actor_uri=f"https://{host}/users/{username}",
        inbox_uri=f"https://{host}/users/{username}/inbox",
        public_key_pem="PEM",
        created_at=NOW,
    )
    fields.update(overrides)
    return Account(**fields)


def status(author, n, visibility=Visibility.PUBLIC, mentions=(), tags=(), at=None):
    return Status(
        id=None,
        uri=f"{author.actor_uri}/statuses/{n}",
        content=f"status {n}",
        account_id=author.id,
        visibility=visibility,
        mentions=tuple(mentions),
        tags=tuple(tags),
        created_at=at or (NOW + timedelta(seconds=n)),
    )


# --- accounts -----------------------------------------------------------------


def test_upsert_account_assigns_ids_and_keeps_them_stable(store):
    alice = store.upsert_account(account("alice"))
    assert alice.id is not None
    updated = store.upsert_account(
        account("alice", display_name="Alice!", created_at=NOW + timedelta(days=9))
    )
    assert updated.id == alice.id
    assert updated.display_name == "Alice!"
    assert updated.created_at == alice.created_at  # creation time never moves
    assert store.get_account_by_uri(alice.actor_uri) == updated


def test_local_account_lookup_is_case_insensitive(store):
    store.upsert_account(account("Alice"))
    found = store.get_local_account("alice")
    assert found is not None and found.username == "Alice"
    assert store.get_local_account("nobody") is None


def test_local_account_lookup_survives_reopen_and_ignores_remotes_and_the_deleted(tmp_path):
    first = FileStore(tmp_path / "store")
    first.upsert_account(account("bob", domain="b.test"))
    alice = first.upsert_account(account("Alice"))
    first.upsert_account(account("alice", domain="a.test"))
    carol = first.upsert_account(account("carol"))
    first.delete_account_data(carol.actor_uri)
    second = FileStore(tmp_path / "store")
    for store in (first, second):
        assert store.get_local_account("ALICE") == alice
        assert store.get_local_account("bob") is None
        assert store.get_local_account("carol") is None
    first.close()
    second.close()


def test_local_accounts_excludes_remotes(store):
    alice = store.upsert_account(account("alice"))
    store.upsert_account(account("bob", domain="b.test"))
    assert store.get_local_account("alice") == alice
    assert store.get_local_account("bob") is None
    assert store.local_accounts() == [alice]


# --- statuses ------------------------------------------------------------------


def test_store_status_assigns_id_and_indexes_tags(store):
    alice = store.upsert_account(account("alice"))
    stored = store.store_status(status(alice, 1, tags=("cats", "dogs")))
    assert stored.id is not None
    assert store.get_status(stored.id) == stored
    assert store.get_status_by_uri(stored.uri) == stored
    assert [s.id for s in store.query_tag_timeline("cats")] == [stored.id]
    assert [s.id for s in store.query_tag_timeline("dogs")] == [stored.id]


def test_store_status_rejects_duplicate_uris(store):
    alice = store.upsert_account(account("alice"))
    store.store_status(status(alice, 1))
    with pytest.raises(DuplicateUri):
        store.store_status(status(alice, 1))


def test_store_status_refuses_tombstoned_authors(store):
    alice = store.upsert_account(account("alice"))
    store.add_tombstone(alice.actor_uri)
    with pytest.raises(TombstonedActor):
        store.store_status(status(alice, 1))


def test_store_status_refuses_tombstoned_uris(store):
    alice = store.upsert_account(account("alice"))
    doomed = status(alice, 1)
    store.add_tombstone(doomed.uri)
    with pytest.raises(TombstonedActor):
        store.store_status(doomed)


def test_next_status_id_is_strictly_monotonic(store):
    seen = []
    t = NOW.timestamp()
    for i in range(100):
        # Deliberately includes repeated and backward timestamps.
        seen.append(store.next_status_id(t + (i % 3)))
    assert seen == sorted(seen)
    assert len(set(seen)) == len(seen)


def test_statuses_by_account_newest_first(store):
    alice = store.upsert_account(account("alice"))
    ids = [store.store_status(status(alice, n)).id for n in range(3)]
    assert [s.id for s in store.statuses_by_account(alice.id)] == sorted(ids, reverse=True)


# --- timelines and permissions ----------------------------------------------------


def seed_timeline_world(store):
    alice = store.upsert_account(account("alice"))
    bob = store.upsert_account(account("bob", domain="b.test"))
    carol = store.upsert_account(account("carol"))
    store.upsert_follow(alice.actor_uri, bob.id, "accepted", "https://x/f1", 0.0)
    return alice, bob, carol


def test_home_timeline_orders_newest_first_and_paginates(store):
    alice, bob, _ = seed_timeline_world(store)
    ids = []
    for n in range(5):
        s = store.store_status(status(bob, n))
        store.insert_timeline_entry(alice.id, s.id, float(n))
        ids.append(s.id)
    newest_first = sorted(ids, reverse=True)
    assert [s.id for s in store.query_home_timeline(alice.id)] == newest_first
    page_one = store.query_home_timeline(alice.id, limit=2)
    assert [s.id for s in page_one] == newest_first[:2]
    page_two = store.query_home_timeline(alice.id, limit=2, max_id=page_one[-1].id)
    assert [s.id for s in page_two] == newest_first[2:4]


def test_home_timeline_clamps_limit(store):
    alice, bob, _ = seed_timeline_world(store)
    for n in range(45):
        s = store.store_status(status(bob, n))
        store.insert_timeline_entry(alice.id, s.id, float(n))
    assert len(store.query_home_timeline(alice.id, limit=999)) == 40
    assert len(store.query_home_timeline(alice.id, limit=0)) == 1
    assert len(store.query_home_timeline(alice.id, limit=-5)) == 1


def test_home_timeline_unknown_owner(store):
    with pytest.raises(UnknownAccount):
        store.query_home_timeline(424242)


def test_home_timeline_hides_what_permissions_forbid(store):
    alice, bob, carol = seed_timeline_world(store)
    # carol does not follow bob; a followers-only status leaked into her
    # timeline must not surface on read.
    secret = store.store_status(status(bob, 1, visibility=Visibility.FOLLOWERS))
    store.insert_timeline_entry(alice.id, secret.id, 1.0)
    store.insert_timeline_entry(carol.id, secret.id, 1.0)
    assert [s.id for s in store.query_home_timeline(alice.id)] == [secret.id]
    assert store.query_home_timeline(carol.id) == []


def test_home_timeline_direct_statuses_require_a_mention(store):
    alice, bob, carol = seed_timeline_world(store)
    whisper = store.store_status(
        status(bob, 1, visibility=Visibility.DIRECT,
               mentions=[Mention("carol", carol.actor_uri)])
    )
    store.insert_timeline_entry(alice.id, whisper.id, 1.0)
    store.insert_timeline_entry(carol.id, whisper.id, 1.0)
    assert store.query_home_timeline(alice.id) == []  # follower is not enough
    assert [s.id for s in store.query_home_timeline(carol.id)] == [whisper.id]


def test_own_statuses_are_always_visible(store):
    alice, _, _ = seed_timeline_world(store)
    own = store.store_status(status(alice, 1, visibility=Visibility.DIRECT,
                                    mentions=[Mention("x", "https://x.test/u/x")]))
    store.insert_timeline_entry(alice.id, own.id, 1.0)
    assert [s.id for s in store.query_home_timeline(alice.id)] == [own.id]


def test_permission_predicate_matches_first_principles_oracle(store):
    rng = random.Random(2024)
    people = [store.upsert_account(account(f"user{i}")) for i in range(4)]
    follows = set()
    for follower in people:
        for followee in people:
            if follower.id != followee.id and rng.random() < 0.5:
                store.upsert_follow(
                    follower.actor_uri, followee.id, "accepted",
                    f"https://x/f{follower.id}-{followee.id}", 0.0,
                )
                follows.add((follower.actor_uri, followee.id))
    statuses = []
    for n, author in enumerate(people):
        mentions = [
            Mention(other.username, other.actor_uri)
            for other in rng.sample(people, k=rng.randint(0, 2))
        ]
        vis = rng.choice(list(Visibility))
        s = store.store_status(status(author, n, visibility=vis, mentions=mentions))
        statuses.append((s, author))
    for s, author in statuses:
        for viewer in people:
            store.insert_timeline_entry(viewer.id, s.id, 0.0)
    for viewer in people:
        visible = {s.id for s in store.query_home_timeline(viewer.id, limit=40)}
        for s, author in statuses:
            expected = may_view(viewer, s, author, follows)
            assert (s.id in visible) == expected, (viewer.acct, s.uri, s.visibility)


def test_tag_timeline_is_public_only(store):
    alice, bob, _ = seed_timeline_world(store)
    pub = store.store_status(status(bob, 1, tags=("cats",)))
    store.store_status(
        status(bob, 2, visibility=Visibility.FOLLOWERS, tags=("cats",))
    )
    assert [s.id for s in store.query_tag_timeline("cats")] == [pub.id]
    assert store.query_tag_timeline("nosuch") == []


def test_tag_pages_match_a_sorted_reference_after_deletion_and_reopen(tmp_path):
    live = FileStore(tmp_path / "store")
    alice = live.upsert_account(account("alice"))
    bob = live.upsert_account(account("bob", domain="b.test"))
    # Explicit ids out of order, of varying digit counts, a fifth of them not public.
    public = {}
    for n, status_id in enumerate(random.Random(7).sample(range(1, 10**6), 60)):
        author = (alice, bob)[n % 2]
        visibility = Visibility.FOLLOWERS if n % 5 == 0 else Visibility.PUBLIC
        live.store_status(replace(status(author, n, visibility, tags=("cats",)), id=status_id))
        if visibility is Visibility.PUBLIC:
            public[status_id] = author

    def pages(store):
        walked, max_id = [], None
        for _ in range(20):  # 60 statuses take at most 9 pages of 7
            page = [s.id for s in store.query_tag_timeline("cats", 7, max_id)]
            if not page:
                break
            walked.append(page)
            max_id = page[-1]
        return walked

    def reference():
        ids = sorted(public, reverse=True)
        return [ids[i:i + 7] for i in range(0, len(ids), 7)]

    assert pages(live) == reference()
    live.delete_account_data(bob.actor_uri)
    public = {k: v for k, v in public.items() if v is alice}
    assert pages(live) == reference()
    reopened = FileStore(tmp_path / "store")
    assert pages(reopened) == reference()
    assert reopened.snapshot() == live.snapshot()
    live.close()
    reopened.close()


# --- follows -----------------------------------------------------------------------


def test_upsert_follow_is_keyed_by_pair(store):
    alice, bob, _ = seed_timeline_world(store)
    first = store.get_follow(alice.actor_uri, bob.id)
    again = store.upsert_follow(alice.actor_uri, bob.id, "pending", "https://x/f9", 5.0)
    assert again.id == first.id
    assert again.state == "pending"
    assert again.created_at == first.created_at
    assert store.find_follow_by_activity("https://x/f9").id == first.id
    assert store.find_follow_by_activity("https://x/f1") is None  # re-keyed


def test_set_follow_state_and_followers_of(store):
    alice, bob, carol = seed_timeline_world(store)
    rel = store.upsert_follow(carol.actor_uri, bob.id, "pending", "https://x/f2", 0.0)
    assert [r.follower_actor_uri for r in store.followers_of(bob.id)] == [alice.actor_uri]
    store.set_follow_state(rel.id, "accepted")
    assert len(store.followers_of(bob.id)) == 2
    assert len(store.followers_of(bob.id, state=None)) == 2
    assert store.set_follow_state(999999, "accepted") is None


def test_remove_follow(store):
    alice, bob, _ = seed_timeline_world(store)
    rel = store.get_follow(alice.actor_uri, bob.id)
    assert store.remove_follow(rel.id)
    assert store.get_follow(alice.actor_uri, bob.id) is None
    assert store.followers_of(bob.id) == []
    assert not store.remove_follow(rel.id)


# --- interactions -----------------------------------------------------------------


def test_record_interaction_dedupes_by_kind_actor_object(store):
    assert store.record_interaction(
        "Like", "https://b.test/users/bob", "https://a.test/s/1", "https://b.test/act/1", 0.0
    )
    assert not store.record_interaction(
        "Like", "https://b.test/users/bob", "https://a.test/s/1", "https://b.test/act/2", 1.0
    )
    assert store.record_interaction(
        "Announce", "https://b.test/users/bob", "https://a.test/s/1", "https://b.test/act/3", 2.0
    )
    assert len(interactions_on(store, "https://a.test/s/1")) == 2


def test_remove_interaction_by_activity(store):
    store.record_interaction(
        "Like", "https://b.test/users/bob", "https://a.test/s/1", "https://b.test/act/1", 0.0
    )
    item = store.remove_interaction_by_activity("https://b.test/act/1")
    assert item is not None and item.kind == "Like"
    assert interactions_on(store, "https://a.test/s/1") == []
    assert store.remove_interaction_by_activity("https://nope") is None


# --- dedupe and tombstones ---------------------------------------------------------


def test_record_seen_flags_replays(store):
    assert store.record_seen("https://b.test/act/1")
    assert not store.record_seen("https://b.test/act/1")
    assert store.record_seen("https://b.test/act/2")


def test_tombstones_persist_forever(store):
    store.add_tombstone("https://a.test/users/ghost")
    store.add_tombstone("https://a.test/users/ghost")
    assert store.is_tombstoned("https://a.test/users/ghost")
    assert not store.is_tombstoned("https://a.test/users/alice")


# --- keys and tokens ------------------------------------------------------------------


def test_keypair_round_trip(store):
    assert store.keypair("alice") is None
    store.save_keypair("alice", "PRIV", "PUB")
    assert store.keypair("alice") == ("PRIV", "PUB")


def test_token_round_trip(store):
    alice = store.upsert_account(account("alice"))
    store.save_token(alice.id, "tok123")
    assert store.account_id_for_token("tok123") == alice.id
    assert store.token_for_account(alice.id) == "tok123"
    assert store.account_id_for_token("nope") is None
    store.save_token(alice.id, "tok456")  # rotation drops the old token
    assert store.account_id_for_token("tok123") is None
    assert store.account_id_for_token("tok456") == alice.id


# --- deletion ---------------------------------------------------------------------------


def seed_deletable_world(store):
    alice = store.upsert_account(account("alice"))
    bob = store.upsert_account(account("bob", domain="b.test"))
    store.save_token(alice.id, "tok-alice")
    s1 = store.store_status(status(alice, 1, tags=("cats",)))
    s2 = store.store_status(status(alice, 2))
    s3 = store.store_status(status(bob, 3))
    store.insert_timeline_entry(alice.id, s1.id, 1.0)
    store.insert_timeline_entry(alice.id, s2.id, 2.0)
    store.insert_timeline_entry(alice.id, s3.id, 3.0)
    store.insert_timeline_entry(bob.id, s1.id, 1.0)
    store.upsert_follow(bob.actor_uri, alice.id, "accepted", "https://x/f1", 0.0)
    store.upsert_follow(alice.actor_uri, bob.id, "accepted", "https://x/f2", 0.0)
    store.record_interaction("Like", bob.actor_uri, s1.uri, "https://x/l1", 0.0)
    store.record_interaction("Like", alice.actor_uri, s3.uri, "https://x/l2", 0.0)
    return alice, bob, (s1, s2, s3)


def test_delete_account_data_reports_what_it_removed(store):
    alice, bob, (s1, s2, s3) = seed_deletable_world(store)
    report = store.delete_account_data(alice.actor_uri)
    assert report == {
        "account": 1,
        "statuses": 2,
        # alice's own timeline (3 entries) plus s1 in bob's timeline
        "timeline_entries": 4,
        "follows": 2,
        # bob's like on alice's status, and alice's like on bob's
        "interactions": 2,
        "tokens": 1,
    }
    assert store.get_account_by_uri(alice.actor_uri) is None
    assert store.get_status(s1.id) is None
    assert store.get_status_by_uri(s1.uri) is None
    assert store.query_tag_timeline("cats") == []
    assert store.is_tombstoned(alice.actor_uri)
    assert store.account_id_for_token("tok-alice") is None
    assert store.followers_of(bob.id, state=None) == []
    # bob and his data survive
    assert store.get_account_by_uri(bob.actor_uri) is not None
    assert store.get_status(s3.id) is not None
    assert [s.id for s in store.query_home_timeline(bob.id)] == []
    # alice's ids are gone from every ordered index, and no emptied list stays.
    assert store._statuses_of == {bob.id: [s3.id]}
    assert store._timelines == {} and store._tag_index == {} and store._follows_of == {}
    if isinstance(store, FileStore):
        reopened = FileStore(store.root)
        assert reopened.snapshot() == store.snapshot()
        assert reopened._statuses_of == {bob.id: [s3.id]} and reopened._timelines == {}
        reopened.close()


def test_delete_account_data_keeps_the_keypair(store):
    alice, _, _ = seed_deletable_world(store)
    store.save_keypair("alice", "PRIV", "PUB")
    store.delete_account_data(alice.actor_uri)
    assert store.keypair("alice") == ("PRIV", "PUB")


def test_delete_unknown_account_still_tombstones(store):
    report = store.delete_account_data("https://ghost.test/users/ghost")
    assert report == {
        "account": 0, "statuses": 0, "timeline_entries": 0,
        "follows": 0, "interactions": 0, "tokens": 0,
    }
    assert store.is_tombstoned("https://ghost.test/users/ghost")


def test_delete_account_data_removes_the_interactions_a_scan_finds(store):
    rng = random.Random(5)
    people = [store.upsert_account(account(f"p{i}")) for i in range(4)]
    statuses = [store.store_status(status(p, n)) for n, p in enumerate(people * 3)]
    for n in range(60):
        store.record_interaction(
            rng.choice(("Like", "Announce")), rng.choice(people).actor_uri,
            rng.choice(statuses).uri, f"https://x/i{n}", 0.0,
        )
    victim = people[1]
    dead_uris = {s.uri for s in statuses if s.account_id == victim.id}
    before = set(store._interactions)
    scanned = {
        i.id for i in store._interactions.values()
        if i.actor_uri == victim.actor_uri or i.object_uri in dead_uris
    }
    report = store.delete_account_data(victim.actor_uri)
    assert 0 < len(scanned) < len(before)
    assert report["interactions"] == len(scanned)
    assert set(store._interactions) == before - scanned


def timeline_rows(store):
    return {(owner, i) for owner, ids in store._timelines.items() for i in ids}


def test_a_delete_removes_exactly_the_timeline_rows_a_scan_finds(store):
    rng = random.Random(24)
    engine = FederationEngine(Config(domain="local.test"), store, lambda: 0.0)
    people = [store.upsert_account(account(f"p{i}")) for i in range(8)]
    for follower in people:
        for followee in rng.sample(people, 3):
            if followee is not follower:
                store.upsert_follow(
                    follower.actor_uri, followee.id, rng.choice(("accepted", "pending")),
                    f"https://x/{follower.id}/{followee.id}", 0.0,
                )
    for n in range(40):
        author = rng.choice(people)
        mentions = [Mention(m.acct, m.actor_uri) for m in rng.sample(people, rng.randint(0, 2))]
        stored = store.store_status(status(author, n, rng.choice(list(Visibility)), mentions))
        engine.fan_out(stored, author)
    victim = people[2]
    dead = set(store._statuses_of[victim.id])
    before = timeline_rows(store)
    # The reference: every row a full scan of the timelines finds.
    scanned = {(owner, i) for owner, i in before if owner == victim.id or i in dead}
    report = store.delete_account_data(victim.actor_uri)
    assert 0 < len(scanned) < len(before)
    assert report["timeline_entries"] == len(scanned)
    assert timeline_rows(store) == before - scanned
    if isinstance(store, FileStore):
        reopened = FileStore(store.root)
        assert timeline_rows(reopened) == before - scanned
        reopened.close()


@pytest.mark.parametrize("backend", ["memory", "file"])
def test_a_delete_tries_the_same_rows_however_many_timelines_the_store_holds(
    backend, tmp_path, monkeypatch
):
    calls = []
    take_id = storage._take_id

    def counting(index, key, item):
        calls.append(key)
        return take_id(index, key, item)

    monkeypatch.setattr(storage, "_take_id", counting)

    def take_ids_to_delete(timelines):
        store = MemoryStore() if backend == "memory" else FileStore(tmp_path / str(timelines))
        with store.transaction():
            author = store.upsert_account(account("author"))
            others = [store.upsert_account(account(f"o{i}")) for i in range(timelines)]
            for other in others:  # each a home timeline of its own
                store.insert_timeline_entry(other.id, store.store_status(status(other, 0)).id, 0.0)
            for other in others[:10]:
                store.upsert_follow(other.actor_uri, author.id, "accepted", other.actor_uri, 0.0)
            for n in range(1, 201):
                mine = store.store_status(status(author, n))
                for follower in others[:10]:
                    store.insert_timeline_entry(follower.id, mine.id, 0.0)
        calls.clear()
        report = store.delete_account_data(author.actor_uri)
        assert report["timeline_entries"] == 2000
        store.close()
        return len(calls)

    # Trying every (timeline, dead status) pair makes the larger count about 10x.
    assert take_ids_to_delete(200) == take_ids_to_delete(2000)


def test_interaction_indexes_are_rebuilt_on_reopen(tmp_path):
    live = FileStore(tmp_path / "store")
    alice, bob, (s1, s2, s3) = seed_deletable_world(live)
    carol = live.upsert_account(account("carol"))
    c1 = live.store_status(status(carol, 4))
    live.record_interaction("Announce", bob.actor_uri, c1.uri, "https://x/a1", 0.0)
    live.record_interaction("Like", carol.actor_uri, s3.uri, "https://x/l3", 0.0)
    assert live.remove_interaction_by_activity("https://x/l2") is not None
    live.delete_account_data(carol.actor_uri)
    reopened = FileStore(tmp_path / "store")
    # Only bob's like of s1 is left, and no emptied list stays behind.
    kept = live.find_interaction_by_activity("https://x/l1").id
    assert live._interactions_by == {bob.actor_uri: [kept]}
    assert live._interactions_on == {s1.uri: [kept]}
    assert reopened._interactions_by == live._interactions_by
    assert reopened._interactions_on == live._interactions_on
    reopened.close()
    live.close()


def test_a_delete_costs_the_same_however_many_interactions_the_store_holds():
    def fastest_delete(interactions):
        store = MemoryStore()
        others = [store.upsert_account(account(f"o{i}", domain="o.test")) for i in range(10)]
        for n in range(interactions):
            store.record_interaction(
                "Like", others[n % 10].actor_uri, f"https://o.test/s/{n}",
                f"https://o.test/l/{n}", 0.0,
            )
        timings = []
        for victim in [store.upsert_account(account(f"v{i}")) for i in range(5)]:
            mine = store.store_status(status(victim, 1))
            store.record_interaction("Like", others[0].actor_uri, mine.uri, f"{mine.uri}/l", 0.0)
            store.record_interaction("Like", victim.actor_uri, "https://o.test/s/0",
                                     f"{victim.actor_uri}/l", 0.0)
            start = time.perf_counter()
            report = store.delete_account_data(victim.actor_uri)
            timings.append(time.perf_counter() - start)
            assert report["interactions"] == 2
        return min(timings)

    small, large = fastest_delete(10**3), fastest_delete(10**5)
    # A scan of every interaction makes the ratio about a hundred.
    assert large / small <= 10, (small, large)


def test_deleted_actor_cannot_be_reinserted_via_status(store):
    alice, _, _ = seed_deletable_world(store)
    store.delete_account_data(alice.actor_uri)
    revived = store.upsert_account(account("alice"))
    with pytest.raises(TombstonedActor):
        store.store_status(status(revived, 99))


# --- delivery tasks ---------------------------------------------------------------------


def test_task_queue_ordering_and_due_filter(store):
    [t1] = store.enqueue_task("{}", ["https://b.test/inbox"], "k#main-key", 10.0)
    [t2] = store.enqueue_task("{}", ["https://c.test/inbox"], "k#main-key", 5.0)
    assert [t.task_id for t in store.due_tasks(10.0)] == [t2.task_id, t1.task_id]
    assert [t.task_id for t in store.due_tasks(7.0)] == [t2.task_id]
    assert store.pending_count() == 2
    assert store.next_pending_time() == 5.0


def test_terminal_tasks_leave_the_pending_set(store):
    [task] = store.enqueue_task("{}", ["https://b.test/inbox"], "k#main-key", 0.0)
    done = replace(task, terminal=True, result="delivered")
    store.save_task(done)
    assert store.pending_count() == 0
    assert store.due_tasks(100.0) == []
    assert store.next_pending_time() is None
    assert store.all_tasks() == [done]


def test_only_the_newest_terminal_tasks_are_kept_and_pending_ones_never_drop(store):
    with store.transaction():
        slow, waiting = store.enqueue_task(
            "{}", ["https://slow.test/inbox", "https://down.test/inbox"], "k#main-key", 0.0
        )
        done = []
        for _ in range(MAX_TERMINAL_TASKS + 5):
            [task] = store.enqueue_task("{}", ["https://b.test/inbox"], "k#main-key", 0.0)
            store.save_task(replace(task, terminal=True, result="delivered: 202"))
            done.append(task.task_id)
        # The oldest task ends last, so it is the newest terminal one.
        store.save_task(replace(slow, terminal=True, result="failed: status 503"))
    kept = [t.task_id for t in store.all_tasks()]
    assert kept == [slow.task_id, waiting.task_id] + done[6:]
    assert store.due_tasks(1.0) == [waiting]
    assert store.pending_count() == 1


def test_reopen_keeps_the_bound_over_loaded_tasks_lowest_id_first(tmp_path, monkeypatch):
    monkeypatch.setattr(storage, "MAX_TERMINAL_TASKS", MAX_TERMINAL_TASKS + 10)
    disk = FileStore(tmp_path / "store")
    with disk.transaction():
        ids = []
        for _ in range(MAX_TERMINAL_TASKS + 10):
            [task] = disk.enqueue_task("{}", ["https://b.test/inbox"], "k#main-key", 0.0)
            disk.save_task(replace(task, terminal=True, result="delivered: 202"))
            ids.append(task.task_id)
        [pending] = disk.enqueue_task("{}", ["https://down.test/inbox"], "k#main-key", 0.0)
    disk.close()
    monkeypatch.setattr(storage, "MAX_TERMINAL_TASKS", MAX_TERMINAL_TASKS)
    kept = ids[10:] + [pending.task_id]
    for _ in range(2):  # the second open finds the dropped rows deleted
        reopened = FileStore(tmp_path / "store")
        assert [t.task_id for t in reopened.all_tasks()] == kept
        assert reopened._db.execute(
            "SELECT COUNT(*) FROM records WHERE collection = 'tasks'"
        ).fetchone() == (len(kept),)
        reopened.close()


@pytest.mark.parametrize("backend", ["memory", "file"])
def test_thousands_of_deliveries_keep_at_most_the_bound_of_tasks(backend, tmp_path):
    net = VirtualNet(seed=12, backend=backend, storage_root=str(tmp_path))
    net.spawn_instance("a.test", ["alice"])
    net.spawn_instance("b.test", ["bob"])
    net.follow("b.test", "bob", "alice@a.test")
    for n in range(2000):
        net.post_status("a.test", "alice", f"post {n}")
        if n % 200 == 199:
            net.run_until_quiet()
    tasks = net.node("a.test").store.all_tasks()
    assert len(tasks) == MAX_TERMINAL_TASKS
    assert all(t.terminal and t.result == "delivered: 202" for t in tasks)
    if backend == "file":
        net.kill_instance("a.test")
        reopened = net.respawn_instance("a.test").store
        assert [t.task_id for t in reopened.all_tasks()] == [t.task_id for t in tasks]


# --- cost as the store grows --------------------------------------------------------------


def cheapest(call, repeats=50):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - started)
    return best


def test_reads_cost_about_the_same_at_a_hundred_times_the_entries():
    FAN = "https://b.test/users/fan"
    """A 20-status home page and one author's 20 statuses, at 10^3 and 10^5
    statuses in the store and in the owner's home timeline; one follower's 20
    follows, at 10^3 and 10^5 follows; and the three queue queries with no
    terminal task held and with MAX_TERMINAL_TASKS of them."""

    def world(size, terminal):
        store = MemoryStore()
        owner = store.upsert_account(account("owner"))
        author = store.upsert_account(account("author"))
        template = replace(status(owner, 0), uri="")
        for status_id in range(1, size + 1):
            # The author's 20 statuses are spread through the owner's.
            by = author if status_id % (size // 20) == 0 else owner
            store.store_status(replace(template, id=status_id, account_id=by.id))
            store.insert_timeline_entry(owner.id, status_id, 0.0)
        for n in range(size):
            # The fan's 20 follows are spread through everyone else's.
            follower = FAN if n % (size // 20) == 0 else f"https://b.test/users/u{n}"
            store.upsert_follow(follower, n, "accepted", f"https://x/follow/{n}", 0.0)
        for n in range(4 + terminal):
            [task] = store.enqueue_task("{}", ["https://b.test/inbox"], "k#main-key", float(n))
            if n >= 4:
                store.save_task(replace(task, terminal=True, result="delivered: 202"))
        assert store.pending_count() == 4 and len(store.all_tasks()) == 4 + terminal
        assert len(store.statuses_by_account(author.id)) == 20
        assert len(store.follows_by_follower(FAN)) == 20
        return store, owner, author

    def reads(world):
        store, owner, author = world
        return {
            "home page": lambda: store.query_home_timeline(owner.id, 20),
            "author's statuses": lambda: store.statuses_by_account(author.id),
            "follower's follows": lambda: store.follows_by_follower(FAN),
            "queue queries": lambda: (
                store.due_tasks(2.0), store.pending_count(), store.next_pending_time()
            ),
        }

    small = reads(world(10**3, 0))
    large = reads(world(10**5, MAX_TERMINAL_TASKS))
    ratios = {name: cheapest(large[name]) / cheapest(small[name]) for name in small}
    assert all(ratio <= 10 for ratio in ratios.values()), ratios


# --- concurrency --------------------------------------------------------------------------


def hammer(threads, fn):
    barrier = threading.Barrier(threads)
    failures = []

    def run(i):
        barrier.wait()
        try:
            fn(i)
        except Exception as exc:  # pragma: no cover - only on bugs
            failures.append(exc)

    pool = [threading.Thread(target=run, args=(i,)) for i in range(threads)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    assert failures == []


def test_concurrent_upserts_converge_to_one_account(store):
    results = []

    def upsert(i):
        results.append(store.upsert_account(account("alice", display_name=str(i))))

    hammer(24, upsert)
    ids = {a.id for a in results}
    assert len(ids) == 1
    assert len(json.loads(store.snapshot())["accounts"]) == 1


def test_concurrent_record_seen_admits_exactly_one(store):
    outcomes = []
    hammer(24, lambda i: outcomes.append(store.record_seen("https://x/act/1")))
    assert outcomes.count(True) == 1
    assert outcomes.count(False) == 23


def test_concurrent_status_ids_never_collide(store):
    alice = store.upsert_account(account("alice"))
    created = []

    def post(i):
        created.append(store.store_status(status(alice, i)))

    hammer(24, post)
    assert len({s.id for s in created}) == 24


def test_concurrent_posts_queue_disjoint_blocks_of_task_ids(store):
    inboxes = [f"https://host{i % 4}.test/users/u{i}/inbox" for i in range(16)]
    batches = []

    def post(i):
        batches.append(store.enqueue_task(f"post {i}", inboxes, "k#main-key", 0.0))

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        hammer(8, post)
    finally:
        sys.setswitchinterval(previous)
    for batch in batches:
        first = batch[0].task_id
        assert [t.task_id for t in batch] == list(range(first, first + 16))
        assert {t.activity_body for t in batch} == {batch[0].activity_body}
    assert sorted(t.task_id for batch in batches for t in batch) == list(range(1, 129))
    assert json.loads(store.snapshot())["counters"]["task"] == store.pending_count() == 128


# --- file backend durability ----------------------------------------------------------------


def populate(store):
    alice, bob, statuses = seed_deletable_world(store)
    store.save_keypair("alice", "PRIV", "PUB")
    store.record_peer("b.test", "https://b.test/users/bob/inbox")
    store.record_seen("https://b.test/act/1")
    store.add_tombstone("https://dead.test/users/ghost")
    store.enqueue_task('{"a": 1}', ["https://b.test/inbox"], "k#main-key", 3.0)
    return alice, bob, statuses


def test_file_store_round_trips_everything_through_reopen(tmp_path):
    first = FileStore(tmp_path / "store")
    populate(first)
    before = first.snapshot()
    first.close()

    second = FileStore(tmp_path / "store")
    assert second.snapshot() == before
    second.close()


def test_a_status_row_naming_its_parent_by_id_opens_with_the_parents_uri(tmp_path, monkeypatch):
    first = FileStore(tmp_path / "store")
    alice = first.upsert_account(account("alice"))
    root, gone, reply, orphan, plain = (first.store_status(status(alice, n)) for n in range(5))
    first.close()
    # The rows as a store written before a status kept its parent's URI holds them.
    parents = {reply.id: root.id, orphan.id: gone.id, plain.id: None}
    db = sqlite3.connect(tmp_path / "store" / "store.sqlite3")
    with db:
        for status_id, parent_id in parents.items():
            [(body,)] = db.execute(
                "SELECT body FROM records WHERE collection = 'statuses' AND key = ?",
                (str(status_id),),
            )
            data = json.loads(body)
            del data["in_reply_to_uri"]
            db.execute(
                "UPDATE records SET body = ? WHERE collection = 'statuses' AND key = ?",
                (json.dumps({**data, "in_reply_to_id": parent_id}), str(status_id)),
            )
        db.execute("DELETE FROM records WHERE collection = 'statuses' AND key = ?", (str(gone.id),))
    db.close()

    statements = []
    connect = sqlite3.connect

    def traced(*args, **kwargs):
        opened = connect(*args, **kwargs)
        opened.set_trace_callback(statements.append)
        return opened

    monkeypatch.setattr(sqlite3, "connect", traced)
    for opening in range(2):
        statements.clear()
        store = FileStore(tmp_path / "store")
        assert store.get_status(reply.id).in_reply_to_uri == root.uri
        assert store.get_status(orphan.id).in_reply_to_uri is None  # its parent is gone
        assert store.get_status(plain.id) == plain
        writes = [s for s in statements if s.startswith(("BEGIN", "INSERT", "DELETE", "COMMIT"))]
        store.close()
        # The first open rewrites each old row once, in its one commit; the second nothing.
        assert len(writes) == (2 + len(parents) if opening == 0 else 0)
        assert writes[-1:] == (["COMMIT"] if opening == 0 else [])


def test_file_store_snapshot_matches_memory_for_identical_operations(tmp_path):
    mem = MemoryStore()
    disk = FileStore(tmp_path / "store")
    populate(mem)
    populate(disk)
    assert mem.snapshot() == disk.snapshot()
    disk.close()


def test_file_store_persists_deletion_resync(tmp_path):
    first = FileStore(tmp_path / "store")
    alice, _, _ = populate(first)
    report = first.delete_account_data(alice.actor_uri)
    assert report["account"] == 1
    before = first.snapshot()
    first.close()

    second = FileStore(tmp_path / "store")
    assert second.snapshot() == before
    assert second.get_account_by_uri(alice.actor_uri) is None
    assert second.is_tombstoned(alice.actor_uri)
    second.close()



def test_reopen_rebuilds_every_index_the_live_writes_kept(tmp_path):
    live = FileStore(tmp_path / "store")
    alice, bob, (s1, s2, s3) = seed_deletable_world(live)
    carol = live.upsert_account(account("carol"))
    dave = live.upsert_account(account("dave"))
    live.upsert_account(replace(dave, username="David"))
    live.save_token(carol.id, "tok-carol")
    c1 = live.store_status(status(carol, 4, tags=("cats", "dogs")))
    live.upsert_follow(carol.actor_uri, bob.id, "accepted", "https://x/f3", 0.0)
    live.record_interaction("Like", carol.actor_uri, s3.uri, "https://x/l3", 0.0)
    live.record_interaction("Like", bob.actor_uri, c1.uri, "https://x/l4", 0.0)
    live.upsert_follow(bob.actor_uri, alice.id, "pending", "https://x/f1-again", 1.0)
    assert live.remove_interaction_by_activity("https://x/l1") is not None  # an undone like
    live.delete_account_data(carol.actor_uri)
    reopened = FileStore(tmp_path / "store")

    def answers(store):
        return (
            [
                store.get_follow(follower.actor_uri, followee.id)
                for follower in (alice, bob, carol)
                for followee in (alice, bob)
            ],
            [
                store.find_follow_by_activity(f"https://x/{name}")
                for name in ("f1", "f1-again", "f2", "f3")
            ],
            [store.get_status_by_uri(s.uri) for s in (s1, s2, s3, c1)],
            [store.query_tag_timeline(tag) for tag in ("cats", "dogs")],
            [store.get_local_account(name) for name in ("alice", "carol", "dave", "david")],
            [store.account_id_for_token(t) for t in ("tok-alice", "tok-carol")],
            [
                store.followers_of(followee.id, state=state)
                for followee in (alice, bob, carol)
                for state in ("accepted", None)
            ],
            [store.statuses_by_account(a.id) for a in (alice, bob, carol)],
            [store.query_home_timeline(a.id) for a in (alice, bob)],
            [store.follows_by_follower(a.actor_uri) for a in (alice, bob, carol)],
            # Last, as it removes what it finds.
            [
                store.remove_interaction_by_activity(f"https://x/{name}")
                for name in ("l1", "l2", "l3", "l4")
            ],
        )

    expected = answers(live)
    assert answers(reopened) == expected
    follows, by_activity, statuses, tags, locals_, tokens, followers = expected[:7]
    authored, homes, followed, interactions = expected[7:]
    assert follows[2] is not None and follows[2].follow_activity_id == "https://x/f1-again"
    assert [f is not None for f in by_activity] == [False, True, True, False]
    assert statuses == [s1, s2, s3, None]
    assert tags == [[s1], []]
    assert [a and a.username for a in locals_] == ["alice", None, None, "David"]
    assert tokens == [alice.id, None]
    assert [[r.follow_activity_id for r in found] for found in followers] == [
        [], ["https://x/f1-again"], ["https://x/f2"], ["https://x/f2"], [], []
    ]
    assert authored == [[s2, s1], [s3], []]
    assert homes == [[s3, s2, s1], []]  # bob's follow of alice went back to pending
    assert [[r.follow_activity_id for r in found] for found in followed] == [
        ["https://x/f2"], ["https://x/f1-again"], []
    ]
    assert [i is not None for i in interactions] == [False, True, False, False]
    live.close()
    reopened.close()


def test_file_store_private_key_files_are_restricted(tmp_path):
    """A key pair lives only in the store's table, and survives reopen from it."""
    disk = FileStore(tmp_path / "store")
    disk.save_keypair("alice", "PRIV", "PUB")
    disk.close()
    assert sorted(p.name for p in (tmp_path / "store").iterdir()) == ["store.sqlite3"]
    reopened = FileStore(tmp_path / "store")
    assert reopened.keypair("alice") == ("PRIV", "PUB")
    reopened.close()
    assert not (tmp_path / "store" / "keys").exists()


def test_open_store_backends(tmp_path):
    mem = open_store("memory", None)
    assert isinstance(mem, MemoryStore) and not isinstance(mem, FileStore)
    disk = open_store("file", tmp_path / "s")
    assert isinstance(disk, FileStore)
    disk.close()
    with pytest.raises(StorageUnavailable):
        open_store("cloud", None)
    with pytest.raises(StorageUnavailable):
        open_store("file", None)


def test_snapshot_is_deterministic_json(store):
    populate(store)
    data = json.loads(store.snapshot())
    assert store.snapshot() == store.snapshot()
    assert set(data) >= {"accounts", "statuses", "follows", "tasks", "tombstones"}


def test_file_store_private_key_is_created_restricted(tmp_path):
    """The store's files hold tokens and private keys: only the owner may read them,
    also when an earlier version left them readable by others."""
    root = tmp_path / "store"
    names = ["store.sqlite3", "store.sqlite3-wal", "store.sqlite3-shm"]

    def modes_after_a_write():
        disk = FileStore(root)
        disk.save_keypair("alice", "PRIV", "PUB")
        modes = {name: (root / name).stat().st_mode & 0o777 for name in names}
        disk.close()
        return modes

    previous = os.umask(0o022)
    try:
        created = modes_after_a_write()
        for name in names:
            (root / name).touch()
            (root / name).chmod(0o644)
        reopened = modes_after_a_write()
    finally:
        os.umask(previous)
    assert created == {name: 0o600 for name in names}
    assert reopened == {name: 0o600 for name in names}


def test_unchanged_account_and_peer_are_not_written_again():
    writes = []

    class Recording(MemoryStore):
        def _write(self, collection, key, value):
            writes.append(collection)

    store = Recording()
    alice = store.upsert_account(account("alice"))
    store.record_peer("b.test", "https://b.test/inbox")
    writes.clear()
    assert store.upsert_account(account("alice")) == alice
    store.record_peer("b.test", "https://b.test/inbox")
    assert writes == []
    # The first inbox recorded stays the domain's: a different one is not written.
    store.record_peer("b.test", "https://b.test/shared-inbox")
    store.upsert_account(account("alice", display_name="Alice"))
    assert writes == ["accounts"]
    assert store.list_peers() == [("b.test", "https://b.test/inbox")]


def test_file_store_concurrent_commits_all_reach_disk(tmp_path):
    disk = FileStore(tmp_path / "store")
    alice = disk.upsert_account(account("alice"))
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def post(i):
            for n in range(3):
                s = disk.store_status(status(alice, 10 * i + n))
                disk.insert_timeline_entry(alice.id, s.id, float(i))

        hammer(8, post)
    finally:
        sys.setswitchinterval(previous)
    assert len(disk.statuses_by_account(alice.id)) == 24
    live = disk.snapshot()
    disk.close()
    reopened = FileStore(tmp_path / "store")
    assert reopened.snapshot() == live
    reopened.close()


def test_file_store_concurrent_transactions_commit_once_each(tmp_path):
    disk = FileStore(tmp_path / "store")
    alice = disk.upsert_account(account("alice"))
    statements = []
    disk._db.set_trace_callback(statements.append)
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def post(i):
            for n in range(3):
                with disk.transaction():
                    s = disk.store_status(status(alice, 10 * i + n))
                    disk.insert_timeline_entry(alice.id, s.id, float(i))

        hammer(8, post)
    finally:
        sys.setswitchinterval(previous)
        disk._db.set_trace_callback(None)
    assert statements.count("COMMIT") == 24
    live = disk.snapshot()
    disk.close()
    reopened = FileStore(tmp_path / "store")
    assert reopened.snapshot() == live
    assert len(reopened.query_home_timeline(alice.id, limit=40)) == 24
    reopened.close()


def wal_cut_outcomes(tmp_path, live, commit):
    """Snapshots of the FileStore live before and after commit(), which must
    append one commit spanning several WAL frames (database pages), and the
    set of snapshots a copy of the store reopens to with its WAL cut at each
    byte worth trying inside that commit. Closes live."""
    db, wal = live.root / "store.sqlite3", live.root / "store.sqlite3-wal"
    before, wal_before = live.snapshot(), wal.stat().st_size
    commit()
    after, wal_after = live.snapshot(), wal.stat().st_size
    db_bytes, wal_bytes = db.read_bytes(), wal.read_bytes()
    live.close()

    frame = 24 + int.from_bytes(wal_bytes[8:12], "big")  # frame header + page
    assert (wal_after - wal_before) % frame == 0 and wal_after - wal_before >= 3 * frame
    cuts = set(range(wal_before, wal_after, 256))
    for boundary in range(wal_before, wal_after + 1, frame):
        cuts.update((boundary - 1, boundary, boundary + 1))
    outcomes = set()
    for cut in sorted(c for c in cuts if wal_before <= c <= wal_after):
        root = tmp_path / f"cut{cut}"
        root.mkdir()
        (root / "store.sqlite3").write_bytes(db_bytes)
        (root / "store.sqlite3-wal").write_bytes(wal_bytes[:cut])
        reopened = FileStore(root)
        outcomes.add(reopened.snapshot())
        reopened.close()
    return before, after, outcomes


def test_file_store_survives_a_wal_cut_anywhere_in_the_last_commit(tmp_path):
    """A crash part-way through appending a commit loses that commit and nothing else."""
    live = FileStore(tmp_path / "live")
    alice = live.upsert_account(account("alice"))
    for n in range(5):
        live.store_status(status(alice, n))
    long = replace(status(alice, 99), content="x" * 20_000)
    before, after, outcomes = wal_cut_outcomes(tmp_path, live, lambda: live.store_status(long))
    assert outcomes == {before, after}


def test_a_wal_cut_in_a_posts_commit_leaves_none_of_its_tasks_or_all(tmp_path):
    live = FileStore(tmp_path / "live")
    live.enqueue_task("{}", ["https://b.test/inbox"], "k#main-key", 0.0)
    inboxes = [f"https://host{i % 4}.test/users/u{i}/inbox" for i in range(16)]
    before, after, outcomes = wal_cut_outcomes(
        tmp_path, live, lambda: live.enqueue_task("x" * 2_000, inboxes, "k#main-key", 1.0)
    )
    assert outcomes == {before, after}
    held = [json.loads(snapshot) for snapshot in (before, after)]
    assert [len(data["tasks"]) for data in held] == [1, 17]
    assert [data["counters"]["task"] for data in held] == [1, 17]


def test_file_store_reports_a_corrupt_database_as_unavailable(tmp_path):
    root = tmp_path / "store"
    root.mkdir()
    (root / "store.sqlite3").write_bytes(b"not a database " * 512)
    with pytest.raises(StorageUnavailable):
        FileStore(root)
