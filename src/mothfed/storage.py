"""Persistence for accounts, statuses, follows, timelines, peers, keys, tasks.

Two backends share one implementation: MemoryStore holds everything in
indexed dicts under a single lock, and FileStore persists each change through
the one ``_write`` hook into a SQLite table, so a process kill never loses a
committed record. The two are observationally equivalent; FileStore only adds
durability.

File layout under the root path:
    store.sqlite3 (+ -wal, -shm)  records(collection, key, body): one JSON body
                                  per account, status, follow, interaction,
                                  task, timeline entry, peer, seen activity id,
                                  tombstone, token, key pair and id sequence;
                                  mode 0600, as it holds tokens and private keys

Delivery tasks are the one bounded collection: every pending task is kept, and
only the newest MAX_TERMINAL_TASKS terminal ones.
"""
from __future__ import annotations

import json
import os
import threading
from bisect import bisect_left
from collections import OrderedDict
from contextlib import AbstractContextManager, suppress
from dataclasses import asdict, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable

from .errors import DuplicateUri, StorageUnavailable, TombstonedActor, UnknownAccount
from .federation import DeliveryTask, FollowRelation, Interaction
from .mastodon import Account, Mention, Status, Visibility

if TYPE_CHECKING:  # imported by FileStore itself, so the memory backend never loads it
    import sqlite3

MAX_PAGE = 40
# Terminal delivery tasks kept; past this, save_task drops the one that became
# terminal first. Pending tasks are never dropped.
MAX_TERMINAL_TASKS = 1024


def _dt_to_text(dt: datetime) -> str:
    return dt.astimezone(timezone.utc).isoformat()


def _dt_from_text(text: str) -> datetime:
    return datetime.fromisoformat(text).astimezone(timezone.utc)


def _put_id(index: dict[Any, list[int]], key: Any, item: int) -> bool:
    """Add item to index[key], an ascending id list; False if it is there."""
    ids = index.setdefault(key, [])
    at = bisect_left(ids, item)  # ids are time-ordered: almost always the end
    if at < len(ids) and ids[at] == item:
        return False
    ids.insert(at, item)
    return True


def _take_id(index: dict[Any, list[int]], key: Any, item: int) -> bool:
    """Remove item from index[key], dropping the list once empty; False if absent."""
    ids = index.get(key, [])
    at = bisect_left(ids, item)
    if at == len(ids) or ids[at] != item:
        return False
    del ids[at]
    if not ids:
        del index[key]
    return True


def account_record(account: Account) -> dict[str, Any]:
    return {**asdict(account), "created_at": _dt_to_text(account.created_at)}


def account_from_record(data: dict[str, Any]) -> Account:
    return Account(**{**data, "created_at": _dt_from_text(data["created_at"])})


def status_record(status: Status) -> dict[str, Any]:
    return {
        **asdict(status),
        "visibility": status.visibility.value,
        "created_at": _dt_to_text(status.created_at),
    }


def status_from_record(data: dict[str, Any]) -> Status:
    return Status(
        **{
            **data,
            "visibility": Visibility(data["visibility"]),
            "mentions": tuple(Mention(**m) for m in data["mentions"]),
            "tags": tuple(data["tags"]),
            "created_at": _dt_from_text(data["created_at"]),
        }
    )


class MemoryStore:
    """In-memory backend; all operations are safe under concurrent callers."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._accounts: dict[int, Account] = {}
        self._account_by_uri: dict[str, int] = {}
        # lowercased username -> id, local accounts only
        self._local_by_name: dict[str, int] = {}
        self._statuses: dict[int, Status] = {}
        self._status_by_uri: dict[str, int] = {}
        # Ordered indexes, each an ascending id list kept by _put_id/_take_id:
        # tag -> status ids, author -> status ids, home timeline owner ->
        # status ids, followee -> follow ids, follower URI -> follow ids, and
        # actor URI or object URI -> interaction ids.
        self._tag_index: dict[str, list[int]] = {}
        self._statuses_of: dict[int, list[int]] = {}
        self._timelines: dict[int, list[int]] = {}
        self._follows: dict[int, FollowRelation] = {}
        self._follow_by_pair: dict[tuple[str, int], int] = {}
        self._follow_by_activity: dict[str, int] = {}
        self._follows_of: dict[int, list[int]] = {}
        self._follows_by: dict[str, list[int]] = {}
        self._interactions: dict[int, Interaction] = {}
        self._interaction_by_key: dict[tuple[str, str, str], int] = {}
        self._interaction_by_activity: dict[str, int] = {}
        self._interactions_by: dict[str, list[int]] = {}
        self._interactions_on: dict[str, list[int]] = {}
        self._peers: dict[str, str] = {}
        self._seen: set[str] = set()
        self._tombstones: set[str] = set()
        self._keys: dict[str, tuple[str, str]] = {}
        self._tokens: dict[str, int] = {}
        self._token_by_account: dict[int, str] = {}
        self._pending: dict[int, DeliveryTask] = {}
        # terminal tasks, in the order they became terminal
        self._terminal: OrderedDict[int, DeliveryTask] = OrderedDict()
        self._counters: dict[str, int] = {}

    def transaction(self) -> AbstractContextManager[Any]:
        """Hold the store for several calls; on FileStore they commit as one.

        The scope is the store's re-entrant lock, so other callers wait for
        it: never make a network call inside it.
        """
        return self._lock

    # --- sequences ---------------------------------------------------------

    def next_sequence(self, name: str, count: int = 1) -> int:
        """The first of count fresh values of a sequence, taken with one counter write."""
        with self._lock:
            value = self._counters.get(name, 0) + count
            self._counters[name] = value
            self._write("counters", name, (name, value))
            return value - count + 1

    def next_status_id(self, now: float) -> int:
        """Time-ordered unique id: epoch-microseconds floor, strictly rising."""
        with self._lock:
            candidate = int(now * 1000) * 1000
            last = self._counters.get("status_id", 0)
            value = max(candidate, last + 1)
            self._counters["status_id"] = value
            self._write("counters", "status_id", ("status_id", value))
            return value

    # --- accounts ------------------------------------------------------------

    def upsert_account(self, account: Account) -> Account:
        with self._lock:
            existing_id = self._account_by_uri.get(account.actor_uri)
            if existing_id is not None:
                created_at = self._accounts[existing_id].created_at
                stored = replace(account, id=existing_id, created_at=created_at)
            elif account.id is None:
                stored = replace(account, id=self.next_sequence("account"))
            else:
                stored = account
            previous = self._accounts.get(stored.id)
            if previous != stored:
                if previous is not None:
                    self._unindex_account(previous)
                self._index_account(stored)
                self._write("accounts", stored.id, stored)
            return stored

    def get_account(self, account_id: int) -> Account | None:
        with self._lock:
            return self._accounts.get(account_id)

    def get_account_by_uri(self, actor_uri: str) -> Account | None:
        with self._lock:
            account_id = self._account_by_uri.get(actor_uri)
            return self._accounts.get(account_id) if account_id is not None else None

    def get_local_account(self, username: str) -> Account | None:
        with self._lock:
            account_id = self._local_by_name.get(username.lower())
            return self._accounts.get(account_id) if account_id is not None else None

    # --- statuses ------------------------------------------------------------

    def store_status(self, status: Status) -> Status:
        with self._lock:
            if status.uri in self._tombstones:
                raise TombstonedActor(status.uri)
            author = self._accounts.get(status.account_id)
            if author is not None and author.actor_uri in self._tombstones:
                raise TombstonedActor(author.actor_uri)
            if status.uri and status.uri in self._status_by_uri:
                raise DuplicateUri(status.uri)
            stored = status
            if status.id is None:
                stored = replace(status, id=self.next_status_id(status.created_at.timestamp()))
            self._index_status(stored)
            self._write("statuses", stored.id, stored)
            return stored

    def get_status(self, status_id: int) -> Status | None:
        with self._lock:
            return self._statuses.get(status_id)

    def get_status_by_uri(self, uri: str) -> Status | None:
        with self._lock:
            status_id = self._status_by_uri.get(uri)
            return self._statuses.get(status_id) if status_id is not None else None

    def statuses_by_account(self, account_id: int) -> list[Status]:
        with self._lock:
            return [self._statuses[i] for i in reversed(self._statuses_of.get(account_id, []))]

    # --- timelines -------------------------------------------------------------

    def insert_timeline_entry(self, owner_id: int, status_id: int, now: float) -> bool:
        with self._lock:
            if not _put_id(self._timelines, owner_id, status_id):
                return False
            self._write("timelines", (owner_id, status_id), (owner_id, status_id, now))
            return True

    def _permitted(self, owner: Account, status: Status) -> bool:
        if status.account_id == owner.id:
            return True
        if any(m.actor_uri == owner.actor_uri for m in status.mentions):
            return True
        if status.visibility in (Visibility.PUBLIC, Visibility.FOLLOWERS):
            author = self._accounts.get(status.account_id)
            if author is None or author.id is None:
                return False
            follow_id = self._follow_by_pair.get((owner.actor_uri, author.id))
            if follow_id is not None and self._follows[follow_id].state == "accepted":
                return True
        return False

    def _page(
        self, ids: list[int], limit: int, max_id: int | None, visible: Callable[[Status], bool]
    ) -> list[Status]:
        """Newest first, below max_id, up to limit statuses that pass visible."""
        limit = max(1, min(int(limit), MAX_PAGE))
        results = []
        for index in range(len(ids) if max_id is None else bisect_left(ids, max_id), 0, -1):
            status = self._statuses.get(ids[index - 1])
            if status is not None and visible(status):
                results.append(status)
                if len(results) == limit:
                    break
        return results

    def query_home_timeline(
        self, account_id: int, limit: int = 20, max_id: int | None = None
    ) -> list[Status]:
        with self._lock:
            owner = self._accounts.get(account_id)
            if owner is None:
                raise UnknownAccount(str(account_id))
            ids = self._timelines.get(account_id, [])
            return self._page(ids, limit, max_id, lambda s: self._permitted(owner, s))

    def query_tag_timeline(
        self, tag: str, limit: int = 20, max_id: int | None = None
    ) -> list[Status]:
        with self._lock:
            ids = self._tag_index.get(tag, [])
            return self._page(ids, limit, max_id, lambda s: s.visibility is Visibility.PUBLIC)

    # --- follows ----------------------------------------------------------------

    def upsert_follow(
        self,
        follower_actor_uri: str,
        followee_account_id: int,
        state: str,
        follow_activity_id: str,
        created_at: float,
    ) -> FollowRelation:
        with self._lock:
            pair = (follower_actor_uri, followee_account_id)
            existing_id = self._follow_by_pair.get(pair)
            if existing_id is not None:
                previous = self._follows[existing_id]
                self._unindex_follow(previous)
                relation = replace(previous, state=state, follow_activity_id=follow_activity_id)
            else:
                relation = FollowRelation(
                    id=self.next_sequence("follow"),
                    follower_actor_uri=follower_actor_uri,
                    followee_account_id=followee_account_id,
                    state=state,
                    follow_activity_id=follow_activity_id,
                    created_at=created_at,
                )
            self._index_follow(relation)
            self._write("follows", relation.id, relation)
            return relation

    def set_follow_state(self, follow_id: int, state: str) -> FollowRelation | None:
        with self._lock:
            relation = self._follows.get(follow_id)
            if relation is None:
                return None
            updated = replace(relation, state=state)
            self._index_follow(updated)
            self._write("follows", follow_id, updated)
            return updated

    def get_follow(self, follower_actor_uri: str, followee_account_id: int) -> FollowRelation | None:
        with self._lock:
            follow_id = self._follow_by_pair.get((follower_actor_uri, followee_account_id))
            return self._follows.get(follow_id) if follow_id is not None else None

    def find_follow_by_activity(self, activity_id: str) -> FollowRelation | None:
        with self._lock:
            follow_id = self._follow_by_activity.get(activity_id)
            return self._follows.get(follow_id) if follow_id is not None else None

    def remove_follow(self, follow_id: int) -> bool:
        with self._lock:
            relation = self._follows.get(follow_id)
            if relation is None:
                return False
            self._unindex_follow(relation)
            self._write("follows", follow_id, None)
            return True

    def followers_of(self, account_id: int, state: str | None = "accepted") -> list[FollowRelation]:
        with self._lock:
            found = (self._follows[i] for i in self._follows_of.get(account_id, []))
            return [r for r in found if state is None or r.state == state]

    def follows_by_follower(self, follower_actor_uri: str) -> list[FollowRelation]:
        with self._lock:
            return [self._follows[i] for i in self._follows_by.get(follower_actor_uri, [])]

    # --- interactions -------------------------------------------------------------

    def record_interaction(
        self, kind: str, actor_uri: str, object_uri: str, activity_id: str, created_at: float
    ) -> bool:
        with self._lock:
            key = (kind, actor_uri, object_uri)
            if key in self._interaction_by_key:
                return False
            item = Interaction(
                id=self.next_sequence("interaction"),
                kind=kind,
                actor_uri=actor_uri,
                object_uri=object_uri,
                activity_id=activity_id,
                created_at=created_at,
            )
            self._index_interaction(item)
            self._write("interactions", item.id, item)
            return True

    def find_interaction_by_activity(self, activity_id: str) -> Interaction | None:
        with self._lock:
            item_id = self._interaction_by_activity.get(activity_id)
            return self._interactions.get(item_id) if item_id is not None else None

    def remove_interaction_by_activity(self, activity_id: str) -> Interaction | None:
        with self._lock:
            item_id = self._interaction_by_activity.get(activity_id)
            if item_id is None:
                return None
            item = self._interactions[item_id]
            self._unindex_interaction(item)
            self._write("interactions", item_id, None)
            return item

    # --- peers, seen, tombstones ---------------------------------------------------

    def record_peer(self, domain: str, inbox: str) -> None:
        with self._lock:
            # The first inbox recorded stays the domain's.
            if domain not in self._peers:
                self._peers[domain] = inbox
                self._write("peers", domain, (domain, inbox))

    def list_peers(self) -> list[tuple[str, str]]:
        with self._lock:
            return sorted(self._peers.items())

    def record_seen(self, activity_id: str) -> bool:
        with self._lock:
            if activity_id in self._seen:
                return False
            self._seen.add(activity_id)
            self._write("seen", activity_id, activity_id)
            return True

    def has_seen(self, activity_id: str) -> bool:
        with self._lock:
            return activity_id in self._seen

    def add_tombstone(self, actor_uri: str) -> None:
        with self._lock:
            if actor_uri not in self._tombstones:
                self._tombstones.add(actor_uri)
                self._write("tombstones", actor_uri, actor_uri)

    def is_tombstoned(self, actor_uri: str) -> bool:
        with self._lock:
            return actor_uri in self._tombstones

    # --- keys and tokens --------------------------------------------------------

    def save_keypair(self, username: str, private_pem: str, public_pem: str) -> None:
        with self._lock:
            self._keys[username] = (private_pem, public_pem)
            self._write("keys", username, (username, private_pem, public_pem))

    def keypair(self, username: str) -> tuple[str, str] | None:
        with self._lock:
            return self._keys.get(username)

    def save_token(self, account_id: int, token: str) -> None:
        with self._lock:
            self._index_token(account_id, token)
            self._write("tokens", account_id, (account_id, token))

    def account_id_for_token(self, token: str) -> int | None:
        with self._lock:
            return self._tokens.get(token)

    def token_for_account(self, account_id: int) -> str | None:
        with self._lock:
            return self._token_by_account.get(account_id)

    # --- deletion -----------------------------------------------------------------

    def delete_account_data(self, actor_uri: str) -> dict[str, int]:
        with self._lock:
            self.add_tombstone(actor_uri)
            kinds = ("account", "statuses", "timeline_entries", "follows", "interactions", "tokens")
            report = dict.fromkeys(kinds, 0)
            account_id = self._account_by_uri.get(actor_uri)
            if account_id is None:
                return report
            self._unindex_account(self._accounts[account_id])
            self._write("accounts", account_id, None)
            report["account"] = 1

            dead_statuses = [self._statuses[i] for i in self._statuses_of.get(account_id, [])]
            for status in dead_statuses:
                self._unindex_status(status)
                self._write("statuses", status.id, None)
            report["statuses"] = len(dead_statuses)

            # Their own timeline, plus their statuses where fan_out put them: their
            # followers' timelines and those of each status's mentions, not every one.
            own = [(account_id, i) for i in self._timelines.pop(account_id, [])]
            followers = [r.follower_actor_uri for r in self.followers_of(account_id, state=None)]
            others = [
                (owner_id, status.id)
                for status in dead_statuses
                for uri in followers + [m.actor_uri for m in status.mentions]
                if (owner_id := self._account_by_uri.get(uri)) is not None
                and _take_id(self._timelines, owner_id, status.id)
            ]
            for key in own + others:
                self._write("timelines", key, None)
            report["timeline_entries"] = len(own) + len(others)

            dead_ids = {*self._follows_by.get(actor_uri, ()), *self._follows_of.get(account_id, ())}
            dead_follows = [self._follows[i] for i in dead_ids]
            for relation in dead_follows:
                self._unindex_follow(relation)
                self._write("follows", relation.id, None)
            report["follows"] = len(dead_follows)

            # Theirs, and everyone's on their statuses: two index reads, no scan.
            interaction_ids = set(self._interactions_by.get(actor_uri, ()))
            for status in dead_statuses:
                if status.uri:
                    interaction_ids.update(self._interactions_on.get(status.uri, ()))
            dead_interactions = [self._interactions[i] for i in sorted(interaction_ids)]
            for item in dead_interactions:
                self._unindex_interaction(item)
                self._write("interactions", item.id, None)
            report["interactions"] = len(dead_interactions)

            if self._unindex_token(account_id) is not None:
                self._write("tokens", account_id, None)
                report["tokens"] = 1

            # The keypair stays: the delete announcement must still be signed
            # after the account row is gone.
            return report

    # --- delivery tasks --------------------------------------------------------------

    def enqueue_task(
        self, activity_body: str, target_inboxes: list[str], key_id: str, now: float
    ) -> list[DeliveryTask]:
        """One pending task per inbox, in order, with ascending ids from one
        block of the task sequence; on FileStore they commit together."""
        with self._lock:
            first = self.next_sequence("task", len(target_inboxes))
            tasks = [
                DeliveryTask(
                    task_id=first + n,
                    activity_body=activity_body,
                    target_inbox=inbox,
                    key_id=key_id,
                    created_at=now,
                    next_attempt_at=now,
                )
                for n, inbox in enumerate(target_inboxes)
            ]
            for task in tasks:
                self._index_task(task)
                self._write("tasks", task.task_id, task)
            return tasks

    def save_task(self, task: DeliveryTask) -> None:
        with self._lock:
            self._index_task(task)
            self._write("tasks", task.task_id, task)
            self._retire_tasks()

    def due_tasks(self, now: float) -> list[DeliveryTask]:
        with self._lock:
            due = [t for t in self._pending.values() if t.next_attempt_at <= now]
            return sorted(due, key=lambda t: (t.next_attempt_at, t.task_id))

    def pending_count(self) -> int:
        with self._lock:
            return len(self._pending)

    def next_pending_time(self) -> float | None:
        with self._lock:
            return min((t.next_attempt_at for t in self._pending.values()), default=None)

    def all_tasks(self) -> list[DeliveryTask]:
        with self._lock:
            tasks = [*self._pending.values(), *self._terminal.values()]
            return sorted(tasks, key=lambda t: t.task_id)

    # --- indexes ----------------------------------------------------------------------
    # Each indexed collection enters and leaves its dicts through one pair of
    # helpers, shared by the mutators, delete_account_data and FileStore._load.

    def _index_account(self, account: Account) -> None:
        self._accounts[account.id] = account
        self._account_by_uri[account.actor_uri] = account.id
        if not account.is_remote:
            self._local_by_name[account.username.lower()] = account.id

    def _unindex_account(self, account: Account) -> None:
        del self._accounts[account.id]
        self._account_by_uri.pop(account.actor_uri, None)
        if not account.is_remote:
            self._local_by_name.pop(account.username.lower(), None)

    def _index_status(self, status: Status) -> None:
        self._statuses[status.id] = status
        if status.uri:
            self._status_by_uri[status.uri] = status.id
        _put_id(self._statuses_of, status.account_id, status.id)
        for tag in status.tags:
            _put_id(self._tag_index, tag, status.id)

    def _unindex_status(self, status: Status) -> None:
        del self._statuses[status.id]
        if status.uri:
            self._status_by_uri.pop(status.uri, None)
        _take_id(self._statuses_of, status.account_id, status.id)
        for tag in status.tags:
            _take_id(self._tag_index, tag, status.id)

    def _index_follow(self, relation: FollowRelation) -> None:
        self._follows[relation.id] = relation
        pair = (relation.follower_actor_uri, relation.followee_account_id)
        self._follow_by_pair[pair] = relation.id
        if relation.follow_activity_id:
            self._follow_by_activity[relation.follow_activity_id] = relation.id
        _put_id(self._follows_of, relation.followee_account_id, relation.id)
        _put_id(self._follows_by, relation.follower_actor_uri, relation.id)

    def _unindex_follow(self, relation: FollowRelation) -> None:
        del self._follows[relation.id]
        self._follow_by_pair.pop((relation.follower_actor_uri, relation.followee_account_id), None)
        self._follow_by_activity.pop(relation.follow_activity_id, None)
        _take_id(self._follows_of, relation.followee_account_id, relation.id)
        _take_id(self._follows_by, relation.follower_actor_uri, relation.id)

    def _index_interaction(self, item: Interaction) -> None:
        self._interactions[item.id] = item
        self._interaction_by_key[(item.kind, item.actor_uri, item.object_uri)] = item.id
        if item.activity_id:
            self._interaction_by_activity[item.activity_id] = item.id
        _put_id(self._interactions_by, item.actor_uri, item.id)
        _put_id(self._interactions_on, item.object_uri, item.id)

    def _unindex_interaction(self, item: Interaction) -> None:
        del self._interactions[item.id]
        self._interaction_by_key.pop((item.kind, item.actor_uri, item.object_uri), None)
        self._interaction_by_activity.pop(item.activity_id, None)
        _take_id(self._interactions_by, item.actor_uri, item.id)
        _take_id(self._interactions_on, item.object_uri, item.id)

    def _index_task(self, task: DeliveryTask) -> None:
        if task.terminal:
            self._pending.pop(task.task_id, None)
            self._terminal[task.task_id] = task
        else:
            self._pending[task.task_id] = task

    def _retire_tasks(self) -> None:
        """Drop the longest-terminal tasks beyond MAX_TERMINAL_TASKS."""
        while len(self._terminal) > MAX_TERMINAL_TASKS:
            task_id, _ = self._terminal.popitem(last=False)
            self._write("tasks", task_id, None)

    def _index_token(self, account_id: int, token: str) -> None:
        self._unindex_token(account_id)
        self._tokens[token] = account_id
        self._token_by_account[account_id] = token

    def _unindex_token(self, account_id: int) -> str | None:
        token = self._token_by_account.pop(account_id, None)
        if token is not None:
            self._tokens.pop(token, None)
        return token

    # --- snapshot and lifecycle --------------------------------------------------------

    def snapshot(self) -> bytes:
        """Canonical byte serialization of the whole store, for equality checks."""
        with self._lock:
            timelines = sorted((owner, i) for owner, ids in self._timelines.items() for i in ids)
            data = {
                "accounts": {str(k): account_record(v) for k, v in sorted(self._accounts.items())},
                "statuses": {str(k): status_record(v) for k, v in sorted(self._statuses.items())},
                "follows": {str(k): asdict(v) for k, v in sorted(self._follows.items())},
                "interactions": {
                    str(k): asdict(v) for k, v in sorted(self._interactions.items())
                },
                "timelines": timelines,
                "tag_index": dict(sorted(self._tag_index.items())),
                "peers": dict(sorted(self._peers.items())),
                "seen": sorted(self._seen),
                "tombstones": sorted(self._tombstones),
                "tokens": {str(k): v for k, v in sorted(self._token_by_account.items())},
                "keys": {k: list(v) for k, v in sorted(self._keys.items())},
                "tasks": {str(t.task_id): asdict(t) for t in self.all_tasks()},
                "counters": dict(sorted(self._counters.items())),
            }
            return json.dumps(data, sort_keys=True, ensure_ascii=False).encode("utf-8")

    def close(self) -> None:
        pass

    # --- persistence hook (a no-op in memory) ------------------------------------------

    def _write(self, collection: str, key: Any, value: Any) -> None:
        """Record that ``collection[key]`` became ``value``; ``None`` deletes it.

        Called under the lock after the in-memory change, with the domain
        object itself, so only a persistent backend pays for serializing it.
        """


# A commit is on disk before the call that made it returns.
JOURNAL_MODE = "WAL"
SYNCHRONOUS = "FULL"
# Page cache in KiB (negative is SQLite's unit for KiB). Reads are served
# from memory, so SQLite's pages are only touched again by the next write.
CACHE_KIB = 256

_ENCODERS = {
    "accounts": account_record,
    "statuses": status_record,
    "follows": asdict,
    "interactions": asdict,
    "tasks": asdict,
}


class _CommitLock:
    """The store's re-entrant lock; the outermost release commits the open transaction.

    Every mutating call holds the lock for its whole run, so each outermost
    call, or ``transaction()`` scope, that wrote anything is one transaction,
    and memory and disk agree whenever the lock is free.
    """

    def __init__(self, lock: threading.RLock, db: sqlite3.Connection) -> None:
        self._lock = lock
        self._db = db
        self._depth = 0

    def __enter__(self) -> None:
        self._lock.acquire()
        self._depth += 1

    def __exit__(self, *exc_info: Any) -> None:
        import sqlite3

        self._depth -= 1
        try:
            if self._depth == 0 and self._db.in_transaction:
                self._db.execute("COMMIT")
        except sqlite3.DatabaseError as exc:
            raise StorageUnavailable(f"commit failed: {exc}") from exc
        finally:
            self._lock.release()

    def close(self) -> None:
        with self._lock:
            self._db.close()


class FileStore(MemoryStore):
    """MemoryStore over one SQLite table; every commit is fsynced before returning."""

    def __init__(self, root: str | os.PathLike[str]) -> None:
        import sqlite3

        super().__init__()
        self.root = Path(root)
        path = self.root / "store.sqlite3"
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            # SQLite gives -wal and -shm the mode of the database file; a file
            # made by an earlier version, and any -wal or -shm it left, is narrowed.
            os.close(os.open(path, os.O_WRONLY | os.O_CREAT, 0o600))
            for name in (path.name, f"{path.name}-wal", f"{path.name}-shm"):
                with suppress(FileNotFoundError):
                    os.chmod(self.root / name, 0o600)
        except OSError as exc:
            raise StorageUnavailable(f"cannot prepare storage root {root}: {exc}") from exc
        try:
            self._db = sqlite3.connect(path, isolation_level=None, check_same_thread=False)
        except sqlite3.DatabaseError as exc:
            raise StorageUnavailable(f"cannot open {path}: {exc}") from exc
        try:
            self._db.execute(f"PRAGMA journal_mode={JOURNAL_MODE}")
            self._db.execute(f"PRAGMA synchronous={SYNCHRONOUS}")
            self._db.execute(f"PRAGMA cache_size=-{CACHE_KIB}")
            self._db.execute(
                "CREATE TABLE IF NOT EXISTS records (collection TEXT, key TEXT, body TEXT,"
                " PRIMARY KEY (collection, key)) WITHOUT ROWID"
            )
            self._load(self._db.execute("SELECT collection, body FROM records"))
        except sqlite3.DatabaseError as exc:
            self._db.close()
            raise StorageUnavailable(f"cannot read {path}: {exc}") from exc
        self._lock = _CommitLock(self._lock, self._db)
        # Rows load in key-text order, and when each task became terminal is not
        # stored: the loaded ones age by id. A store kept under a larger bound
        # is trimmed in one commit.
        self._terminal = OrderedDict(sorted(self._terminal.items()))
        with self._lock:
            self._retire_tasks()

    def _load(self, rows: Iterable[tuple[str, str]]) -> None:
        for collection, body in rows:
            data = json.loads(body)
            match collection:
                case "accounts":
                    self._index_account(account_from_record(data))
                case "statuses":
                    self._index_status(status_from_record(data))
                case "follows":
                    self._index_follow(FollowRelation(**data))
                case "interactions":
                    self._index_interaction(Interaction(**data))
                case "tasks":
                    self._index_task(DeliveryTask(**data))
                case "timelines":
                    owner_id, status_id, _ = data
                    _put_id(self._timelines, owner_id, status_id)
                case "peers":
                    domain, inbox = data
                    self._peers[domain] = inbox
                case "seen":
                    self._seen.add(data)
                case "tombstones":
                    self._tombstones.add(data)
                case "tokens":
                    self._index_token(*data)
                case "keys":
                    username, private_pem, public_pem = data
                    self._keys[username] = (private_pem, public_pem)
                case "counters":
                    name, value = data
                    self._counters[name] = value
                case _:
                    raise StorageUnavailable(f"unknown collection {collection!r} in store")

    def _write(self, collection: str, key: Any, value: Any) -> None:
        import sqlite3

        try:
            if not self._db.in_transaction:
                self._db.execute("BEGIN")
            if value is None:
                self._db.execute(
                    "DELETE FROM records WHERE collection = ? AND key = ?", (collection, str(key))
                )
            else:
                encode = _ENCODERS.get(collection)
                body = json.dumps(encode(value) if encode else value, ensure_ascii=False)
                self._db.execute(
                    "INSERT OR REPLACE INTO records VALUES (?, ?, ?)",
                    (collection, str(key), body),
                )
        except sqlite3.DatabaseError as exc:
            raise StorageUnavailable(f"cannot write {collection} {key!r}: {exc}") from exc

    def close(self) -> None:
        self._lock.close()


def open_store(backend: str, path: str | None = None) -> MemoryStore:
    if backend == "memory":
        return MemoryStore()
    if backend == "file":
        if not path:
            raise StorageUnavailable("file backend needs a storage path")
        return FileStore(path)
    raise StorageUnavailable(f"unknown storage backend {backend!r}")
