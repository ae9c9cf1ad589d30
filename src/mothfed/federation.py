"""Server-to-server engine: inbox dispatch, fan-out, and the delivery queue.

The engine never talks to the network directly; it enqueues DeliveryTasks
and process_queue drains them through whatever transport it is handed. All
inbound handling is idempotent by activity id, and every rejected or ignored
activity returns a warning rather than vanishing.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from typing import TYPE_CHECKING

from .activitypub import (
    ACTIVITY_MEDIA_TYPE,
    PUBLIC_COLLECTION,
    Activity,
    ActivityKind,
    Actor,
    Note,
    serialize_object,
)
from .errors import ActorMismatch, DuplicateUri, TombstonedActor
from .httpsig import load_private_key, sign_request
from .mastodon import Account, Status, Visibility, actor_to_account, create_activity, note_to_status
from .transport import HttpRequest, Transport, TransportError

if TYPE_CHECKING:
    from cryptography.hazmat.primitives.asymmetric.types import PrivateKeyTypes

# A task that fails this many times is parked; retry n waits RETRY_BASE_SECONDS * 2**n.
MAX_ATTEMPTS = 8
RETRY_BASE_SECONDS = 10.0


@dataclass(frozen=True, slots=True)
class DeliveryTask:
    task_id: int
    activity_body: str
    target_inbox: str
    key_id: str
    created_at: float
    next_attempt_at: float
    attempts: int = 0
    terminal: bool = False
    result: str | None = None


@dataclass(frozen=True, slots=True)
class FollowRelation:
    id: int
    follower_actor_uri: str
    followee_account_id: int
    state: str  # "pending" | "accepted"
    follow_activity_id: str
    created_at: float


@dataclass(frozen=True, slots=True)
class Interaction:
    id: int
    kind: str  # "Like" | "Announce"
    actor_uri: str
    object_uri: str
    activity_id: str
    created_at: float


@dataclass(frozen=True)
class QueueReport:
    attempted: int
    delivered: int
    retried: int
    failed: int


def _object_uri(obj: str | Note | Actor | None) -> str | None:
    if isinstance(obj, str):
        return obj
    if isinstance(obj, (Note, Actor)):
        return obj.id
    return None


def username_from_key_id(key_id: str) -> str:
    """Local username embedded in a /users/{name}#main-key id."""
    path = key_id.split("#", 1)[0]
    return path.rstrip("/").rsplit("/", 1)[-1]


class FederationEngine:
    def __init__(self, config, store, clock) -> None:
        self.config = config
        self.store = store
        self.clock = clock
        self._queue_lock = threading.Lock()

    def _now_dt(self) -> datetime:
        return datetime.fromtimestamp(self.clock(), tz=timezone.utc)

    # --- inbound ------------------------------------------------------------

    def handle_inbox(self, activity: Activity, verified_actor: Actor) -> list[str]:
        if activity.actor != verified_actor.id:
            raise ActorMismatch(
                f"activity actor {activity.actor} != signer {verified_actor.id}"
            )
        # One transaction: the seen id commits together with what it admits,
        # so a crash cannot leave an activity marked seen but not applied, and
        # the store's lock makes the idempotency check and write one step.
        with self.store.transaction():
            return self._dispatch(activity, verified_actor)

    def _dispatch(self, activity: Activity, actor: Actor) -> list[str]:
        store = self.store
        # Refused before it is marked seen, so a retry is refused too.
        if store.is_tombstoned(actor.id):
            raise TombstonedActor(actor.id)
        if activity.id is not None and not store.record_seen(activity.id):
            return []

        if activity.kind is ActivityKind.DELETE:
            return self._handle_delete(activity, actor)

        sender = store.upsert_account(
            actor_to_account(actor, self.config.domain, self._now_dt())
        )

        if activity.kind is ActivityKind.CREATE:
            return self._handle_create(activity, sender)
        if activity.kind is ActivityKind.FOLLOW:
            return self._handle_follow(activity, actor)
        if activity.kind is ActivityKind.ACCEPT:
            return self._handle_accept(activity, actor)
        if activity.kind in (ActivityKind.LIKE, ActivityKind.ANNOUNCE):
            return self._handle_interaction(activity, actor)
        if activity.kind is ActivityKind.UNDO:
            return self._handle_undo(activity, actor)
        return [f"activity kind {activity.kind.value} not handled"]

    def _handle_create(self, activity: Activity, sender: Account) -> list[str]:
        store = self.store
        note = activity.object
        if not isinstance(note, Note):
            return ["Create without an embedded Note ignored"]
        if note.attributed_to != sender.actor_uri:
            return ["Create for a Note attributed to someone else ignored"]
        status, warnings = note_to_status(
            note, sender, store.get_account_by_uri, received_at=self._now_dt()
        )
        try:
            stored = store.store_status(status)
        except DuplicateUri:
            return [f"status {status.uri} already stored"]
        self.fan_out(stored, sender)
        return warnings

    def _handle_follow(self, activity: Activity, actor: Actor) -> list[str]:
        store = self.store
        if activity.id is None:
            return ["Follow without an id cannot be acknowledged"]
        target_uri = _object_uri(activity.object)
        if target_uri is None:
            return ["Follow without an object ignored"]
        target = store.get_account_by_uri(target_uri)
        if target is None or target.is_remote or target.id is None:
            return [f"Follow target {target_uri} is not a local account"]

        relation = store.upsert_follow(
            follower_actor_uri=actor.id,
            followee_account_id=target.id,
            state="accepted",
            follow_activity_id=activity.id,
            created_at=self.clock(),
        )

        accept = Activity(
            id=f"{target.actor_uri}#accepts/follows/{relation.id}",
            kind=ActivityKind.ACCEPT,
            actor=target.actor_uri,
            object=activity.id,
            to=(actor.id,),
        )
        self.enqueue(accept, signer=target, inboxes=[actor.inbox])
        return []

    def _handle_accept(self, activity: Activity, actor: Actor) -> list[str]:
        store = self.store
        follow_id = _object_uri(activity.object)
        if follow_id is None:
            return ["Accept without an object ignored"]
        relation = store.find_follow_by_activity(follow_id)
        if relation is None:
            return [f"Accept references unknown object {follow_id}"]
        followee = store.get_account(relation.followee_account_id)
        if followee is None or followee.actor_uri != actor.id:
            return ["Accept from an actor who is not the followee ignored"]
        store.set_follow_state(relation.id, "accepted")
        return []

    def _handle_interaction(self, activity: Activity, actor: Actor) -> list[str]:
        store = self.store
        object_uri = _object_uri(activity.object)
        if object_uri is None:
            return [f"{activity.kind.value} without an object ignored"]
        recorded = store.record_interaction(
            kind=activity.kind.value,
            actor_uri=actor.id,
            object_uri=object_uri,
            activity_id=activity.id or "",
            created_at=self.clock(),
        )
        if not recorded:
            return [f"{activity.kind.value} already recorded for {object_uri}"]
        return []

    def _handle_delete(self, activity: Activity, actor: Actor) -> list[str]:
        object_uri = _object_uri(activity.object)
        if object_uri != actor.id:
            # Only self-deletion is honored; deleting someone else's data on
            # another server's say-so would be an attack vector.
            return [f"Delete for {object_uri} from {actor.id} ignored"]
        self.store.delete_account_data(actor.id)
        return []

    def _handle_undo(self, activity: Activity, actor: Actor) -> list[str]:
        store = self.store
        undone_id = _object_uri(activity.object)
        if undone_id is None:
            return ["Undo without an object ignored"]
        interaction = store.find_interaction_by_activity(undone_id)
        if interaction is not None:
            if interaction.actor_uri != actor.id:
                return ["Undo from a different actor ignored"]
            store.remove_interaction_by_activity(undone_id)
            return []
        relation = store.find_follow_by_activity(undone_id)
        if relation is not None:
            if relation.follower_actor_uri != actor.id:
                return ["Undo from a different actor ignored"]
            store.remove_follow(relation.id)
            return []
        return [f"Undo references unknown object {undone_id}"]

    # --- outbound -----------------------------------------------------------

    def enqueue(
        self, activity: Activity, signer: Account, inboxes: list[str]
    ) -> list[DeliveryTask]:
        """One task per inbox, all queued by one store call and sharing the one
        serialized body."""
        if not inboxes:
            return []
        body = serialize_object(activity)
        key_id = f"{signer.actor_uri}#main-key"
        return self.store.enqueue_task(body, inboxes, key_id, self.clock())

    def _audience(self, status: Status, author: Account) -> list[Account]:
        """The known accounts a status reaches, once each and in this order:
        the author, the author's accepted followers unless the status is
        direct, and each account it mentions."""
        store = self.store
        uris = []
        if status.visibility is not Visibility.DIRECT:
            uris = [r.follower_actor_uri for r in store.followers_of(author.id, state="accepted")]
        uris += [m.actor_uri for m in status.mentions]
        audience = {author.actor_uri: author}
        for uri in uris:
            if uri not in audience and (account := store.get_account_by_uri(uri)) is not None:
                audience[uri] = account
        return list(audience.values())

    def fan_out(self, status: Status, author: Account) -> list[DeliveryTask]:
        """Take a freshly stored status to its audience: a home-timeline row for
        each local account in it and, for a local author only (a remote one's
        own server delivers), one delivery task per inbox of a remote account."""
        assert status.id is not None
        audience = self._audience(status, author)
        for owner in audience:
            if not owner.is_remote:
                self.store.insert_timeline_entry(owner.id, status.id, self.clock())
        if author.is_remote:
            return []
        inboxes = dict.fromkeys(a.inbox_uri for a in audience if a.is_remote)
        activity = create_activity(status, author)
        return self.enqueue(activity, signer=author, inboxes=list(inboxes))

    def propagate_delete(self, account: Account) -> list[DeliveryTask]:
        """One Delete activity per known peer, signed by the dying account."""
        activity = Activity(
            id=f"{account.actor_uri}#delete",
            kind=ActivityKind.DELETE,
            actor=account.actor_uri,
            object=account.actor_uri,
            to=(PUBLIC_COLLECTION,),
        )
        inboxes = [inbox for _, inbox in self.store.list_peers()]
        return self.enqueue(activity, signer=account, inboxes=inboxes)

    # --- delivery -----------------------------------------------------------

    def process_queue(self, now: float, transport: Transport) -> QueueReport:
        """Attempt every task due at `now`. Failures are data, never raised."""
        with self._queue_lock:
            due = self.store.due_tasks(now)
            # Each signer's key is parsed once per batch, and nothing outlives
            # the batch, so a rotated key signs from the next one.
            keys: dict[str, PrivateKeyTypes | None] = {}
            delivered = retried = failed = 0
            for task in due:
                updated = self._attempt(task, now, transport, keys)
                self.store.save_task(updated)
                assert updated.result is not None
                if updated.terminal and updated.result.startswith("delivered"):
                    delivered += 1
                elif updated.terminal:
                    failed += 1
                else:
                    retried += 1
            return QueueReport(len(due), delivered, retried, failed)

    def _attempt(
        self,
        task: DeliveryTask,
        now: float,
        transport: Transport,
        keys: dict[str, PrivateKeyTypes | None],
    ) -> DeliveryTask:
        """One delivery; keys maps a signer's username to its loaded key, or
        None when it has no pair, and is filled here on first use."""
        body = task.activity_body.encode("utf-8")
        username = username_from_key_id(task.key_id)
        if username not in keys:
            pair = self.store.keypair(username)
            keys[username] = load_private_key(pair[0]) if pair is not None else None
        private_key = keys[username]
        if private_key is None:
            return replace(task, terminal=True, result=f"failed: no key for {username}")
        date = datetime.fromtimestamp(now, tz=timezone.utc)
        # Signed fresh on every attempt so the Date header stays in the
        # receiver's skew window across retries.
        headers = sign_request(
            "POST", task.target_inbox, body, task.key_id, private_key, date
        )
        headers["Content-Type"] = ACTIVITY_MEDIA_TYPE

        try:
            response = transport.request(
                HttpRequest("POST", task.target_inbox, headers, body)
            )
        except TransportError as exc:
            return self._reschedule(task, now, f"network error: {exc}")

        if 200 <= response.status < 300:
            return replace(task, terminal=True, result=f"delivered: {response.status}")
        if response.status == 429 or response.status >= 500:
            return self._reschedule(task, now, f"status {response.status}")
        return replace(task, terminal=True, result=f"failed: rejected with {response.status}")

    def _reschedule(self, task: DeliveryTask, now: float, reason: str) -> DeliveryTask:
        attempts = task.attempts + 1
        if attempts >= MAX_ATTEMPTS:
            return replace(
                task,
                attempts=attempts,
                terminal=True,
                result=f"failed: {reason} after {attempts} attempts",
            )
        delay = RETRY_BASE_SECONDS * (2 ** attempts)
        return replace(
            task,
            attempts=attempts,
            terminal=False,
            next_attempt_at=now + delay,
            result=f"retry scheduled: {reason}",
        )
