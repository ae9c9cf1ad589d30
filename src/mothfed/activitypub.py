"""ActivityStreams wire objects (Actor, Note, Activity) and their JSON codec.

Serialization is deterministic (fixed member order), always includes
"@context", and never emits a JSON null: absent optionals are omitted.
Parsing is deliberately lenient about extra members (peers decorate objects
with metadata we ignore) but strict about the fields every federating server
must send.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from typing import Any, Union
from urllib.parse import urlsplit

from .errors import (
    MalformedDocument,
    MissingEndpoint,
    MissingKey,
    MissingRequiredField,
    UnsupportedType,
)

AS_CONTEXT = "https://www.w3.org/ns/activitystreams"
SECURITY_CONTEXT = "https://w3id.org/security/v1"

# Distinguished collection URI marking an audience as world-readable.
PUBLIC_COLLECTION = "https://www.w3.org/ns/activitystreams#Public"

ACTIVITY_MEDIA_TYPE = "application/activity+json"
JRD_MEDIA_TYPE = "application/jrd+json"


class ActorKind(str, Enum):
    PERSON = "Person"
    APPLICATION = "Application"
    GROUP = "Group"
    ORGANIZATION = "Organization"
    SERVICE = "Service"


class ActivityKind(str, Enum):
    CREATE = "Create"
    FOLLOW = "Follow"
    ACCEPT = "Accept"
    LIKE = "Like"
    ANNOUNCE = "Announce"
    DELETE = "Delete"
    UNDO = "Undo"


class TagKind(str, Enum):
    MENTION = "Mention"
    HASHTAG = "Hashtag"


ACTOR_TYPE_NAMES = {k.value for k in ActorKind}
ACTIVITY_TYPE_NAMES = {k.value for k in ActivityKind}


def format_timestamp(dt: datetime) -> str:
    """RFC3339 with a literal Z offset; microseconds kept only when nonzero."""
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    dt = dt.astimezone(timezone.utc)
    return dt.isoformat().replace("+00:00", "Z")


def parse_timestamp(value: Any) -> datetime | None:
    """Lenient timestamp parse; unparseable input maps to absent."""
    if not isinstance(value, str) or not value:
        return None
    text = value.strip()
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    try:
        dt = datetime.fromisoformat(text)
    except ValueError:
        return None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc)


def uri_host(uri: str) -> str:
    return urlsplit(uri).hostname or ""


def is_absolute_http_uri(value: Any) -> bool:
    if not isinstance(value, str):
        return False
    parts = urlsplit(value)
    return parts.scheme in ("http", "https") and bool(parts.netloc)


@dataclass(frozen=True)
class PublicKeySpec:
    key_id: str
    owner: str
    pem: str


@dataclass(frozen=True)
class Actor:
    id: str
    kind: ActorKind
    preferred_username: str
    inbox: str
    public_key: PublicKeySpec
    outbox: str | None = None
    followers: str | None = None
    following: str | None = None


@dataclass(frozen=True)
class TagEntry:
    kind: TagKind
    name: str
    href: str | None = None


@dataclass(frozen=True)
class Note:
    id: str | None
    content: str
    attributed_to: str
    to: tuple[str, ...] = ()
    cc: tuple[str, ...] = ()
    tag_entries: tuple[TagEntry, ...] = ()
    published: datetime | None = None
    in_reply_to: str | None = None


@dataclass(frozen=True)
class Activity:
    id: str | None
    kind: ActivityKind
    actor: str
    object: Union[str, Note, Actor, None] = None
    to: tuple[str, ...] = ()
    cc: tuple[str, ...] = ()
    published: datetime | None = None


ApObject = Union[Actor, Note, Activity]


# --- serialization ----------------------------------------------------------


def _actor_to_dict(actor: Actor) -> dict[str, Any]:
    data: dict[str, Any] = {"id": actor.id}
    data["type"] = actor.kind.value
    data["preferredUsername"] = actor.preferred_username
    data["inbox"] = actor.inbox
    if actor.outbox is not None:
        data["outbox"] = actor.outbox
    if actor.followers is not None:
        data["followers"] = actor.followers
    if actor.following is not None:
        data["following"] = actor.following
    data["publicKey"] = {
        "id": actor.public_key.key_id,
        "owner": actor.public_key.owner,
        "publicKeyPem": actor.public_key.pem,
    }
    return data


def _tag_to_dict(tag: TagEntry) -> dict[str, Any]:
    data: dict[str, Any] = {"type": tag.kind.value}
    if tag.href is not None:
        data["href"] = tag.href
    data["name"] = tag.name
    return data


def _note_to_dict(note: Note) -> dict[str, Any]:
    data: dict[str, Any] = {}
    if note.id is not None:
        data["id"] = note.id
    data["type"] = "Note"
    data["attributedTo"] = note.attributed_to
    data["content"] = note.content
    if note.published is not None:
        data["published"] = format_timestamp(note.published)
    if note.to:
        data["to"] = list(note.to)
    if note.cc:
        data["cc"] = list(note.cc)
    if note.tag_entries:
        data["tag"] = [_tag_to_dict(t) for t in note.tag_entries]
    if note.in_reply_to is not None:
        data["inReplyTo"] = note.in_reply_to
    return data


def _activity_to_dict(activity: Activity) -> dict[str, Any]:
    data: dict[str, Any] = {}
    if activity.id is not None:
        data["id"] = activity.id
    data["type"] = activity.kind.value
    data["actor"] = activity.actor
    if activity.published is not None:
        data["published"] = format_timestamp(activity.published)
    if activity.to:
        data["to"] = list(activity.to)
    if activity.cc:
        data["cc"] = list(activity.cc)
    if isinstance(activity.object, str):
        data["object"] = activity.object
    elif activity.object is not None:
        data["object"] = to_wire_dict(activity.object, with_context=False)
    return data


def to_wire_dict(obj: ApObject, with_context: bool = True) -> dict[str, Any]:
    if isinstance(obj, Actor):
        data, context = _actor_to_dict(obj), [AS_CONTEXT, SECURITY_CONTEXT]
    elif isinstance(obj, Note):
        data, context = _note_to_dict(obj), AS_CONTEXT
    elif isinstance(obj, Activity):
        data, context = _activity_to_dict(obj), AS_CONTEXT
    else:
        raise TypeError(f"unsupported wire object {type(obj).__name__}")
    return {"@context": context, **data} if with_context else data


def serialize_object(obj: ApObject) -> str:
    return json.dumps(to_wire_dict(obj), ensure_ascii=False)


# --- parsing ----------------------------------------------------------------


def load_object(text: str | bytes) -> dict[str, Any]:
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise MalformedDocument(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise MalformedDocument("top-level value is not a JSON object")
    return data


def type_name(data: dict[str, Any]) -> str | None:
    value = data.get("type")
    if isinstance(value, list):
        value = next((v for v in value if isinstance(v, str)), None)
    return value if isinstance(value, str) else None


def _uri_or_id(value: Any) -> str | None:
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        inner = value.get("id")
        return inner if isinstance(inner, str) else None
    return None


def _uri_tuple(value: Any) -> tuple[str, ...]:
    if value is None:
        return ()
    if isinstance(value, str):
        return (value,)
    if isinstance(value, list):
        out = []
        for item in value:
            uri = _uri_or_id(item)
            if uri is not None:
                out.append(uri)
        return tuple(out)
    return ()


def _tags_from_wire(value: Any) -> tuple[TagEntry, ...]:
    if not isinstance(value, list):
        return ()
    entries = []
    for item in value:
        if not isinstance(item, dict):
            continue
        kind_name = type_name(item)
        name = item.get("name")
        href = item.get("href")
        if kind_name == TagKind.MENTION.value:
            # A mention is only addressable with an href.
            if isinstance(href, str):
                entries.append(
                    TagEntry(
                        TagKind.MENTION,
                        name=name if isinstance(name, str) else "",
                        href=href,
                    )
                )
        elif kind_name == TagKind.HASHTAG.value:
            if isinstance(name, str) and name.strip("#"):
                text = name if name.startswith("#") else f"#{name}"
                entries.append(TagEntry(TagKind.HASHTAG, name=text))
    return tuple(entries)


def note_from_dict(data: dict[str, Any]) -> Note:
    if type_name(data) != "Note":
        raise MalformedDocument(f"expected a Note, got {type_name(data)!r}")
    attributed = _uri_or_id(data.get("attributedTo"))
    if attributed is None:
        raise MissingRequiredField("attributedTo")
    content = data.get("content")
    note_id = data.get("id")
    return Note(
        id=note_id if isinstance(note_id, str) else None,
        content=content if isinstance(content, str) else "",
        attributed_to=attributed,
        to=_uri_tuple(data.get("to")),
        cc=_uri_tuple(data.get("cc")),
        tag_entries=_tags_from_wire(data.get("tag")),
        published=parse_timestamp(data.get("published")),
        in_reply_to=_uri_or_id(data.get("inReplyTo")),
    )


def parse_note(text: str | bytes) -> Note:
    return note_from_dict(load_object(text))


def _object_member_from_wire(value: Any) -> Union[str, Note, Actor, None]:
    if value is None:
        return None
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        kind_name = type_name(value)
        if kind_name == "Note":
            return note_from_dict(value)
        if kind_name in ACTOR_TYPE_NAMES:
            return actor_from_dict(value)
        # Embedded activities and unknown shapes reduce to their URI.
        return _uri_or_id(value)
    return None


def parse_activity(text: str | bytes | dict[str, Any]) -> Activity:
    """Parse an inbound activity, from its JSON text or its decoded object.

    Unknown members are ignored; absent optionals stay absent. Raises
    MissingRequiredField when the bare-minimum members (type, actor) are
    missing, UnsupportedType for kinds outside the supported seven, and
    MalformedDocument for non-object payloads.
    """
    data = text if isinstance(text, dict) else load_object(text)
    kind_name = type_name(data)
    if kind_name is None:
        raise MissingRequiredField("type")
    try:
        kind = ActivityKind(kind_name)
    except ValueError:
        raise UnsupportedType(kind_name) from None
    actor = _uri_or_id(data.get("actor"))
    if actor is None:
        raise MissingRequiredField("actor")
    activity_id = data.get("id")
    return Activity(
        id=activity_id if isinstance(activity_id, str) else None,
        kind=kind,
        actor=actor,
        object=_object_member_from_wire(data.get("object")),
        to=_uri_tuple(data.get("to")),
        cc=_uri_tuple(data.get("cc")),
        published=parse_timestamp(data.get("published")),
    )


def actor_from_dict(data: dict[str, Any]) -> Actor:
    kind_name = type_name(data)
    if kind_name not in ACTOR_TYPE_NAMES:
        raise MalformedDocument(f"not an actor document (type={kind_name!r})")
    actor_id = data.get("id")
    if not is_absolute_http_uri(actor_id):
        raise MalformedDocument("actor id missing or not an absolute URI")
    username = data.get("preferredUsername")
    if not isinstance(username, str) or not username:
        raise MalformedDocument("actor has no preferredUsername")

    inbox = data.get("inbox")
    if inbox is None:
        raise MissingEndpoint("inbox")
    if not is_absolute_http_uri(inbox):
        raise MalformedDocument("inbox is not an absolute URI")

    host = uri_host(actor_id)
    endpoints: dict[str, str | None] = {}
    for name in ("outbox", "followers", "following"):
        value = data.get(name)
        if value is None:
            endpoints[name] = None
            continue
        if not is_absolute_http_uri(value):
            raise MalformedDocument(f"{name} is not an absolute URI")
        if uri_host(value) != host:
            raise MalformedDocument(f"{name} is not on the actor's host")
        endpoints[name] = value
    if uri_host(inbox) != host:
        raise MalformedDocument("inbox is not on the actor's host")

    key = data.get("publicKey")
    if isinstance(key, list):
        key = key[0] if key else None
    if not isinstance(key, dict):
        raise MissingKey("publicKey")
    pem = key.get("publicKeyPem")
    if not isinstance(pem, str) or not pem.strip():
        raise MissingKey("publicKeyPem")
    key_id = key.get("id")
    owner = key.get("owner")

    return Actor(
        id=actor_id,
        kind=ActorKind(kind_name),
        preferred_username=username,
        inbox=inbox,
        public_key=PublicKeySpec(
            key_id=key_id if isinstance(key_id, str) else f"{actor_id}#main-key",
            owner=owner if isinstance(owner, str) else actor_id,
            pem=pem,
        ),
        outbox=endpoints["outbox"],
        followers=endpoints["followers"],
        following=endpoints["following"],
    )


def validate_actor_document(text: str | bytes) -> Actor:
    """Parse and structurally validate an actor document.

    Raises MissingEndpoint when the actor has no inbox, MissingKey when it
    carries no public key, MalformedDocument for anything else off-shape.
    """
    return actor_from_dict(load_object(text))
