"""Handles (user@domain), WebFinger documents, and remote discovery: handle to actor."""
from __future__ import annotations

import json
import re
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Generic, TypeVar
from urllib.parse import quote, urlsplit

from .activitypub import (
    ACTIVITY_MEDIA_TYPE,
    JRD_MEDIA_TYPE,
    Actor,
    is_absolute_http_uri,
    validate_actor_document,
)
from .errors import ActorFetchFailed, MalformedHandle, MothError, NoSelfLink, ResolutionFailed
from .transport import Transport, get_body

# Entries a TtlCache keeps; the least recently used one goes first.
CACHE_SIZE = 4096
# How long a resolved handle, or a fetched actor document, is trusted.
RESOLVE_TTL_SECONDS = 3600.0

K = TypeVar("K")
V = TypeVar("V")


class TtlCache(Generic[K, V]):
    """A bounded LRU map, safe across threads; an entry RESOLVE_TTL_SECONDS
    old or older on the injected clock counts as a miss."""

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self._entries: OrderedDict[K, tuple[float, V]] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: K) -> V | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or self.clock() - entry[0] >= RESOLVE_TTL_SECONDS:
                return None
            self._entries.move_to_end(key)
            return entry[1]

    def put(self, key: K, value: V) -> None:
        with self._lock:
            self._entries[key] = (self.clock(), value)
            self._entries.move_to_end(key)
            if len(self._entries) > CACHE_SIZE:
                self._entries.popitem(last=False)

    def pop(self, key: K) -> None:
        with self._lock:
            self._entries.pop(key, None)

_USERNAME_RE = re.compile(r"^[A-Za-z0-9_]+$")
_DOMAIN_RE = re.compile(
    r"^(?:[A-Za-z0-9](?:[A-Za-z0-9-]*[A-Za-z0-9])?\.)*"
    r"[A-Za-z0-9](?:[A-Za-z0-9-]*[A-Za-z0-9])?$"
)


def valid_username(name: str) -> bool:
    return bool(_USERNAME_RE.match(name))


def valid_domain(domain: str) -> bool:
    """A bare hostname: letter, digit and hyphen labels; no port, no underscore."""
    return bool(_DOMAIN_RE.match(domain))


@dataclass(frozen=True, eq=False)
class AcctHandle:
    """A user@domain pair. Comparison and hashing are case-insensitive."""

    username: str
    domain: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "domain", self.domain.lower())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AcctHandle):
            return NotImplemented
        return (
            self.username.lower() == other.username.lower()
            and self.domain == other.domain
        )

    def __hash__(self) -> int:
        return hash((self.username.lower(), self.domain))

    def __str__(self) -> str:
        return f"{self.username}@{self.domain}"

    @property
    def acct_uri(self) -> str:
        return f"acct:{self.username}@{self.domain}"


def parse_acct(text: str, local_domain: str) -> AcctHandle:
    """Parse any of @user@host, user@host, @user, user into a handle.

    Bare usernames belong to local_domain. Raises MalformedHandle for empty
    parts, bad characters, or extra @ separators.
    """
    if not isinstance(text, str):
        raise MalformedHandle("handle is not a string")
    raw = text.strip()
    if raw.lower().startswith("acct:"):
        raw = raw[5:]
    if raw.startswith("@"):
        raw = raw[1:]
    if not raw:
        raise MalformedHandle("empty handle")
    parts = raw.split("@")
    if len(parts) == 1:
        username, domain = parts[0], local_domain
    elif len(parts) == 2:
        username, domain = parts
    else:
        raise MalformedHandle(f"too many @ separators in {text!r}")
    if not username or not valid_username(username):
        raise MalformedHandle(f"bad username in {text!r}")
    domain = domain.lower()
    if not valid_domain(domain):
        raise MalformedHandle(f"bad domain in {text!r}")
    if "." not in domain and domain != local_domain.lower():
        raise MalformedHandle(f"domain {domain!r} has no dot and is not local")
    return AcctHandle(username, domain)


def build_jrd(handle: AcctHandle, actor_uri: str) -> bytes:
    """The WebFinger (RFC 7033) body that points handle at its actor document."""
    document = {
        "subject": handle.acct_uri,
        "aliases": [actor_uri],
        "links": [{"rel": "self", "type": ACTIVITY_MEDIA_TYPE, "href": actor_uri}],
    }
    return json.dumps(document, ensure_ascii=False).encode("utf-8")


# Discovery steps, shared by Resolver.resolve, InstanceNode.fetch_actor and `moth-fed probe`.


def webfinger_url(handle: AcctHandle, test_mode: bool) -> str:
    scheme = "http" if test_mode else "https"
    return (
        f"{scheme}://{handle.domain}/.well-known/webfinger"
        f"?resource={quote(handle.acct_uri, safe='')}"
    )


def fetch_jrd(transport: Transport, handle: AcctHandle, test_mode: bool) -> bytes:
    """The handle's WebFinger body; ResolutionFailed unless a non-empty 200 arrives."""
    url = webfinger_url(handle, test_mode)
    return get_body(transport, url, JRD_MEDIA_TYPE, ResolutionFailed, f"{handle}: WebFinger")


def actor_uri_from_jrd(body: bytes, handle: AcctHandle, test_mode: bool) -> str:
    """The actor URI a WebFinger body advertises: the href of its first rel="self"
    link with an ActivityPub or absent media type; absolute, and https outside test mode."""
    try:
        data = json.loads(body)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ResolutionFailed(f"WebFinger body is not JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ResolutionFailed("WebFinger body is not a JSON object")
    subject = data.get("subject")
    if not isinstance(subject, str):
        raise ResolutionFailed("WebFinger document has no subject")
    links = data.get("links")
    for link in links if isinstance(links, list) else ():
        if not isinstance(link, dict) or link.get("rel") != "self":
            continue
        href, media_type = link.get("href"), link.get("type")
        activity_typed = not isinstance(media_type, str) or (
            "activity+json" in media_type or "ld+json" in media_type
        )
        if isinstance(href, str) and activity_typed:
            break
    else:
        raise NoSelfLink(f"{subject} has no rel=self ActivityPub link")
    if not is_absolute_http_uri(href):
        raise ResolutionFailed(f"{handle}: self link is not an absolute URI")
    if not test_mode and urlsplit(href).scheme != "https":
        raise ResolutionFailed(f"{handle}: self link is not https")
    return href


def fetch_actor_document(transport: Transport, uri: str) -> bytes:
    """The actor document's body; ActorFetchFailed unless a non-empty 200 arrives."""
    return get_body(transport, uri, ACTIVITY_MEDIA_TYPE, ActorFetchFailed, f"{uri}: actor endpoint")


def actor_from_document(body: bytes, uri: str) -> Actor:
    """The actor document fetched from uri; ActorFetchFailed if off-shape or not uri's."""
    try:
        actor = validate_actor_document(body)
    except MothError as exc:
        raise ActorFetchFailed(f"{uri}: invalid actor document: {exc.reason}: {exc}") from exc
    if actor.id != uri:
        raise ActorFetchFailed(f"{uri}: document claims to be {actor.id}")
    return actor


class Resolver:
    """Turns remote handles into actor URIs via WebFinger, with a TTL cache."""

    def __init__(
        self,
        local_domain: str,
        transport: Transport,
        clock: Callable[[], float],
        test_mode: bool = False,
    ) -> None:
        self.local_domain = local_domain.lower()
        self.transport = transport
        self.test_mode = test_mode
        self._cache: TtlCache[AcctHandle, str] = TtlCache(clock)

    def resolve(self, handle: AcctHandle) -> str:
        """The handle's actor URI."""
        if handle.domain == self.local_domain:
            raise ValueError("resolver is for remote handles only")
        actor_uri = self._cache.get(handle)
        if actor_uri is None:
            body = fetch_jrd(self.transport, handle, self.test_mode)
            actor_uri = actor_uri_from_jrd(body, handle, self.test_mode)
            self._cache.put(handle, actor_uri)
        return actor_uri
