"""Handles (user@domain), WebFinger documents, and remote discovery: handle to actor."""
from __future__ import annotations

import json
import re
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Generic, TypeVar
from urllib.parse import quote, urlsplit

from .activitypub import ACTIVITY_MEDIA_TYPE, Actor, is_absolute_http_uri, validate_actor_document
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
    if not domain or not _DOMAIN_RE.match(domain):
        raise MalformedHandle(f"bad domain in {text!r}")
    if "." not in domain and domain != local_domain.lower():
        raise MalformedHandle(f"domain {domain!r} has no dot and is not local")
    return AcctHandle(username, domain)


@dataclass(frozen=True)
class JrdLink:
    rel: str
    type: str | None = None
    href: str | None = None


@dataclass(frozen=True)
class JrdDocument:
    subject: str
    aliases: tuple[str, ...] = ()
    links: tuple[JrdLink, ...] = ()

    def to_json(self) -> str:
        links = []
        for link in self.links:
            entry: dict[str, Any] = {"rel": link.rel}
            if link.type is not None:
                entry["type"] = link.type
            if link.href is not None:
                entry["href"] = link.href
            links.append(entry)
        data: dict[str, Any] = {"subject": self.subject}
        if self.aliases:
            data["aliases"] = list(self.aliases)
        data["links"] = links
        return json.dumps(data, ensure_ascii=False)

    @classmethod
    def from_json(cls, text: str | bytes) -> "JrdDocument":
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
            raise ResolutionFailed(f"WebFinger body is not JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ResolutionFailed("WebFinger body is not a JSON object")
        subject = data.get("subject")
        if not isinstance(subject, str):
            raise ResolutionFailed("WebFinger document has no subject")
        aliases = tuple(
            a for a in data.get("aliases", []) if isinstance(a, str)
        ) if isinstance(data.get("aliases"), list) else ()
        links = []
        raw_links = data.get("links")
        if isinstance(raw_links, list):
            for item in raw_links:
                if not isinstance(item, dict):
                    continue
                rel = item.get("rel")
                if not isinstance(rel, str):
                    continue
                type_ = item.get("type")
                href = item.get("href")
                links.append(
                    JrdLink(
                        rel=rel,
                        type=type_ if isinstance(type_, str) else None,
                        href=href if isinstance(href, str) else None,
                    )
                )
        return cls(subject=subject, aliases=aliases, links=tuple(links))

    def self_link(self) -> str:
        """The actor URI advertised by this document.

        Raises NoSelfLink when no rel="self" link with an ActivityPub media
        type carries an href.
        """
        for link in self.links:
            if link.rel != "self" or link.href is None:
                continue
            if link.type is not None and "activity+json" not in link.type and "ld+json" not in link.type:
                continue
            return link.href
        raise NoSelfLink(f"{self.subject} has no rel=self ActivityPub link")


def build_jrd(handle: AcctHandle, actor_uri: str) -> JrdDocument:
    return JrdDocument(
        subject=handle.acct_uri,
        aliases=(actor_uri,),
        links=(
            JrdLink(rel="self", type=ACTIVITY_MEDIA_TYPE, href=actor_uri),
        ),
    )


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
    return get_body(transport, url, "application/jrd+json", ResolutionFailed, f"{handle}: WebFinger")


def actor_uri_from_jrd(body: bytes, handle: AcctHandle, test_mode: bool) -> str:
    """The actor URI a WebFinger body advertises: absolute, and https outside test mode."""
    actor_uri = JrdDocument.from_json(body).self_link()
    if not is_absolute_http_uri(actor_uri):
        raise ResolutionFailed(f"{handle}: self link is not an absolute URI")
    if not test_mode and urlsplit(actor_uri).scheme != "https":
        raise ResolutionFailed(f"{handle}: self link is not https")
    return actor_uri


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


@dataclass(frozen=True)
class ResolvedActorRef:
    handle: AcctHandle
    actor_uri: str


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
        self._cache: TtlCache[AcctHandle, ResolvedActorRef] = TtlCache(clock)

    def resolve(self, handle: AcctHandle) -> ResolvedActorRef:
        if handle.domain == self.local_domain:
            raise ValueError("resolver is for remote handles only")
        ref = self._cache.get(handle)
        if ref is None:
            body = fetch_jrd(self.transport, handle, self.test_mode)
            ref = ResolvedActorRef(handle, actor_uri_from_jrd(body, handle, self.test_mode))
            self._cache.put(handle, ref)
        return ref
