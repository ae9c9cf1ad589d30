"""Account and Status model plus the mapping to and from ActivityPub objects.

The model deliberately mirrors the client-facing shape (accounts addressed by
acct strings, statuses carrying a visibility level and extracted mentions and
hashtags) while the wire shape lives in activitypub. Conversions between the
two are total: anything that cannot be mapped cleanly degrades with a warning
instead of failing the whole object.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import datetime
from enum import Enum
from html.parser import HTMLParser
from typing import Callable

from .activitypub import (
    PUBLIC_COLLECTION,
    Actor,
    ActorKind,
    Note,
    PublicKeySpec,
    TagEntry,
    TagKind,
    uri_host,
)
from .errors import RemoteAccount


class Visibility(str, Enum):
    PUBLIC = "public"
    FOLLOWERS = "followers"
    DIRECT = "direct"


@dataclass(frozen=True, slots=True)
class Account:
    id: int | None
    username: str
    acct: str
    display_name: str
    actor_uri: str
    inbox_uri: str
    public_key_pem: str
    created_at: datetime

    @property
    def is_remote(self) -> bool:
        return "@" in self.acct


@dataclass(frozen=True, slots=True)
class Mention:
    acct: str
    actor_uri: str


@dataclass(frozen=True, slots=True)
class Status:
    id: int | None
    uri: str
    content: str
    account_id: int
    visibility: Visibility
    mentions: tuple[Mention, ...]
    tags: tuple[str, ...]
    created_at: datetime
    in_reply_to_id: int | None = None


# --- text extraction --------------------------------------------------------

# A mention is @user or @user@host not preceded by a word character (so
# email-like text "a@b" and doubled "@@" stay out). Domains need at least one
# label; the dot-separated tail is optional for local shorthand. Each pattern
# starts with its literal, so the lookbehind is tried only where one stands.
_MENTION_RE = re.compile(
    r"@(?<![\w@]@)([A-Za-z0-9_]+)(?:@((?:[A-Za-z0-9-]+\.)+[A-Za-z0-9-]+))?"
)
_TAG_RE = re.compile(r"#(?<![\w#]#)([A-Za-z0-9_]+)")


def extract_mentions(text: str, local_domain: str) -> list[str]:
    """Handles mentioned in text, as user@domain strings.

    Bare @user resolves against local_domain. Order is first appearance;
    duplicates (case-insensitive) collapse to the first spelling.
    """
    found: dict[str, str] = {}
    for match in _MENTION_RE.finditer(text):
        username, domain = match.group(1), match.group(2)
        domain = (domain or local_domain).lower()
        key = f"{username.lower()}@{domain}"
        if key not in found:
            found[key] = f"{username}@{domain}"
    return list(found.values())


def extract_tags(text: str) -> list[str]:
    """Hashtag names in text, lowercased, deduplicated, in first-seen order."""
    found: dict[str, None] = {}
    for match in _TAG_RE.finditer(text):
        found.setdefault(match.group(1).lower())
    return list(found)


# --- HTML sanitizer ---------------------------------------------------------

_DROP_SUBTREE = {"script", "style"}
_VOID_ELEMENTS = {"br", "hr", "img", "area", "base", "col", "embed", "input",
                  "link", "meta", "source", "track", "wbr"}


def _escape_text(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _escape_attr(text: str) -> str:
    return _escape_text(text).replace('"', "&quot;")


class _Sanitizer(HTMLParser):
    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.out: list[str] = []
        self._drop_depth = 0

    def _attrs_markup(self, attrs: list[tuple[str, str | None]]) -> str:
        parts = []
        for name, value in attrs:
            lowered = name.lower()
            if lowered.startswith("on"):
                continue
            if lowered == "href" and value is not None:
                # Browsers strip surrounding whitespace before scheme parsing.
                candidate = value.strip()
                scheme = candidate.split(":", 1)[0].lower() if ":" in candidate else ""
                if scheme in ("javascript", "data", "vbscript"):
                    continue
            if value is None:
                parts.append(f" {name}")
            else:
                parts.append(f' {name}="{_escape_attr(value)}"')
        return "".join(parts)

    def handle_starttag(self, tag: str, attrs: list[tuple[str, str | None]]) -> None:
        if tag in _DROP_SUBTREE:
            self._drop_depth += 1
            return
        if self._drop_depth:
            return
        self.out.append(f"<{tag}{self._attrs_markup(attrs)}>")

    def handle_startendtag(self, tag: str, attrs: list[tuple[str, str | None]]) -> None:
        if tag in _DROP_SUBTREE or self._drop_depth:
            return
        self.out.append(f"<{tag}{self._attrs_markup(attrs)} />")

    def handle_endtag(self, tag: str) -> None:
        if tag in _DROP_SUBTREE:
            if self._drop_depth:
                self._drop_depth -= 1
            return
        if self._drop_depth:
            return
        if tag in _VOID_ELEMENTS:
            return
        self.out.append(f"</{tag}>")

    def handle_data(self, data: str) -> None:
        if not self._drop_depth:
            self.out.append(_escape_text(data))


def sanitize_html(text: str) -> str:
    """Strip script/style subtrees and event-handler attributes, re-escape text.

    Idempotent: sanitizing already-sanitized markup leaves it unchanged.
    """
    parser = _Sanitizer()
    parser.feed(text)
    parser.close()
    return "".join(parser.out)


# --- audience mapping -------------------------------------------------------


def audience_for(
    visibility: Visibility,
    followers_uri: str,
    mention_uris: list[str],
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Map a visibility level to the Note's to/cc pair."""
    if visibility is Visibility.PUBLIC:
        return (PUBLIC_COLLECTION,), tuple(dict.fromkeys([followers_uri, *mention_uris]))
    if visibility is Visibility.FOLLOWERS:
        return (followers_uri,), tuple(dict.fromkeys(mention_uris))
    return tuple(dict.fromkeys(mention_uris)), ()


def visibility_from_audience(
    to: tuple[str, ...],
    cc: tuple[str, ...],
    author_followers_uri: str | None,
) -> Visibility:
    if PUBLIC_COLLECTION in to or PUBLIC_COLLECTION in cc:
        return Visibility.PUBLIC
    if author_followers_uri is not None and (
        author_followers_uri in to or author_followers_uri in cc
    ):
        return Visibility.FOLLOWERS
    return Visibility.DIRECT


# --- conversions ------------------------------------------------------------


def actor_to_account(actor: Actor, local_domain: str, now: datetime) -> Account:
    """Project a fetched actor onto the account model (id unassigned)."""
    host = uri_host(actor.id)
    if host == local_domain.lower():
        acct = actor.preferred_username
    else:
        acct = f"{actor.preferred_username}@{host}"
    return Account(
        id=None,
        username=actor.preferred_username,
        acct=acct,
        display_name="",
        actor_uri=actor.id,
        inbox_uri=actor.inbox,
        public_key_pem=actor.public_key.pem,
        created_at=now,
    )


def account_to_actor(account: Account) -> Actor:
    """Wire actor document for a local account, from the URIs its row was
    created with: they never change, whatever the config says later.

    Raises RemoteAccount for accounts that live on another server; we never
    republish those.
    """
    if account.is_remote:
        raise RemoteAccount(account.acct)
    root = account.actor_uri
    return Actor(
        id=root,
        kind=ActorKind.PERSON,
        preferred_username=account.username,
        inbox=account.inbox_uri,
        public_key=PublicKeySpec(
            key_id=f"{root}#main-key",
            owner=root,
            pem=account.public_key_pem,
        ),
        outbox=f"{root}/outbox",
        followers=f"{root}/followers",
        following=f"{root}/following",
    )


def status_to_note(
    status: Status,
    author: Account,
    in_reply_to_uri: str | None = None,
) -> Note:
    followers_uri = f"{author.actor_uri}/followers"
    mention_uris = [m.actor_uri for m in status.mentions]
    to, cc = audience_for(status.visibility, followers_uri, mention_uris)
    tag_entries = [
        TagEntry(TagKind.MENTION, name=f"@{m.acct}", href=m.actor_uri)
        for m in status.mentions
    ]
    tag_entries.extend(TagEntry(TagKind.HASHTAG, name=f"#{t}") for t in status.tags)
    return Note(
        id=status.uri,
        content=status.content,
        attributed_to=author.actor_uri,
        to=to,
        cc=cc,
        tag_entries=tuple(tag_entries),
        published=status.created_at,
        in_reply_to=in_reply_to_uri,
    )


def note_to_status(
    note: Note,
    author: Account,
    account_by_uri: Callable[[str], Account | None],
    received_at: datetime,
    in_reply_to_id: int | None = None,
) -> tuple[Status, list[str]]:
    """Project an inbound Note onto a Status owned by author's account.

    Never raises for semantic oddities: unmappable aspects degrade with a
    warning string. account_by_uri is consulted to render mention accts for
    actors we already know; unknown mention targets keep their href.
    """
    warnings: list[str] = []
    if author.id is None:
        raise ValueError("author account has no id")

    followers_uri = f"{author.actor_uri}/followers"
    visibility = visibility_from_audience(note.to, note.cc, followers_uri)

    mentions: list[Mention] = []
    seen: set[str] = set()
    for entry in note.tag_entries:
        if entry.kind is not TagKind.MENTION or entry.href is None:
            continue
        if entry.href in seen:
            continue
        seen.add(entry.href)
        known = account_by_uri(entry.href)
        if known is not None:
            mentions.append(Mention(acct=known.acct, actor_uri=entry.href))
        else:
            fallback = entry.name.lstrip("@") if entry.name else entry.href
            mentions.append(Mention(acct=fallback, actor_uri=entry.href))
            warnings.append(f"mention target {entry.href} is not a known account")

    if visibility is Visibility.DIRECT and not mentions:
        # A message addressed to nobody is unreadable by everyone; keep it
        # author-visible rather than dropping it.
        visibility = Visibility.FOLLOWERS
        warnings.append("direct note without mentions widened to followers")

    tags: dict[str, None] = {}
    for entry in note.tag_entries:
        if entry.kind is TagKind.HASHTAG:
            name = entry.name.lstrip("#").lower()
            if name:
                tags.setdefault(name)

    content = sanitize_html(note.content)
    if content != note.content:
        warnings.append("content was sanitized")

    status = Status(
        id=None,
        uri=note.id or "",
        content=content,
        account_id=author.id,
        visibility=visibility,
        mentions=tuple(mentions),
        tags=tuple(tags),
        created_at=note.published or received_at,
        in_reply_to_id=in_reply_to_id,
    )
    return status, warnings
