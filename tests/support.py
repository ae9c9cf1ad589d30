"""Shared test plumbing: seeded object generators, hand-labeled extraction
corpora, a brute-force delivery-permission oracle, and an independent HTTP
signature verifier that reimplements the scheme from the primitives up.

Expected values here are frozen independently of the implementation under
test: the corpora are labeled by hand and the oracles recompute answers from
first principles.
"""
from __future__ import annotations

import base64
import hashlib
import json
import os
import random
import re
import string
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Any
from urllib.parse import urlsplit

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import padding

import mothfed
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
)
from mothfed.httpsig import generate_rsa_keypair
from mothfed.mastodon import Account, Mention, Status, Visibility

# One fixed keypair for tests that only need a syntactically valid PEM.
FIXED_PRIVATE_PEM, FIXED_PUBLIC_PEM = generate_rsa_keypair(1024)

EPOCH_2024 = datetime(2024, 1, 1, tzinfo=timezone.utc)


# --- generators --------------------------------------------------------------


def rand_word(rng: random.Random, length: int = 8) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(length))


def rand_username(rng: random.Random) -> str:
    return rng.choice(["a", "b", ""]) + rand_word(rng, rng.randint(3, 10))


def rand_domain(rng: random.Random) -> str:
    return f"{rand_word(rng, 5)}.{rng.choice(['example', 'test', 'social'])}"


def rand_datetime(rng: random.Random) -> datetime:
    # Microsecond resolution: anything finer cannot survive RFC3339 text.
    return EPOCH_2024 + timedelta(
        seconds=rng.randint(0, 10_000_000), microseconds=rng.randint(0, 999_999)
    )


def gen_actor(
    rng: random.Random, domain: str | None = None, username: str | None = None
) -> Actor:
    username = username or rand_username(rng)
    host = domain or rand_domain(rng)
    root = f"https://{host}/users/{username}"
    optional = lambda uri: uri if rng.random() < 0.7 else None  # noqa: E731
    return Actor(
        id=root,
        kind=rng.choice(list(ActorKind)),
        preferred_username=username,
        inbox=f"{root}/inbox",
        public_key=PublicKeySpec(
            key_id=f"{root}#main-key", owner=root, pem=FIXED_PUBLIC_PEM
        ),
        outbox=optional(f"{root}/outbox"),
        followers=optional(f"{root}/followers"),
        following=optional(f"{root}/following"),
    )


def gen_tag_entries(rng: random.Random) -> tuple[TagEntry, ...]:
    entries = []
    for _ in range(rng.randint(0, 3)):
        if rng.random() < 0.5:
            user, host = rand_username(rng), rand_domain(rng)
            entries.append(
                TagEntry(
                    TagKind.MENTION,
                    name=f"@{user}@{host}",
                    href=f"https://{host}/users/{user}",
                )
            )
        else:
            entries.append(TagEntry(TagKind.HASHTAG, name=f"#{rand_word(rng, 6)}"))
    return tuple(entries)


def gen_note(rng: random.Random, attributed_to: str | None = None) -> Note:
    host = rand_domain(rng)
    author = attributed_to or f"https://{host}/users/{rand_username(rng)}"
    audiences = [PUBLIC_COLLECTION, f"{author}/followers"]
    audiences += [f"https://{rand_domain(rng)}/users/{rand_username(rng)}" for _ in range(2)]
    to = tuple(dict.fromkeys(rng.sample(audiences, rng.randint(0, 2))))
    cc = tuple(dict.fromkeys(a for a in rng.sample(audiences, rng.randint(0, 2)) if a not in to))
    return Note(
        id=f"https://{host}/notes/{rng.randint(1, 10**9)}" if rng.random() < 0.9 else None,
        content=" ".join(rand_word(rng, rng.randint(2, 8)) for _ in range(rng.randint(1, 12))),
        attributed_to=author,
        to=to,
        cc=cc,
        tag_entries=gen_tag_entries(rng),
        published=rand_datetime(rng) if rng.random() < 0.8 else None,
        in_reply_to=f"https://{host}/notes/{rng.randint(1, 10**9)}"
        if rng.random() < 0.3
        else None,
    )


def gen_activity(rng: random.Random) -> Activity:
    kind = rng.choice(list(ActivityKind))
    host = rand_domain(rng)
    actor = f"https://{host}/users/{rand_username(rng)}"
    obj: Any
    if kind is ActivityKind.CREATE:
        obj = gen_note(rng, attributed_to=actor)
    elif kind is ActivityKind.ACCEPT and rng.random() < 0.5:
        obj = gen_actor(rng)
    else:
        obj = f"https://{rand_domain(rng)}/objects/{rng.randint(1, 10**9)}"
        if rng.random() < 0.1:
            obj = None
    return Activity(
        id=f"https://{host}/activities/{rng.randint(1, 10**9)}"
        if rng.random() < 0.9
        else None,
        kind=kind,
        actor=actor,
        object=obj,
        to=(PUBLIC_COLLECTION,) if rng.random() < 0.5 else (),
        cc=(f"{actor}/followers",) if rng.random() < 0.5 else (),
        published=rand_datetime(rng) if rng.random() < 0.6 else None,
    )


def gen_status(rng: random.Random, account_id: int = 1, domain: str = "home.test") -> Status:
    username = rand_username(rng)
    status_id = rng.randint(1, 10**12)
    mentions = tuple(
        Mention(
            acct=f"{rand_username(rng)}@{rand_domain(rng)}",
            actor_uri=f"https://{rand_domain(rng)}/users/{rand_username(rng)}",
        )
        for _ in range(rng.randint(0, 3))
    )
    # Mention actor URIs must be unique within one status.
    unique = tuple({m.actor_uri: m for m in mentions}.values())
    visibility = rng.choice(list(Visibility))
    if visibility is Visibility.DIRECT and not unique:
        user, host = rand_username(rng), rand_domain(rng)
        unique = (Mention(f"{user}@{host}", f"https://{host}/users/{user}"),)
    return Status(
        id=status_id,
        uri=f"https://{domain}/users/{username}/statuses/{status_id}",
        content=" ".join(rand_word(rng, 5) for _ in range(rng.randint(1, 10))),
        account_id=account_id,
        visibility=visibility,
        mentions=unique,
        tags=tuple(dict.fromkeys(rand_word(rng, 5) for _ in range(rng.randint(0, 3)))),
        created_at=rand_datetime(rng),
    )


def interactions_on(store: Any, object_uri: str) -> list[dict[str, Any]]:
    """The interaction records on an object, in id order, read from the snapshot."""
    records = json.loads(store.snapshot())["interactions"].values()
    return sorted((r for r in records if r["object_uri"] == object_uri), key=lambda r: r["id"])


def walk_for_nulls(value: Any, path: str = "$") -> list[str]:
    """Paths of every JSON null in a decoded document."""
    found = []
    if value is None:
        found.append(path)
    elif isinstance(value, dict):
        for key, item in value.items():
            found.extend(walk_for_nulls(item, f"{path}.{key}"))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            found.extend(walk_for_nulls(item, f"{path}[{index}]"))
    return found


# --- hand-labeled extraction corpora -----------------------------------------

LOCAL_DOMAIN = "local.test"

MENTION_CORPUS = [
    ("hello @bob", ["bob@local.test"]),
    ("hello @bob@b.test", ["bob@b.test"]),
    ("email a@b.com stays an email", []),
    ("@Alice and @alice again", ["Alice@local.test"]),
    ("@bob@B.TEST shouts", ["bob@b.test"]),
    ("(@carol) in brackets", ["carol@local.test"]),
    ("@@bob doubled", []),
    ("@bob, then @dora@c.example!", ["bob@local.test", "dora@c.example"]),
    ("no mentions here", []),
    ("@under_score9 works", ["under_score9@local.test"]),
    ("@bob@sub.domain.test deep", ["bob@sub.domain.test"]),
    ("trailing @", []),
    ("@bob@b.test and @bob@b.test twice", ["bob@b.test"]),
    ("@bob@c.test vs @bob@d.test differ", ["bob@c.test", "bob@d.test"]),
]

TAG_CORPUS = [
    ("#Cats and #cats", ["cats"]),
    ("no tags", []),
    ("#multi_word9 then #second", ["multi_word9", "second"]),
    ("not#atag glued", []),
    ("(#ok) wrapped", ["ok"]),
    ("##doubled", []),
    ("#MiXeD case folds", ["mixed"]),
    ("#a #b #a repeats", ["a", "b"]),
    ("ends with #", []),
]


# --- delivery permission oracle -----------------------------------------------


def expected_remote_inboxes(
    visibility: Visibility,
    accepted_followers: list[Account],
    mentioned: list[Account],
) -> set[str]:
    """Who must receive a status, computed from the rules in prose:
    followers get public and followers-only posts; mentioned users get
    everything; nobody else gets anything; local inboxes are never targets."""
    targets: set[str] = set()
    if visibility in (Visibility.PUBLIC, Visibility.FOLLOWERS):
        targets.update(a.inbox_uri for a in accepted_followers if a.is_remote)
    targets.update(a.inbox_uri for a in mentioned if a.is_remote)
    return targets


def may_view(
    viewer: Account,
    status: Status,
    author: Account,
    follows: set[tuple[str, int]],
) -> bool:
    """First-principles visibility: own posts always; mentions always;
    public/followers only through an accepted follow edge."""
    if viewer.id == author.id:
        return True
    if any(m.actor_uri == viewer.actor_uri for m in status.mentions):
        return True
    if status.visibility is Visibility.DIRECT:
        return False
    return (viewer.actor_uri, author.id) in follows


# --- independent signature verification ----------------------------------------

_SIG_FIELD = re.compile(r'(\w+)="([^"]*)"')


def independent_verify(
    method: str, url: str, headers: dict[str, str], body: bytes, public_pem: str
) -> bool:
    """Re-verify a signed request using only the cryptography primitives,
    reconstructing the digest and signing string without touching the
    implementation under test."""
    lowered = {k.lower(): v for k, v in headers.items()}
    fields = dict(_SIG_FIELD.findall(lowered.get("signature", "")))
    if not fields.get("keyId") or not fields.get("signature"):
        return False

    digest = "SHA-256=" + base64.b64encode(hashlib.sha256(body).digest()).decode()
    if lowered.get("digest") != digest:
        return False

    parts = urlsplit(url)
    target = parts.path + (f"?{parts.query}" if parts.query else "")
    lines = []
    for name in fields.get("headers", "date").split():
        if name == "(request-target)":
            lines.append(f"(request-target): {method.lower()} {target}")
        elif name in lowered:
            lines.append(f"{name}: {lowered[name]}")
        else:
            return False
    message = "\n".join(lines).encode("utf-8")

    key = serialization.load_pem_public_key(public_pem.encode("ascii"))
    try:
        key.verify(
            base64.b64decode(fields["signature"]),
            message,
            padding.PKCS1v15(),
            hashes.SHA256(),
        )
        return True
    except InvalidSignature:
        return False


def child_env() -> dict:
    """The environment for a child Python that must import this same mothfed.

    The child runs from another directory, so a relative PYTHONPATH (the
    ``PYTHONPATH=src`` way of running the suite) would not resolve there;
    the directory holding the imported package is put first as an absolute
    path, which holds whether or not the package is installed.
    """
    env = dict(os.environ)
    package_root = str(Path(mothfed.__file__).resolve().parent.parent)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        package_root + os.pathsep + inherited if inherited else package_root
    )
    return env
