import dataclasses
import random
from datetime import datetime, timezone

import pytest

from mothfed.activitypub import PUBLIC_COLLECTION, Note, TagEntry, TagKind, actor_from_dict
from mothfed.errors import RemoteAccount
from mothfed.mastodon import (
    Account,
    Mention,
    Status,
    Visibility,
    account_to_actor,
    actor_to_account,
    audience_for,
    extract_mentions,
    extract_tags,
    note_to_status,
    sanitize_html,
    status_to_note,
    visibility_from_audience,
)

from .support import (
    LOCAL_DOMAIN,
    MENTION_CORPUS,
    TAG_CORPUS,
    gen_actor,
    gen_status,
)

NOW = datetime(2024, 1, 1, tzinfo=timezone.utc)

ALICE = Account(
    id=1,
    username="alice",
    acct="alice",
    display_name="",
    actor_uri="https://local.test/users/alice",
    inbox_uri="https://local.test/users/alice/inbox",
    public_key_pem="PEM",
    created_at=NOW,
)

BOB_REMOTE = Account(
    id=2,
    username="bob",
    acct="bob@b.test",
    display_name="",
    actor_uri="https://b.test/users/bob",
    inbox_uri="https://b.test/users/bob/inbox",
    public_key_pem="PEM",
    created_at=NOW,
)


# --- text scanning, against the hand-labeled corpus ---------------------------


@pytest.mark.parametrize("text,expected", MENTION_CORPUS)
def test_mention_extraction_corpus(text, expected):
    assert extract_mentions(text, LOCAL_DOMAIN) == expected


@pytest.mark.parametrize("text,expected", TAG_CORPUS)
def test_tag_extraction_corpus(text, expected):
    assert extract_tags(text) == expected


def test_mention_extraction_keeps_first_spelling():
    assert extract_mentions("@Bob then @bob again", LOCAL_DOMAIN) == [
        "Bob@local.test"
    ]


# --- sanitizer ------------------------------------------------------------------


@pytest.mark.parametrize(
    "dirty,clean",
    [
        ("plain text", "plain text"),
        ("<p>hi</p>", "<p>hi</p>"),
        ("<script>alert(1)</script>after", "after"),
        ("<style>p{}</style>kept", "kept"),
        ('<a href="https://x.test/y">link</a>', '<a href="https://x.test/y">link</a>'),
        ('<a href="javascript:alert(1)">x</a>', "<a>x</a>"),
        ('<a href="JavaScript:void(0)">x</a>', "<a>x</a>"),
        ('<a href="  javascript:alert(1)">x</a>', "<a>x</a>"),
        # Scheme must *equal* javascript, not merely contain it.
        ('<a href="notjavascript:x">y</a>', '<a href="notjavascript:x">y</a>'),
        ('<a href="data:text/html,hi">x</a>', "<a>x</a>"),
        ('<p onclick="steal()">x</p>', "<p>x</p>"),
        ('<p ONMOUSEOVER="steal()">x</p>', "<p>x</p>"),
        ("a < b and c > d", "a &lt; b and c &gt; d"),
        ("already &amp; escaped", "already &amp; escaped"),
        ("line<br>break", "line<br>break"),
        ("<script><p>nested</p></script>out", "out"),
    ],
)
def test_sanitize_html_cases(dirty, clean):
    assert sanitize_html(dirty) == clean


def test_sanitize_html_is_idempotent():
    rng = random.Random(55)
    fragments = [
        "<p>hello <b>world</b></p>",
        '<a href="javascript:x">bad</a> & <script>gone()</script>',
        "1 < 2 > 0 & done",
        '<img src="https://x.test/p.png" onerror="x()">',
    ]
    for _ in range(50):
        text = " ".join(rng.sample(fragments, k=rng.randint(1, len(fragments))))
        once = sanitize_html(text)
        assert sanitize_html(once) == once


# --- audience mapping -------------------------------------------------------------


FOLLOWERS = "https://local.test/users/alice/followers"
MENTIONS = ["https://b.test/users/bob", "https://c.test/users/carol"]


def test_audience_for_public():
    to, cc = audience_for(Visibility.PUBLIC, FOLLOWERS, MENTIONS)
    assert to == (PUBLIC_COLLECTION,)
    assert cc == (FOLLOWERS, *MENTIONS)


def test_audience_for_followers():
    to, cc = audience_for(Visibility.FOLLOWERS, FOLLOWERS, MENTIONS)
    assert to == (FOLLOWERS,)
    assert cc == tuple(MENTIONS)


def test_audience_for_direct():
    to, cc = audience_for(Visibility.DIRECT, FOLLOWERS, MENTIONS)
    assert to == tuple(MENTIONS)
    assert cc == ()


@pytest.mark.parametrize("visibility", list(Visibility))
def test_audience_mapping_round_trips(visibility):
    to, cc = audience_for(visibility, FOLLOWERS, MENTIONS)
    assert visibility_from_audience(to, cc, FOLLOWERS) is visibility


def test_visibility_from_audience_without_followers_knowledge():
    # A remote server can't recognize our followers URI; unknown goes direct.
    assert (
        visibility_from_audience((FOLLOWERS,), (), None) is Visibility.DIRECT
    )
    assert (
        visibility_from_audience((), (PUBLIC_COLLECTION,), None)
        is Visibility.PUBLIC
    )


# --- account/actor conversions ------------------------------------------------------


def test_actor_to_account_remote_gets_domain_qualified_acct():
    actor = gen_actor(random.Random(3), domain="b.test", username="bob")
    account = actor_to_account(actor, LOCAL_DOMAIN, NOW)
    assert account.acct == "bob@b.test"
    assert account.is_remote
    assert account.actor_uri == actor.id
    assert account.inbox_uri == actor.inbox
    assert account.public_key_pem == actor.public_key.pem


def test_actor_to_account_local_gets_bare_acct():
    actor = gen_actor(random.Random(4), domain=LOCAL_DOMAIN, username="alice")
    account = actor_to_account(actor, LOCAL_DOMAIN, NOW)
    assert account.acct == "alice"
    assert not account.is_remote


def test_actor_to_account_takes_the_host_the_actor_parser_reads():
    # Ids actor_from_dict accepts; the acct host is the host its endpoint checks compare.
    for actor_id, acct in (
        ("http://x@b.test/users/bob", "bob@b.test"),
        ("http://[::1]:8080/users/bob", "bob@::1"),
        ("https://B.Test:8443/users/bob", "bob@b.test"),
    ):
        actor = actor_from_dict({
            "type": "Person",
            "id": actor_id,
            "preferredUsername": "bob",
            "inbox": f"{actor_id}/inbox",
            "publicKey": {"publicKeyPem": "pem"},
        })
        assert actor_to_account(actor, LOCAL_DOMAIN, NOW).acct == acct


def test_account_to_actor_builds_conventional_uris():
    actor = account_to_actor(ALICE)
    assert actor.id == "https://local.test/users/alice"
    assert actor.inbox == "https://local.test/users/alice/inbox"
    assert actor.outbox == "https://local.test/users/alice/outbox"
    assert actor.followers == "https://local.test/users/alice/followers"
    assert actor.public_key.key_id == "https://local.test/users/alice#main-key"
    assert actor.public_key.owner == actor.id


def test_account_to_actor_reads_the_uris_stored_in_the_row():
    minted = dataclasses.replace(
        ALICE,
        actor_uri="http://old.test/users/alice",
        inbox_uri="http://old.test/inboxes/alice",
    )
    actor = account_to_actor(minted)
    assert actor.id == "http://old.test/users/alice"
    assert actor.inbox == "http://old.test/inboxes/alice"
    assert actor.public_key.key_id == "http://old.test/users/alice#main-key"
    assert actor.public_key.pem == "PEM"


def test_account_to_actor_refuses_remote_accounts():
    with pytest.raises(RemoteAccount):
        account_to_actor(BOB_REMOTE)


# --- status <-> note ------------------------------------------------------------------


def lookup_known(uri):
    return {BOB_REMOTE.actor_uri: BOB_REMOTE}.get(uri)


def make_status(**overrides):
    fields = dict(
        id=10,
        uri="https://local.test/users/alice/statuses/10",
        content="hi @bob@b.test #cats",
        account_id=1,
        visibility=Visibility.PUBLIC,
        mentions=(Mention("bob@b.test", BOB_REMOTE.actor_uri),),
        tags=("cats",),
        created_at=NOW,
    )
    fields.update(overrides)
    return Status(**fields)


def test_status_to_note_wires_mentions_and_tags():
    note = status_to_note(make_status(), ALICE)
    assert note.id == "https://local.test/users/alice/statuses/10"
    assert note.attributed_to == ALICE.actor_uri
    assert note.to == (PUBLIC_COLLECTION,)
    assert f"{ALICE.actor_uri}/followers" in note.cc
    assert BOB_REMOTE.actor_uri in note.cc
    assert TagEntry(TagKind.MENTION, "@bob@b.test", BOB_REMOTE.actor_uri) in note.tag_entries
    assert TagEntry(TagKind.HASHTAG, "#cats") in note.tag_entries


def test_note_to_status_round_trip_preserves_the_visible_parts():
    rng = random.Random(99)
    for _ in range(40):
        status = gen_status(rng)
        note = status_to_note(status, ALICE)
        lookup = {m.actor_uri: Account(
            id=100,
            username=m.acct.split("@")[0],
            acct=m.acct,
            display_name="",
            actor_uri=m.actor_uri,
            inbox_uri=m.actor_uri + "/inbox",
            public_key_pem="PEM",
            created_at=NOW,
        ) for m in status.mentions}
        back, warnings = note_to_status(note, ALICE, lookup.get, NOW)
        assert warnings == []
        assert back.content == status.content
        assert back.visibility == status.visibility
        assert {m.actor_uri for m in back.mentions} == {
            m.actor_uri for m in status.mentions
        }
        assert set(back.tags) == set(status.tags)


def test_note_to_status_unknown_mention_keeps_href_and_warns():
    note = Note(
        id="https://b.test/n/1",
        content="hi",
        attributed_to=BOB_REMOTE.actor_uri,
        to=(PUBLIC_COLLECTION,),
        tag_entries=(
            TagEntry(TagKind.MENTION, "@ghost@g.test", "https://g.test/users/ghost"),
        ),
        published=NOW,
    )
    status, warnings = note_to_status(note, BOB_REMOTE, lambda uri: None, NOW)
    assert status.mentions == (Mention("ghost@g.test", "https://g.test/users/ghost"),)
    assert any("not a known account" in w for w in warnings)


def test_note_to_status_widens_unaddressed_direct_and_warns():
    note = Note(
        id="https://b.test/n/2",
        content="whisper to nobody",
        attributed_to=BOB_REMOTE.actor_uri,
        to=(),
        published=NOW,
    )
    status, warnings = note_to_status(note, BOB_REMOTE, lookup_known, NOW)
    assert status.visibility is Visibility.FOLLOWERS
    assert any("widened" in w for w in warnings)


def test_note_to_status_sanitizes_and_warns():
    note = Note(
        id="https://b.test/n/3",
        content='<script>x()</script><p onclick="y()">hello</p>',
        attributed_to=BOB_REMOTE.actor_uri,
        to=(PUBLIC_COLLECTION,),
        published=NOW,
    )
    status, warnings = note_to_status(note, BOB_REMOTE, lookup_known, NOW)
    assert status.content == "<p>hello</p>"
    assert any("sanitized" in w for w in warnings)


def test_note_to_status_dedupes_mentions_by_target():
    note = Note(
        id="https://b.test/n/4",
        content="hi",
        attributed_to=BOB_REMOTE.actor_uri,
        to=(BOB_REMOTE.actor_uri,),
        tag_entries=(
            TagEntry(TagKind.MENTION, "@bob@b.test", BOB_REMOTE.actor_uri),
            TagEntry(TagKind.MENTION, "@BOB@b.test", BOB_REMOTE.actor_uri),
        ),
        published=NOW,
    )
    status, warnings = note_to_status(note, BOB_REMOTE, lookup_known, NOW)
    assert status.mentions == (Mention("bob@b.test", BOB_REMOTE.actor_uri),)
    assert warnings == []


def test_note_to_status_falls_back_to_received_time():
    note = Note(
        id="https://b.test/n/5",
        content="undated",
        attributed_to=BOB_REMOTE.actor_uri,
        to=(PUBLIC_COLLECTION,),
    )
    received = datetime(2024, 6, 1, tzinfo=timezone.utc)
    status, _ = note_to_status(note, BOB_REMOTE, lookup_known, received)
    assert status.created_at == received
