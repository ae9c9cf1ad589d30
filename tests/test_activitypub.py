import json
import random
from datetime import datetime, timezone

import pytest

from mothfed.activitypub import (
    AS_CONTEXT,
    PUBLIC_COLLECTION,
    SECURITY_CONTEXT,
    Activity,
    ActivityKind,
    Actor,
    ActorKind,
    Note,
    PublicKeySpec,
    TagEntry,
    TagKind,
    format_timestamp,
    parse_activity,
    parse_note,
    parse_timestamp,
    serialize_object,
    to_wire_dict,
    validate_actor_document,
)
from mothfed.errors import (
    MalformedDocument,
    MissingEndpoint,
    MissingKey,
    MissingRequiredField,
    UnsupportedType,
)

from .support import FIXED_PUBLIC_PEM, gen_activity, gen_actor, gen_note, walk_for_nulls


def make_actor(**overrides):
    root = "https://a.test/users/alice"
    fields = dict(
        id=root,
        kind=ActorKind.PERSON,
        preferred_username="alice",
        inbox=f"{root}/inbox",
        public_key=PublicKeySpec(f"{root}#main-key", root, FIXED_PUBLIC_PEM),
        outbox=f"{root}/outbox",
        followers=f"{root}/followers",
        following=f"{root}/following",
    )
    fields.update(overrides)
    return Actor(**fields)


# --- serialization shape ------------------------------------------------------


def test_actor_serializes_with_both_contexts():
    data = json.loads(serialize_object(make_actor()))
    assert data["@context"] == [AS_CONTEXT, SECURITY_CONTEXT]
    assert data["type"] == "Person"
    assert data["publicKey"]["id"] == "https://a.test/users/alice#main-key"
    assert data["publicKey"]["owner"] == data["id"]


def test_note_omits_absent_optionals_rather_than_emitting_null():
    note = Note(id=None, content="hi", attributed_to="https://a.test/users/alice")
    data = json.loads(serialize_object(note))
    assert "id" not in data
    assert "to" not in data and "cc" not in data
    assert "published" not in data and "inReplyTo" not in data
    assert walk_for_nulls(data) == []


def test_embedded_object_has_no_context_of_its_own():
    note = Note(
        id="https://a.test/n/1",
        content="x",
        attributed_to="https://a.test/users/alice",
    )
    activity = Activity(
        id="https://a.test/act/1",
        kind=ActivityKind.CREATE,
        actor="https://a.test/users/alice",
        object=note,
    )
    data = json.loads(serialize_object(activity))
    assert data["@context"] == AS_CONTEXT
    assert "@context" not in data["object"]


def test_serialized_bytes_keep_their_member_order():
    # Peers may hash or diff these bodies, so the exact text is pinned, not just its parse.
    root = "https://a.test/users/alice"
    actor = make_actor(
        public_key=PublicKeySpec(f"{root}#main-key", root, "-----BEGIN PUBLIC KEY-----\nAAAA\n"),
    )
    when = datetime(2024, 3, 1, 12, 30, 45, tzinfo=timezone.utc)
    note = Note(
        id=f"{root}/statuses/1",
        content="<p>héllo #moth</p>",
        attributed_to=root,
        to=(PUBLIC_COLLECTION,),
        cc=(f"{root}/followers",),
        tag_entries=(
            TagEntry(TagKind.HASHTAG, "#moth", "https://a.test/tags/moth"),
            TagEntry(TagKind.MENTION, "@bob@b.test"),
        ),
        published=when,
        in_reply_to="https://b.test/n/9",
    )
    create = Activity(
        id=f"{root}/statuses/1/activity",
        kind=ActivityKind.CREATE,
        actor=root,
        object=note,
        to=note.to,
        cc=note.cc,
        published=when,
    )
    note_members = (
        '"id": "https://a.test/users/alice/statuses/1", "type": "Note", '
        '"attributedTo": "https://a.test/users/alice", "content": "<p>héllo #moth</p>", '
        '"published": "2024-03-01T12:30:45Z", '
        '"to": ["https://www.w3.org/ns/activitystreams#Public"], '
        '"cc": ["https://a.test/users/alice/followers"], '
        '"tag": [{"type": "Hashtag", "href": "https://a.test/tags/moth", "name": "#moth"}, '
        '{"type": "Mention", "name": "@bob@b.test"}], "inReplyTo": "https://b.test/n/9"'
    )
    assert serialize_object(actor) == (
        '{"@context": ["https://www.w3.org/ns/activitystreams", "https://w3id.org/security/v1"], '
        '"id": "https://a.test/users/alice", "type": "Person", "preferredUsername": "alice", '
        '"inbox": "https://a.test/users/alice/inbox", "outbox": "https://a.test/users/alice/outbox", '
        '"followers": "https://a.test/users/alice/followers", '
        '"following": "https://a.test/users/alice/following", '
        '"publicKey": {"id": "https://a.test/users/alice#main-key", '
        '"owner": "https://a.test/users/alice", '
        '"publicKeyPem": "-----BEGIN PUBLIC KEY-----\\nAAAA\\n"}}'
    )
    assert serialize_object(note) == (
        '{"@context": "https://www.w3.org/ns/activitystreams", ' + note_members + "}"
    )
    assert serialize_object(create) == (
        '{"@context": "https://www.w3.org/ns/activitystreams", '
        '"id": "https://a.test/users/alice/statuses/1/activity", "type": "Create", '
        '"actor": "https://a.test/users/alice", "published": "2024-03-01T12:30:45Z", '
        '"to": ["https://www.w3.org/ns/activitystreams#Public"], '
        '"cc": ["https://a.test/users/alice/followers"], '
        '"object": {' + note_members + "}}"
    )


def test_mention_tag_wire_shape():
    note = Note(
        id="https://a.test/n/1",
        content="hi @bob@b.test #cats",
        attributed_to="https://a.test/users/alice",
        tag_entries=(
            TagEntry(TagKind.MENTION, "@bob@b.test", "https://b.test/users/bob"),
            TagEntry(TagKind.HASHTAG, "#cats"),
        ),
    )
    tags = json.loads(serialize_object(note))["tag"]
    assert tags[0] == {
        "type": "Mention",
        "href": "https://b.test/users/bob",
        "name": "@bob@b.test",
    }
    assert tags[1] == {"type": "Hashtag", "name": "#cats"}


# --- round trips ----------------------------------------------------------------


def test_generated_objects_round_trip_without_nulls():
    rng = random.Random(1234)
    for _ in range(60):
        actor = gen_actor(rng)
        assert validate_actor_document(serialize_object(actor)) == actor
        note = gen_note(rng)
        assert parse_note(serialize_object(note)) == note
        activity = gen_activity(rng)
        serialized = serialize_object(activity)
        assert parse_activity(serialized) == activity
        assert walk_for_nulls(json.loads(serialized)) == []


def test_round_trip_preserves_audience_order():
    note = gen_note(random.Random(7))
    again = parse_note(serialize_object(note))
    assert again.to == note.to
    assert again.cc == note.cc


# --- parsing: required fields and leniency -----------------------------------------


def test_parse_activity_rejects_non_object_payloads():
    with pytest.raises(MalformedDocument):
        parse_activity("[1, 2, 3]")
    with pytest.raises(MalformedDocument):
        parse_activity("not json at all")
    with pytest.raises(MalformedDocument):
        parse_activity("[" * 100_000)


def test_parse_activity_requires_type_then_actor():
    with pytest.raises(MissingRequiredField, match="type"):
        parse_activity(json.dumps({"actor": "https://a.test/users/alice"}))
    with pytest.raises(MissingRequiredField, match="actor"):
        parse_activity(json.dumps({"type": "Like"}))


def test_parse_activity_rejects_unknown_kinds():
    with pytest.raises(UnsupportedType):
        parse_activity(json.dumps({"type": "Move", "actor": "https://a.test/u/a"}))


def test_parse_activity_tolerates_unknown_members_and_missing_context():
    activity = parse_activity(
        json.dumps(
            {
                "type": "Like",
                "actor": "https://a.test/users/alice",
                "object": "https://b.test/n/1",
                "someVendorExtension": {"nested": True},
            }
        )
    )
    assert activity.kind is ActivityKind.LIKE
    assert activity.id is None
    assert activity.object == "https://b.test/n/1"


def test_parse_activity_reduces_embedded_unknown_objects_to_their_id():
    # Accept carrying the whole original Follow, as real servers send it.
    activity = parse_activity(
        json.dumps(
            {
                "type": "Accept",
                "actor": "https://a.test/users/alice",
                "object": {
                    "type": "Follow",
                    "id": "https://b.test/follows/9",
                    "actor": "https://b.test/users/bob",
                },
            }
        )
    )
    assert activity.object == "https://b.test/follows/9"


def test_parse_activity_actor_may_be_an_embedded_object():
    activity = parse_activity(
        json.dumps(
            {
                "type": "Like",
                "actor": {"id": "https://a.test/users/alice", "type": "Person"},
                "object": "https://b.test/n/1",
            }
        )
    )
    assert activity.actor == "https://a.test/users/alice"


def test_parse_note_requires_attribution():
    with pytest.raises(MissingRequiredField, match="attributedTo"):
        parse_note(json.dumps({"type": "Note", "content": "x"}))


def test_parse_note_keeps_single_string_audience():
    note = parse_note(
        json.dumps(
            {
                "type": "Note",
                "attributedTo": "https://a.test/users/alice",
                "content": "x",
                "to": PUBLIC_COLLECTION,
            }
        )
    )
    assert note.to == (PUBLIC_COLLECTION,)


def test_parse_note_drops_malformed_tag_entries():
    note = parse_note(
        json.dumps(
            {
                "type": "Note",
                "attributedTo": "https://a.test/users/alice",
                "content": "x",
                "tag": [
                    {"type": "Mention"},  # no href: unaddressable
                    {"type": "Hashtag", "name": "#"},  # empty after strip
                    {"type": "Hashtag", "name": "ok"},  # prefix added
                    "garbage",
                ],
            }
        )
    )
    assert note.tag_entries == (TagEntry(TagKind.HASHTAG, "#ok"),)


# --- actor validation ----------------------------------------------------------------


def actor_doc(**overrides):
    root = "https://a.test/users/alice"
    doc = {
        "@context": [AS_CONTEXT, SECURITY_CONTEXT],
        "id": root,
        "type": "Person",
        "preferredUsername": "alice",
        "inbox": f"{root}/inbox",
        "publicKey": {
            "id": f"{root}#main-key",
            "owner": root,
            "publicKeyPem": FIXED_PUBLIC_PEM,
        },
    }
    doc.update(overrides)
    return {k: v for k, v in doc.items() if v is not ...}


def test_validate_actor_minimal_document_passes():
    actor = validate_actor_document(json.dumps(actor_doc()))
    assert actor.preferred_username == "alice"
    assert actor.outbox is None


def test_validate_actor_missing_inbox_is_a_distinct_error():
    with pytest.raises(MissingEndpoint):
        validate_actor_document(json.dumps(actor_doc(inbox=...)))


def test_validate_actor_missing_key_is_a_distinct_error():
    with pytest.raises(MissingKey):
        validate_actor_document(json.dumps(actor_doc(publicKey=...)))
    with pytest.raises(MissingKey):
        validate_actor_document(
            json.dumps(actor_doc(publicKey={"id": "x", "owner": "y"}))
        )


@pytest.mark.parametrize(
    "override",
    [
        {"type": "Note"},
        {"id": "/users/alice"},
        {"id": ...},
        {"preferredUsername": ...},
        {"inbox": "https://elsewhere.test/inbox"},
        {"outbox": "https://elsewhere.test/outbox"},
    ],
)
def test_validate_actor_rejects_off_shape_documents(override):
    with pytest.raises(MalformedDocument):
        validate_actor_document(json.dumps(actor_doc(**override)))


# --- timestamps -------------------------------------------------------------------------


def test_timestamps_use_z_suffix_and_round_trip():
    moment = datetime(2024, 3, 1, 12, 30, 45, tzinfo=timezone.utc)
    text = format_timestamp(moment)
    assert text == "2024-03-01T12:30:45Z"
    assert parse_timestamp(text) == moment


def test_parse_timestamp_is_lenient():
    assert parse_timestamp("not a date") is None
    assert parse_timestamp(None) is None
    assert parse_timestamp(12345) is None
    offset = parse_timestamp("2024-03-01T12:30:45+02:00")
    assert offset is not None and offset.utcoffset().total_seconds() == 0


def test_wire_dict_context_flag():
    actor = make_actor()
    assert "@context" not in to_wire_dict(actor, with_context=False)
