import json
from datetime import datetime, timedelta, timezone

import pytest

from mothfed.activitypub import Actor, ActorKind, PublicKeySpec
from mothfed.errors import (
    ActorFetchFailed,
    BadSignature,
    DigestMismatch,
    NoSignature,
    StaleDate,
)
from mothfed.httpsig import (
    SIGNED_HEADERS,
    body_digest,
    generate_rsa_keypair,
    load_private_key,
    parse_signature_header,
    sign_request,
    verify_signature,
)
from mothfed.transport import HttpRequest

from .support import FIXED_PRIVATE_PEM, FIXED_PUBLIC_PEM, independent_verify

NOW = datetime(2024, 1, 1, 12, 0, 0, tzinfo=timezone.utc)
ACTOR_URI = "https://a.test/users/alice"
KEY_ID = f"{ACTOR_URI}#main-key"
URL = "https://b.test/users/bob/inbox"
TARGET = "/users/bob/inbox"
BODY = json.dumps({"type": "Like", "actor": ACTOR_URI}).encode()


def actor_with_key(public_pem, owner=ACTOR_URI, actor_id=ACTOR_URI):
    return Actor(
        id=actor_id,
        kind=ActorKind.PERSON,
        preferred_username="alice",
        inbox=f"{actor_id}/inbox",
        public_key=PublicKeySpec(f"{actor_id}#main-key", owner, public_pem),
    )


def fetcher(public_pem, **kwargs):
    actor = actor_with_key(public_pem, **kwargs)

    def fetch(uri):
        assert uri == ACTOR_URI  # fragment must be stripped before the fetch
        return actor

    return fetch


def signed(date=NOW, body=BODY, private_pem=FIXED_PRIVATE_PEM):
    return sign_request("POST", URL, body, KEY_ID, load_private_key(private_pem), date)


# --- signing output shape ------------------------------------------------------


def test_sign_request_emits_expected_headers():
    headers = sign_request(
        "POST", URL, BODY, KEY_ID, load_private_key(FIXED_PRIVATE_PEM), NOW
    )
    assert headers["Host"] == "b.test"
    assert headers["Date"] == "Mon, 01 Jan 2024 12:00:00 GMT"
    assert headers["Digest"] == body_digest(BODY)
    parsed = parse_signature_header(headers["Signature"])
    assert parsed.key_id == KEY_ID
    assert parsed.algorithm == "rsa-sha256"
    assert parsed.headers == SIGNED_HEADERS


def test_signature_header_is_self_describing():
    headers = signed()
    value = headers["Signature"]
    assert 'keyId="https://a.test/users/alice#main-key"' in value
    assert 'algorithm="rsa-sha256"' in value
    assert 'headers="(request-target) host date digest"' in value


def test_parse_signature_header_requires_key_and_signature():
    with pytest.raises(BadSignature):
        parse_signature_header('keyId="x"')
    with pytest.raises(BadSignature):
        parse_signature_header("")


# --- the independent oracle ---------------------------------------------------------


def test_signatures_verify_under_independent_reimplementation():
    for i in range(5):
        body = json.dumps({"n": i}).encode()
        headers = signed(body=body, date=NOW + timedelta(seconds=i))
        assert independent_verify("POST", URL, headers, body, FIXED_PUBLIC_PEM)


def test_independent_oracle_rejects_tampered_bodies():
    headers = signed()
    assert not independent_verify("POST", URL, headers, BODY + b"x", FIXED_PUBLIC_PEM)


# --- closed-loop verification -------------------------------------------------------


def test_closed_loop_accepts_a_fresh_signature():
    headers = signed()
    actor = verify_signature(
        "POST", TARGET, headers, BODY, fetcher(FIXED_PUBLIC_PEM), now=NOW
    )
    assert actor.id == ACTOR_URI


def test_signer_and_receiver_agree_on_an_empty_path_with_a_query():
    request = HttpRequest("POST", "http://b.test?x=1", body=BODY)
    headers = sign_request(
        "POST", request.url, BODY, KEY_ID, load_private_key(FIXED_PRIVATE_PEM), NOW
    )
    actor = verify_signature(
        "POST", request.target, headers, BODY, fetcher(FIXED_PUBLIC_PEM), now=NOW
    )
    assert actor.id == ACTOR_URI


def test_header_name_lookup_is_case_insensitive():
    headers = {k.upper(): v for k, v in signed().items()}
    actor = verify_signature(
        "POST", TARGET, headers, BODY, fetcher(FIXED_PUBLIC_PEM), now=NOW
    )
    assert actor.id == ACTOR_URI


# --- rejection reasons, one per failure mode ------------------------------------------


def test_missing_signature_header():
    headers = signed()
    del headers["Signature"]
    with pytest.raises(NoSignature) as exc_info:
        verify_signature("POST", TARGET, headers, BODY, fetcher(FIXED_PUBLIC_PEM), NOW)
    assert exc_info.value.reason == "NoSignature"


def test_tampered_body_is_a_digest_mismatch():
    headers = signed()
    with pytest.raises(DigestMismatch) as exc_info:
        verify_signature(
            "POST", TARGET, headers, BODY + b"!", fetcher(FIXED_PUBLIC_PEM), NOW
        )
    assert exc_info.value.reason == "DigestMismatch"


def test_missing_digest_header_is_a_digest_mismatch():
    headers = signed()
    del headers["Digest"]
    with pytest.raises(DigestMismatch):
        verify_signature("POST", TARGET, headers, BODY, fetcher(FIXED_PUBLIC_PEM), NOW)


def test_wrong_key_is_a_bad_signature():
    _, other_public = generate_rsa_keypair(1024)
    headers = signed()
    with pytest.raises(BadSignature) as exc_info:
        verify_signature("POST", TARGET, headers, BODY, fetcher(other_public), NOW)
    assert exc_info.value.reason == "BadSignature"


def test_a_key_that_fails_is_checked_once_against_a_refetched_document():
    rotated_private, rotated_public = generate_rsa_keypair(1024)
    asked = []

    def refetch(uri, pem=rotated_public):
        asked.append(uri)
        return actor_with_key(pem)

    def verify(private_pem, actor_refetch, pem=FIXED_PUBLIC_PEM):
        return verify_signature(
            "POST", TARGET, signed(private_pem=private_pem), BODY, fetcher(pem), NOW,
            actor_refetch=actor_refetch,
        )

    assert verify(rotated_private, refetch).public_key.pem == rotated_public
    assert asked == [ACTOR_URI]
    # A key that verifies, or one that cannot be used, is never refetched.
    verify(FIXED_PRIVATE_PEM, refetch)
    with pytest.raises(BadSignature, match="unusable"):
        verify(rotated_private, refetch, pem="not a pem")
    assert asked == [ACTOR_URI]
    # A refetched document that still fails, or none at all, is a BadSignature.
    forged_private, _ = generate_rsa_keypair(1024)
    with pytest.raises(BadSignature, match="does not verify"):
        verify(forged_private, refetch)
    assert asked == [ACTOR_URI] * 2
    with pytest.raises(BadSignature, match="does not verify"):
        verify(rotated_private, lambda uri: None)


def test_garbage_key_pem_is_a_bad_signature():
    headers = signed()
    with pytest.raises(BadSignature):
        verify_signature(
            "POST", TARGET, headers, BODY, fetcher("not a pem"), NOW
        )


def test_tampered_target_is_a_bad_signature():
    headers = signed()
    with pytest.raises(BadSignature):
        verify_signature(
            "POST", "/users/mallory/inbox", headers, BODY,
            fetcher(FIXED_PUBLIC_PEM), NOW,
        )


@pytest.mark.parametrize("offset", [-301, 301, 100_000])
def test_dates_outside_the_window_are_stale(offset):
    headers = signed(date=NOW + timedelta(seconds=offset))
    with pytest.raises(StaleDate) as exc_info:
        verify_signature("POST", TARGET, headers, BODY, fetcher(FIXED_PUBLIC_PEM), NOW)
    assert exc_info.value.reason == "StaleDate"


@pytest.mark.parametrize("offset", [-299, 0, 299])
def test_dates_inside_the_window_pass(offset):
    headers = signed(date=NOW + timedelta(seconds=offset))
    verify_signature("POST", TARGET, headers, BODY, fetcher(FIXED_PUBLIC_PEM), NOW)


def test_missing_date_header_is_stale():
    headers = signed()
    del headers["Date"]
    with pytest.raises(StaleDate):
        verify_signature("POST", TARGET, headers, BODY, fetcher(FIXED_PUBLIC_PEM), NOW)


def test_unparseable_date_header_is_stale():
    headers = signed()
    headers["Date"] = "sometime last tuesday"
    with pytest.raises(StaleDate):
        verify_signature("POST", TARGET, headers, BODY, fetcher(FIXED_PUBLIC_PEM), NOW)


def test_signature_must_cover_the_required_headers():
    headers = signed()
    # Re-declare a weaker coverage set; the date-only signature is rejected
    # before any cryptography happens.
    headers["Signature"] = (
        f'keyId="{KEY_ID}",algorithm="rsa-sha256",headers="date",signature="AAAA"'
    )
    with pytest.raises(BadSignature) as exc_info:
        verify_signature("POST", TARGET, headers, BODY, fetcher(FIXED_PUBLIC_PEM), NOW)
    assert "required headers" in str(exc_info.value)


@pytest.mark.parametrize("algorithm", [None, "rsa-sha256", "hs2019"])
def test_absent_rsa_sha256_and_hs2019_verify_as_rsa_sha256(algorithm):
    headers = signed()
    named = "" if algorithm is None else f'algorithm="{algorithm}",'
    headers["Signature"] = headers["Signature"].replace('algorithm="rsa-sha256",', named)
    assert parse_signature_header(headers["Signature"]).algorithm == (algorithm or "rsa-sha256")
    actor = verify_signature("POST", TARGET, headers, BODY, fetcher(FIXED_PUBLIC_PEM), NOW)
    assert actor.id == ACTOR_URI


def test_any_other_algorithm_is_a_bad_signature_that_names_it():
    headers = signed()
    headers["Signature"] = headers["Signature"].replace(
        'algorithm="rsa-sha256"', 'algorithm="hmac-sha256"'
    )
    with pytest.raises(BadSignature) as exc_info:
        verify_signature("POST", TARGET, headers, BODY, fetcher(FIXED_PUBLIC_PEM), NOW)
    assert "'hmac-sha256'" in str(exc_info.value)


def test_key_owner_must_match_the_actor():
    headers = signed()
    fetch = fetcher(FIXED_PUBLIC_PEM, owner="https://a.test/users/mallory")
    with pytest.raises(BadSignature) as exc_info:
        verify_signature("POST", TARGET, headers, BODY, fetch, NOW)
    assert "owner" in str(exc_info.value)


def test_actor_fetch_failures_propagate_with_their_reason():
    headers = signed()

    def failing_fetch(uri):
        raise ActorFetchFailed(f"cannot reach {uri}")

    with pytest.raises(ActorFetchFailed) as exc_info:
        verify_signature("POST", TARGET, headers, BODY, failing_fetch, NOW)
    assert exc_info.value.reason == "ActorFetchFailed"


def test_corrupted_signature_base64_is_a_bad_signature():
    headers = signed()
    headers["Signature"] = headers["Signature"].replace(
        'signature="', 'signature="@@@'
    )
    with pytest.raises(BadSignature):
        verify_signature("POST", TARGET, headers, BODY, fetcher(FIXED_PUBLIC_PEM), NOW)


def test_stale_date_beats_digest_and_signature_checks():
    # Order matters for operability: the 401 reason should name the first
    # problem a correctly-clocked sender would hit.
    headers = signed(date=NOW - timedelta(seconds=4000))
    del headers["Digest"]
    with pytest.raises(StaleDate):
        verify_signature("POST", TARGET, headers, BODY, fetcher(FIXED_PUBLIC_PEM), NOW)
