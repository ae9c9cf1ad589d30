import json
import shutil
import sys
import threading
import time
from datetime import datetime, timedelta, timezone
from email.utils import format_datetime, parsedate_to_datetime

import pytest

from mothfed import http_api, httpsig, identity
from mothfed.activitypub import (
    ACTIVITY_MEDIA_TYPE,
    AS_CONTEXT,
    JRD_MEDIA_TYPE,
    PUBLIC_COLLECTION,
    SECURITY_CONTEXT,
    parse_activity,
    parse_note,
    serialize_object,
    validate_actor_document,
)
from mothfed.config import Config
from mothfed.errors import NameTaken
from mothfed.httpsig import generate_rsa_keypair, load_private_key, sign_request
from mothfed.identity import AcctHandle, build_jrd
from mothfed.instance import InstanceNode
from mothfed.storage import FileStore, MemoryStore
from mothfed.transport import HttpRequest, HttpResponse

from .support import walk_for_nulls

LOCAL = "local.test"
BASE = f"http://{LOCAL}"
NOW = datetime(2024, 1, 1, tzinfo=timezone.utc)

REMOTE_PRIVATE, REMOTE_PUBLIC = generate_rsa_keypair(1024)
REMOTE_KEY = load_private_key(REMOTE_PRIVATE)


class Ticker:
    def __init__(self, t=NOW.timestamp()):
        self.t = t

    def __call__(self):
        return self.t


class CannedTransport:
    """Serves canned responses by URL; remembers what was requested."""

    def __init__(self):
        self.responses = {}
        self.requests = []

    def request(self, request):
        self.requests.append(request)
        response = self.responses.get(request.url)
        if response is None:
            return HttpResponse(status=404, headers={}, body=b"not here")
        return response


def remote_actor_doc(username="bob", domain="b.test", public_pem=REMOTE_PUBLIC):
    root = f"http://{domain}/users/{username}"
    return {
        "@context": [AS_CONTEXT, SECURITY_CONTEXT],
        "id": root,
        "type": "Person",
        "preferredUsername": username,
        "inbox": f"{root}/inbox",
        "publicKey": {
            "id": f"{root}#main-key",
            "owner": root,
            "publicKeyPem": public_pem,
        },
    }


def install_remote(transport, username="bob", domain="b.test"):
    """Make user@domain fetchable: actor document plus WebFinger."""
    doc = remote_actor_doc(username, domain)
    root = doc["id"]
    transport.responses[root] = HttpResponse(
        200, {"Content-Type": ACTIVITY_MEDIA_TYPE},
        json.dumps(doc).encode(),
    )
    jrd = build_jrd(AcctHandle(username, domain), root)
    transport.responses[
        f"http://{domain}/.well-known/webfinger?resource=acct%3A{username}%40{domain}"
    ] = HttpResponse(200, {"Content-Type": JRD_MEDIA_TYPE}, jrd)
    return root


@pytest.fixture
def node():
    config = Config(domain=LOCAL, test_mode=True, key_bits=1024)
    built = InstanceNode(
        config, store=MemoryStore(), transport=CannedTransport(), clock=Ticker()
    )
    built.create_user("alice", token="tok-alice")
    yield built
    built.close()


def get(node, path, headers=None):
    return node.handle_http(HttpRequest("GET", f"{BASE}{path}", headers or {}))


def post(node, path, body=b"", headers=None):
    return node.handle_http(HttpRequest("POST", f"{BASE}{path}", headers or {}, body))


def api_post(node, path, payload, token="tok-alice"):
    return post(
        node, path, json.dumps(payload).encode(),
        {"Authorization": f"Bearer {token}", "Content-Type": "application/json"},
    )


def body_json(response):
    return json.loads(response.body)


def signed_inbox_post(node, activity_body, key_id, private_pem, date=None,
                      path="/users/alice/inbox", base=BASE):
    body = activity_body if isinstance(activity_body, bytes) else activity_body.encode()
    url = f"{base}{path}"
    when = date or datetime.fromtimestamp(node.clock(), tz=timezone.utc)
    headers = sign_request("POST", url, body, key_id, load_private_key(private_pem), when)
    headers["Content-Type"] = ACTIVITY_MEDIA_TYPE
    return node.handle_http(HttpRequest("POST", url, headers, body))


def bob_create(note_id="http://b.test/users/bob/statuses/1", content="hello",
               to=(PUBLIC_COLLECTION,), activity_id=None):
    return json.dumps(
        {
            "@context": AS_CONTEXT,
            "id": activity_id or f"{note_id}/activity",
            "type": "Create",
            "actor": "http://b.test/users/bob",
            "to": list(to),
            "object": {
                "type": "Note",
                "id": note_id,
                "attributedTo": "http://b.test/users/bob",
                "content": content,
                "to": list(to),
            },
        }
    )


BOB_KEY_ID = "http://b.test/users/bob#main-key"


# --- webfinger -------------------------------------------------------------------


def test_webfinger_resolves_local_users(node):
    response = get(node, "/.well-known/webfinger?resource=acct%3Aalice%40local.test")
    assert response.status == 200
    assert response.headers["Content-Type"] == JRD_MEDIA_TYPE
    data = body_json(response)
    assert data["subject"] == "acct:alice@local.test"
    self_links = [l for l in data["links"] if l["rel"] == "self"]
    assert self_links[0]["href"] == f"{BASE}/users/alice"
    assert self_links[0]["type"] == ACTIVITY_MEDIA_TYPE


def test_webfinger_is_case_insensitive_about_the_user(node):
    response = get(node, "/.well-known/webfinger?resource=acct%3AALICE%40local.test")
    assert response.status == 200


@pytest.mark.parametrize(
    "query,status,reason",
    [
        ("", 400, "MissingResource"),
        ("?resource=https%3A%2F%2Flocal.test%2Fusers%2Falice", 400, "BadResource"),
        ("?resource=acct%3Aa%40b%40c", 400, "MalformedHandle"),
        ("?resource=acct%3Aalice%40elsewhere.test", 404, "WrongDomain"),
        ("?resource=acct%3Aghost%40local.test", 404, "UnknownUser"),
    ],
)
def test_webfinger_failure_modes(node, query, status, reason):
    response = get(node, f"/.well-known/webfinger{query}")
    assert response.status == status
    assert body_json(response)["error"] == reason


# --- actor documents -----------------------------------------------------------------


def test_actor_document_serves_activity_json(node):
    response = get(node, "/users/alice", {"Accept": ACTIVITY_MEDIA_TYPE})
    assert response.status == 200
    assert response.headers["Content-Type"] == ACTIVITY_MEDIA_TYPE
    actor = validate_actor_document(response.body)
    assert actor.id == f"{BASE}/users/alice"
    assert actor.inbox == f"{BASE}/users/alice/inbox"
    assert "BEGIN PUBLIC KEY" in actor.public_key.pem
    assert walk_for_nulls(body_json(response)) == []


def test_actor_document_is_the_default_representation(node):
    response = get(node, "/users/alice")
    assert response.status == 200
    assert response.headers["Content-Type"] == ACTIVITY_MEDIA_TYPE


def test_actor_html_profile_for_browsers(node):
    response = get(node, "/users/alice", {"Accept": "text/html"})
    assert response.status == 200
    assert response.headers["Content-Type"].startswith("text/html")
    assert b"@alice@local.test" in response.body


def test_actor_negotiation_prefers_activity_when_both_are_acceptable(node):
    response = get(
        node, "/users/alice", {"Accept": f"text/html, {ACTIVITY_MEDIA_TYPE}"}
    )
    assert response.headers["Content-Type"] == ACTIVITY_MEDIA_TYPE


def test_unknown_actor_is_404(node):
    response = get(node, "/users/ghost")
    assert response.status == 404
    assert body_json(response)["error"] == "UnknownUser"


def test_deleted_actor_is_410(node):
    node.delete_local_account("alice")
    # Its URI stays tombstoned, so the name is not issued again.
    with pytest.raises(NameTaken):
        node.create_user("alice")
    response = get(node, "/users/alice")
    assert response.status == 410
    assert body_json(response)["error"] == "Gone"


# --- refusals ---------------------------------------------------------------------------

_UNAUTHORIZED = (401, "Unauthorized", "missing or invalid bearer token")
_BAD_PAGE = (400, "BadParameter", "limit and max_id must be integers")


def _account_refusals():
    """Each per-account route, for a name never created and for one deleted."""
    routes = [
        ("GET", "/users/{}"),
        ("POST", "/users/{}/inbox"),
        ("GET", "/users/{}/outbox"),
        ("GET", "/users/{}/followers"),
        ("GET", "/users/{}/following"),
        ("GET", "/users/{}/statuses/1"),
        ("GET", "/api/v1/accounts/lookup?acct={}"),
    ]
    for method, path in routes:
        yield method, path.format("ghost"), None, (404, "UnknownUser", "no local account ghost")
        yield method, path.format("carol"), None, (410, "Gone", "account carol was deleted")
    # WebFinger does not tell a deleted account from one never created.
    yield ("GET", "/.well-known/webfinger?resource=acct%3Acarol%40local.test", None,
           (404, "UnknownUser", "no local account carol"))


def _token_refusals():
    for token in (None, "Bearer nope"):
        yield "POST", "/api/v1/statuses", token, _UNAUTHORIZED
        yield "GET", "/api/v1/timelines/home", token, _UNAUTHORIZED
        yield "POST", "/api/v1/accounts/1/follow", token, _UNAUTHORIZED
    for path in ("/api/v1/timelines/home", "/api/v1/timelines/tag/moth"):
        for query in ("?limit=ten", "?max_id=x", "?limit=5&max_id=1.5"):
            yield "GET", path + query, "Bearer tok-alice", _BAD_PAGE


@pytest.mark.parametrize(
    "method,path,auth,expected", [*_account_refusals(), *_token_refusals()]
)
def test_refusal_table(node, method, path, auth, expected):
    node.create_user("carol")
    node.delete_local_account("carol")
    headers = {"Authorization": auth} if auth else {}
    response = node.handle_http(HttpRequest(method, f"{BASE}{path}", headers, b""))
    status, reason, detail = expected
    assert response.status == status
    assert response.headers == {"Content-Type": "application/json"}
    assert response.body == json.dumps({"error": reason, "detail": detail}).encode()


# --- inbox ------------------------------------------------------------------------------


def test_unsigned_inbox_post_is_401_no_signature(node):
    response = post(node, "/users/alice/inbox", bob_create().encode())
    assert response.status == 401
    assert body_json(response)["error"] == "NoSignature"


def test_signed_create_is_accepted_and_stored(node):
    install_remote(node.transport)
    response = signed_inbox_post(node, bob_create(), BOB_KEY_ID, REMOTE_PRIVATE)
    assert response.status == 202
    data = body_json(response)
    assert data["queued"] is True
    assert data["warnings"] == []
    stored = node.store.get_status_by_uri("http://b.test/users/bob/statuses/1")
    assert stored is not None and stored.content == "hello"


def test_inbox_replay_is_acknowledged_but_inert(node):
    install_remote(node.transport)
    signed_inbox_post(node, bob_create(), BOB_KEY_ID, REMOTE_PRIVATE)
    response = signed_inbox_post(node, bob_create(), BOB_KEY_ID, REMOTE_PRIVATE)
    assert response.status == 202
    sender = node.store.get_account_by_uri("http://b.test/users/bob")
    assert len(node.store.statuses_by_account(sender.id)) == 1


def count_calls(monkeypatch, owner, name):
    """Replace owner.name with a wrapper that records each call; return the record."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_a_repeat_is_acknowledged_without_parsing_or_dispatch(node, monkeypatch):
    install_remote(node.transport)
    assert signed_inbox_post(node, bob_create(), BOB_KEY_ID, REMOTE_PRIVATE).status == 202
    parsed = count_calls(monkeypatch, http_api, "parse_activity")
    dispatched = count_calls(monkeypatch, node.engine, "handle_inbox")
    response = signed_inbox_post(node, bob_create(), BOB_KEY_ID, REMOTE_PRIVATE)
    assert (response.status, body_json(response)) == (202, {"queued": True, "warnings": []})
    assert (len(parsed), len(dispatched)) == (0, 0)
    # A new id still goes the whole way.
    second = bob_create("http://b.test/users/bob/statuses/2")
    assert signed_inbox_post(node, second, BOB_KEY_ID, REMOTE_PRIVATE).status == 202
    assert (len(parsed), len(dispatched)) == (1, 1)


def test_a_repeat_is_acknowledged_even_if_its_object_no_longer_parses(node):
    install_remote(node.transport)
    first = json.loads(bob_create())
    assert signed_inbox_post(node, json.dumps(first), BOB_KEY_ID, REMOTE_PRIVATE).status == 202
    broken = {**first, "object": {"type": "Note", "id": first["object"]["id"]}}
    response = signed_inbox_post(node, json.dumps(broken), BOB_KEY_ID, REMOTE_PRIVATE)
    assert (response.status, body_json(response)) == (202, {"queued": True, "warnings": []})
    # The same shape under a new id is parsed, and refused.
    fresh = {**broken, "id": "http://b.test/act/fresh"}
    response = signed_inbox_post(node, json.dumps(fresh), BOB_KEY_ID, REMOTE_PRIVATE)
    assert (response.status, body_json(response)["error"]) == (400, "MissingRequiredField")


def test_deliveries_from_a_cached_actor_parse_its_key_once(node, monkeypatch):
    root = install_remote(node.transport)
    httpsig._parse_public_pem.cache_clear()  # an earlier test may have parsed this PEM
    loads = count_calls(monkeypatch, httpsig.serialization, "load_pem_public_key")
    for n in range(5):
        create = bob_create(f"http://b.test/users/bob/statuses/{n}")
        assert signed_inbox_post(node, create, BOB_KEY_ID, REMOTE_PRIVATE).status == 202
    assert len(loads) == 1
    # A rotated key fails against the cached one; the refetched document's key
    # is parsed once and then kept.
    new_private, new_public = generate_rsa_keypair(1024)
    node.transport.responses[root] = HttpResponse(
        200, {"Content-Type": ACTIVITY_MEDIA_TYPE},
        json.dumps(remote_actor_doc(public_pem=new_public)).encode(),
    )
    for n in range(5, 8):
        create = bob_create(f"http://b.test/users/bob/statuses/{n}")
        assert signed_inbox_post(node, create, BOB_KEY_ID, new_private).status == 202
    assert len(loads) == 2


def test_a_repeat_that_fails_a_check_is_refused_as_before(node):
    install_remote(node.transport)
    body = bob_create().encode()
    assert signed_inbox_post(node, body, BOB_KEY_ID, REMOTE_PRIVATE).status == 202
    url = f"{BASE}/users/alice/inbox"
    when = datetime.fromtimestamp(node.clock(), tz=timezone.utc)
    headers = sign_request("POST", url, body, BOB_KEY_ID, REMOTE_KEY, when)
    forged_private, _ = generate_rsa_keypair(1024)
    cases = [
        ({k: v for k, v in headers.items() if k != "Signature"}, body, "NoSignature"),
        (sign_request("POST", url, body, BOB_KEY_ID, REMOTE_KEY,
                      when - timedelta(hours=2)), body, "StaleDate"),
        (headers, body + b" ", "DigestMismatch"),
        (sign_request("POST", url, body, BOB_KEY_ID, load_private_key(forged_private), when),
         body, "BadSignature"),
    ]
    for request_headers, request_body, reason in cases:
        response = node.handle_http(HttpRequest("POST", url, request_headers, request_body))
        assert (response.status, body_json(response)["error"]) == (401, reason)
    # The seen id under carol's name, signed by bob.
    mismatched = json.dumps({**json.loads(body), "actor": "http://c.test/users/carol"})
    response = signed_inbox_post(node, mismatched, BOB_KEY_ID, REMOTE_PRIVATE)
    assert (response.status, body_json(response)["error"]) == (401, "ActorMismatch")
    # The seen id under a type moth-fed does not handle.
    moved = json.dumps({**json.loads(body), "type": "Move"})
    response = signed_inbox_post(node, moved, BOB_KEY_ID, REMOTE_PRIVATE)
    assert (response.status, body_json(response)["queued"]) == (202, False)
    assert body_json(response)["reason"] == "UnsupportedType"


def test_concurrent_deliveries_of_one_activity_apply_it_once(node):
    install_remote(node.transport)
    url = f"{BASE}/users/alice/inbox"
    body = bob_create().encode()
    when = datetime.fromtimestamp(node.clock(), tz=timezone.utc)
    headers = sign_request("POST", url, body, BOB_KEY_ID, REMOTE_KEY, when)
    barrier = threading.Barrier(8)
    responses = []

    def deliver():
        barrier.wait(timeout=10)
        responses.append(node.handle_http(HttpRequest("POST", url, headers, body)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=deliver) for _ in range(8)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in pool)
    assert [(r.status, body_json(r)) for r in responses] == [
        (202, {"queued": True, "warnings": []})
    ] * 8
    sender = node.store.get_account_by_uri("http://b.test/users/bob")
    assert len(node.store.statuses_by_account(sender.id)) == 1


def test_stale_date_is_401_with_reason(node):
    install_remote(node.transport)
    old = datetime.fromtimestamp(node.clock(), tz=timezone.utc) - timedelta(hours=2)
    response = signed_inbox_post(node, bob_create(), BOB_KEY_ID, REMOTE_PRIVATE, date=old)
    assert response.status == 401
    assert body_json(response)["error"] == "StaleDate"


@pytest.mark.parametrize(
    "form",
    [
        "%a, %d %b %Y %H:%M:%S GMT",  # IMF-fixdate, as sign_request writes it
        "%A, %d-%b-%y %H:%M:%S GMT",  # RFC 850
        "%a %b %d %H:%M:%S %Y",  # asctime, which names no zone
        "%a, %d %b %Y %H:%M:%S +0000",
    ],
)
def test_every_http_date_form_is_accepted(node, monkeypatch, form):
    install_remote(node.transport)
    monkeypatch.setattr(httpsig, "format_datetime", lambda when, usegmt: when.strftime(form))
    response = signed_inbox_post(node, bob_create(), BOB_KEY_ID, REMOTE_PRIVATE)
    assert response.status == 202, body_json(response)


def test_an_imf_fixdate_reads_as_email_utils_reads_it():
    texts = [
        format_datetime(datetime.fromtimestamp(seconds, tz=timezone.utc), usegmt=True)
        for seconds in range(0, 4_000_000_000, 9_876_543)
    ]
    for text in texts + ["Tue, 20 Oct 2026 02:19 GMT", "Tue, 20 Oct 26 02:19:32 GMT"]:
        assert httpsig._parse_http_date(text) == parsedate_to_datetime(text), text
    for text in ("Tue, 31 Feb 2026 00:00:00 GMT", "Tue, 20 Foo 2026 02:19:32 GMT", "soon"):
        with pytest.raises(ValueError):
            httpsig._parse_http_date(text)


def test_an_unsupported_signature_algorithm_is_401_naming_it(node):
    install_remote(node.transport)
    url, body = f"{BASE}/users/alice/inbox", bob_create().encode()
    when = datetime.fromtimestamp(node.clock(), tz=timezone.utc)
    headers = sign_request("POST", url, body, BOB_KEY_ID, REMOTE_KEY, when)
    headers["Signature"] = headers["Signature"].replace("rsa-sha256", "hmac-sha256")
    response = node.handle_http(HttpRequest("POST", url, headers, body))
    assert response.status == 401
    assert body_json(response)["error"] == "BadSignature"
    assert "hmac-sha256" in body_json(response)["detail"]
    assert node.store.get_status_by_uri("http://b.test/users/bob/statuses/1") is None


def test_tampered_body_is_401_digest_mismatch(node):
    install_remote(node.transport)
    body = bob_create().encode()
    url = f"{BASE}/users/alice/inbox"
    when = datetime.fromtimestamp(node.clock(), tz=timezone.utc)
    headers = sign_request("POST", url, body, BOB_KEY_ID, REMOTE_KEY, when)
    response = node.handle_http(HttpRequest("POST", url, headers, body + b" "))
    assert response.status == 401
    assert body_json(response)["error"] == "DigestMismatch"


def test_unfetchable_signer_is_401_actor_fetch_failed(node):
    # No actor document installed in the transport.
    response = signed_inbox_post(node, bob_create(), BOB_KEY_ID, REMOTE_PRIVATE)
    assert response.status == 401
    assert body_json(response)["error"] == "ActorFetchFailed"


def test_a_post_signed_with_a_local_key_is_401_and_changes_nothing(node):
    node.create_user("bob", token="tok-bob")
    alice = f"{BASE}/users/alice"
    create = json.dumps(
        {"type": "Create", "id": f"{alice}/statuses/9/activity", "actor": alice,
         "to": [PUBLIC_COLLECTION],
         "object": {"type": "Note", "id": f"{alice}/statuses/9", "attributedTo": alice,
                    "content": "not sent by alice's server", "to": [PUBLIC_COLLECTION]}}
    )
    before = node.store.snapshot()
    private_pem, _ = node.store.keypair("alice")
    response = signed_inbox_post(
        node, create, f"{alice}#main-key", private_pem, path="/users/bob/inbox"
    )
    assert response.status == 401
    assert body_json(response)["error"] == "ActorFetchFailed"
    assert node.transport.requests == []
    assert node.store.snapshot() == before


def actor_fetches(node, uri="http://b.test/users/bob"):
    return sum(1 for r in node.transport.requests if r.method == "GET" and r.url == uri)


def test_a_peer_that_rotates_its_key_is_accepted_on_its_next_post(node):
    root = install_remote(node.transport)
    assert signed_inbox_post(node, bob_create(), BOB_KEY_ID, REMOTE_PRIVATE).status == 202
    new_private, new_public = generate_rsa_keypair(1024)
    node.transport.responses[root] = HttpResponse(
        200, {"Content-Type": ACTIVITY_MEDIA_TYPE},
        json.dumps(remote_actor_doc(public_pem=new_public)).encode(),
    )
    second = bob_create("http://b.test/users/bob/statuses/2")
    assert signed_inbox_post(node, second, BOB_KEY_ID, new_private).status == 202
    assert actor_fetches(node) == 2
    # The fresh document replaced the cached one.
    third = bob_create("http://b.test/users/bob/statuses/3")
    assert signed_inbox_post(node, third, BOB_KEY_ID, new_private).status == 202
    assert actor_fetches(node) == 2


def test_a_verified_repeat_reads_the_actor_cache_once(node, monkeypatch):
    install_remote(node.transport)
    assert signed_inbox_post(node, bob_create(), BOB_KEY_ID, REMOTE_PRIVATE).status == 202
    keys = []
    get = identity.TtlCache.get

    def counting(cache, key):
        keys.append(key)
        return get(cache, key)

    monkeypatch.setattr(identity.TtlCache, "get", counting)
    assert signed_inbox_post(node, bob_create(), BOB_KEY_ID, REMOTE_PRIVATE).status == 202
    assert keys == ["http://b.test/users/bob"]
    assert actor_fetches(node) == 1


def test_a_forged_signature_costs_one_refetch_and_is_refused(node):
    install_remote(node.transport)
    forged_private, _ = generate_rsa_keypair(1024)
    # Not cached yet: the document this request fetched is already fresh.
    response = signed_inbox_post(node, bob_create(), BOB_KEY_ID, forged_private)
    assert (response.status, body_json(response)["error"]) == (401, "BadSignature")
    assert actor_fetches(node) == 1
    # Cached: exactly one more fetch, and still refused.
    response = signed_inbox_post(node, bob_create(), BOB_KEY_ID, forged_private)
    assert (response.status, body_json(response)["error"]) == (401, "BadSignature")
    assert actor_fetches(node) == 2


def test_rejections_other_than_the_key_check_never_refetch(node):
    install_remote(node.transport)
    assert signed_inbox_post(node, bob_create(), BOB_KEY_ID, REMOTE_PRIVATE).status == 202
    url = f"{BASE}/users/alice/inbox"
    body = bob_create("http://b.test/users/bob/statuses/2").encode()
    when = datetime.fromtimestamp(node.clock(), tz=timezone.utc)
    headers = sign_request("POST", url, body, BOB_KEY_ID, REMOTE_KEY, when)
    stale = sign_request("POST", url, body, BOB_KEY_ID, REMOTE_KEY,
                         when - timedelta(hours=2))
    unsigned = {k: v for k, v in headers.items() if k != "Signature"}
    no_host = {k: v for k, v in headers.items() if k != "Host"}
    cases = [
        (unsigned, body, "NoSignature"),
        (stale, body, "StaleDate"),
        (headers, body + b" ", "DigestMismatch"),
        (no_host, body, "BadSignature"),
    ]
    for request_headers, request_body, reason in cases:
        response = node.handle_http(HttpRequest("POST", url, request_headers, request_body))
        assert (response.status, body_json(response)["error"]) == (401, reason)
    assert actor_fetches(node) == 1


def test_activity_actor_must_match_the_signer(node):
    install_remote(node.transport)
    forged = json.dumps(
        {
            "type": "Like",
            "id": "http://b.test/act/9",
            "actor": "http://c.test/users/carol",
            "object": f"{BASE}/users/alice/statuses/1",
        }
    )
    response = signed_inbox_post(node, forged, BOB_KEY_ID, REMOTE_PRIVATE)
    assert response.status == 401
    assert body_json(response)["error"] == "ActorMismatch"


def test_tombstoned_sender_is_403(node):
    install_remote(node.transport)
    delete = json.dumps(
        {
            "type": "Delete",
            "id": "http://b.test/users/bob#delete",
            "actor": "http://b.test/users/bob",
            "object": "http://b.test/users/bob",
        }
    )
    assert signed_inbox_post(node, delete, BOB_KEY_ID, REMOTE_PRIVATE).status == 202
    # The refusal does not mark the activity seen, so its retry is refused too.
    for _ in range(2):
        response = signed_inbox_post(node, bob_create(), BOB_KEY_ID, REMOTE_PRIVATE)
        assert response.status == 403
        assert body_json(response)["error"] == "TombstonedActor"
    assert not node.store.has_seen("http://b.test/users/bob/statuses/1/activity")


def test_only_an_honoured_self_delete_evicts_the_cached_signer(node):
    bob = install_remote(node.transport)
    carol = install_remote(node.transport, "carol", "c.test")
    signed_inbox_post(node, bob_create(), BOB_KEY_ID, REMOTE_PRIVATE)

    def delete(actor, target):
        return json.dumps(
            {"type": "Delete", "id": f"{actor}#delete", "actor": actor, "object": target}
        )

    response = signed_inbox_post(node, delete(carol, bob), f"{carol}#main-key", REMOTE_PRIVATE)
    assert body_json(response)["warnings"] == [f"Delete for {bob} from {carol} ignored"]
    assert node._actor_cache.get(carol) is not None
    assert node._actor_cache.get(bob) is not None

    response = signed_inbox_post(node, delete(bob, bob), BOB_KEY_ID, REMOTE_PRIVATE)
    assert body_json(response) == {"queued": True, "warnings": []}
    assert node._actor_cache.get(bob) is None
    assert node._actor_cache.get(carol) is not None


def test_malformed_inbox_payloads_are_400(node):
    install_remote(node.transport)
    response = signed_inbox_post(node, "this is not json", BOB_KEY_ID, REMOTE_PRIVATE)
    assert response.status == 400
    assert body_json(response)["error"] == "MalformedDocument"

    no_actor = json.dumps({"type": "Like", "object": "http://x"})
    response = signed_inbox_post(node, no_actor, BOB_KEY_ID, REMOTE_PRIVATE)
    assert response.status == 400
    assert body_json(response)["error"] == "MissingRequiredField"


def test_an_embedded_partial_actor_is_400_not_500(node):
    install_remote(node.transport)
    person = {
        "type": "Person",
        "id": f"{BASE}/users/alice",
        "preferredUsername": "alice",
        "inbox": f"{BASE}/users/alice/inbox",
    }
    without_inbox = {k: v for k, v in person.items() if k != "inbox"}
    for index, (embedded, reason) in enumerate(
        [(person, "MissingKey"), (without_inbox, "MissingEndpoint")]
    ):
        follow = json.dumps(
            {"type": "Follow", "id": f"http://b.test/follows/{index}",
             "actor": "http://b.test/users/bob", "object": embedded}
        )
        response = signed_inbox_post(node, follow, BOB_KEY_ID, REMOTE_PRIVATE)
        assert response.status == 400
        assert body_json(response)["error"] == reason
    assert node.store.all_tasks() == []


def test_a_signed_post_for_another_host_is_refused_before_any_fetch(node):
    install_remote(node.transport)
    like = json.dumps(
        {"type": "Like", "id": "http://b.test/act/like1",
         "actor": "http://b.test/users/bob", "object": f"{BASE}/users/alice/statuses/1"}
    )
    response = signed_inbox_post(node, like, BOB_KEY_ID, REMOTE_PRIVATE, base="http://other.test")
    assert response.status == 401
    assert body_json(response) == {
        "error": "BadSignature", "detail": "signed for other.test, not local.test"
    }
    assert node.transport.requests == []
    # The host is compared without its case or port.
    response = signed_inbox_post(node, like, BOB_KEY_ID, REMOTE_PRIVATE, base="http://LOCAL.test:80")
    assert response.status == 202
    assert body_json(response)["queued"] is True


def test_unsupported_activity_kind_is_acknowledged_not_queued(node):
    install_remote(node.transport)
    move = json.dumps(
        {"type": "Move", "id": "http://b.test/act/m1",
         "actor": "http://b.test/users/bob", "object": "http://x"}
    )
    response = signed_inbox_post(node, move, BOB_KEY_ID, REMOTE_PRIVATE)
    assert response.status == 202
    data = body_json(response)
    assert data["queued"] is False
    assert data["reason"] == "UnsupportedType"


def test_inbox_for_unknown_user_is_404(node):
    response = signed_inbox_post(
        node, bob_create(), BOB_KEY_ID, REMOTE_PRIVATE, path="/users/ghost/inbox"
    )
    assert response.status == 404


def test_inbox_reports_semantic_warnings(node):
    install_remote(node.transport)
    # Content needing sanitization produces a warning but still lands.
    create = bob_create(content="<script>x()</script>fine")
    response = signed_inbox_post(node, create, BOB_KEY_ID, REMOTE_PRIVATE)
    data = body_json(response)
    assert data["queued"] is True
    assert any("sanitized" in w for w in data["warnings"])


# --- outbox and collections --------------------------------------------------------------


def test_outbox_lists_only_public_creates(node):
    api_post(node, "/api/v1/statuses", {"status": "public one"})
    api_post(node, "/api/v1/statuses", {"status": "followers only", "visibility": "followers"})
    api_post(node, "/api/v1/statuses", {"status": "@alice direct", "visibility": "direct"})
    response = get(node, "/users/alice/outbox")
    assert response.status == 200
    data = body_json(response)
    assert data["type"] == "OrderedCollection"
    assert data["totalItems"] == 1
    item = data["orderedItems"][0]
    assert "@context" not in item  # items live inside the collection's context
    activity = parse_activity(json.dumps(item))
    assert activity.kind.value == "Create"
    assert activity.object.content == "public one"
    assert walk_for_nulls(data) == []


def test_followers_collection_lists_accepted_only(node):
    alice = node.store.get_local_account("alice")
    node.store.upsert_follow("http://b.test/users/bob", alice.id, "accepted", "http://x/1", 0.0)
    node.store.upsert_follow("http://c.test/users/carol", alice.id, "pending", "http://x/2", 0.0)
    response = get(node, "/users/alice/followers")
    data = body_json(response)
    assert data["orderedItems"] == ["http://b.test/users/bob"]
    assert data["totalItems"] == 1


def test_following_collection_lists_accepted_only(node):
    alice = node.store.get_local_account("alice")
    node.create_user("dave", token="tok-dave")
    dave = node.store.get_local_account("dave")
    node.store.upsert_follow(alice.actor_uri, dave.id, "accepted", "http://x/3", 0.0)
    response = get(node, "/users/alice/following")
    assert body_json(response)["orderedItems"] == [dave.actor_uri]


def test_status_document_is_public_only(node):
    public = body_json(api_post(node, "/api/v1/statuses", {"status": "out loud"}))
    quiet = body_json(
        api_post(node, "/api/v1/statuses", {"status": "quietly", "visibility": "followers"})
    )
    ok = get(node, f"/users/alice/statuses/{public['id']}")
    assert ok.status == 200
    note = parse_note(ok.body)
    assert note.content == "out loud"
    assert note.attributed_to == f"{BASE}/users/alice"

    assert get(node, f"/users/alice/statuses/{quiet['id']}").status == 404
    assert get(node, "/users/alice/statuses/999999").status == 404
    assert get(node, "/users/alice/statuses/abc").status == 404


def test_status_document_of_another_user_is_404(node):
    node.create_user("dave", token="tok-dave")
    mine = body_json(api_post(node, "/api/v1/statuses", {"status": "mine"}))
    assert get(node, f"/users/dave/statuses/{mine['id']}").status == 404


# --- posting statuses -----------------------------------------------------------------------


def test_post_status_requires_a_valid_token(node):
    assert api_post(node, "/api/v1/statuses", {"status": "x"}, token="wrong").status == 401
    response = post(node, "/api/v1/statuses", b'{"status": "x"}')
    assert response.status == 401
    assert body_json(response)["error"] == "Unauthorized"


def test_post_status_renders_the_stored_status(node):
    response = api_post(node, "/api/v1/statuses", {"status": "hello #Cats world"})
    assert response.status == 200
    data = body_json(response)
    assert data["content"] == "hello #Cats world"
    assert data["visibility"] == "public"
    assert data["account"]["acct"] == "alice"
    assert data["tags"] == [{"name": "cats"}]
    assert data["created_at"].endswith("Z")
    assert data["uri"].startswith(f"{BASE}/users/alice/statuses/")
    assert int(data["id"]) > 0


def test_post_status_populates_tag_and_home_timelines(node):
    data = body_json(api_post(node, "/api/v1/statuses", {"status": "look #cats"}))
    tag = body_json(get(node, "/api/v1/timelines/tag/cats"))
    assert [s["id"] for s in tag] == [data["id"]]
    home = body_json(
        get(node, "/api/v1/timelines/home", {"Authorization": "Bearer tok-alice"})
    )
    assert [s["id"] for s in home] == [data["id"]]


def test_post_status_sanitizes_markup(node):
    response = api_post(
        node, "/api/v1/statuses", {"status": '<script>x()</script><b onclick="y()">hi</b>'}
    )
    assert body_json(response)["content"] == "<b>hi</b>"


@pytest.mark.parametrize(
    "payload,reason",
    [
        ({}, "EmptyContent"),
        ({"status": "   "}, "EmptyContent"),
        ({"status": 7}, "EmptyContent"),
        ({"status": "x", "visibility": "unlisted"}, "InvalidVisibility"),
        ({"status": "x", "in_reply_to_id": "glork"}, "UnknownInReplyTo"),
        ({"status": "x", "in_reply_to_id": 424242}, "UnknownInReplyTo"),
        ({"status": "no mentions", "visibility": "direct"}, "NoResolvableMentions"),
    ],
)
def test_post_status_validation_failures_are_422(node, payload, reason):
    response = api_post(node, "/api/v1/statuses", payload)
    assert response.status == 422
    assert body_json(response)["error"] == reason


def test_post_status_with_non_json_body_is_400(node):
    response = post(
        node, "/api/v1/statuses", b"status=hi",
        {"Authorization": "Bearer tok-alice"},
    )
    assert response.status == 400
    assert body_json(response)["error"] == "MalformedDocument"


def test_post_status_threads_replies(node):
    parent = body_json(api_post(node, "/api/v1/statuses", {"status": "root"}))
    child = body_json(
        api_post(node, "/api/v1/statuses",
                 {"status": "reply", "in_reply_to_id": parent["id"]})
    )
    assert child["in_reply_to_id"] == parent["id"]
    stored = node.store.get_status(int(child["id"]))
    assert stored.in_reply_to_id == int(parent["id"])


def test_post_status_resolves_remote_mentions_and_fans_out(node):
    install_remote(node.transport)
    response = api_post(node, "/api/v1/statuses", {"status": "hi @bob@b.test"})
    data = body_json(response)
    assert data["mentions"] == [
        {"acct": "bob@b.test", "url": "http://b.test/users/bob"}
    ]
    assert "warnings" not in data
    assert node.store.pending_count() == 1
    task = node.store.all_tasks()[0]
    assert task.target_inbox == "http://b.test/users/bob/inbox"
    activity = parse_activity(task.activity_body)
    assert activity.kind.value == "Create"
    assert activity.object.content == "hi @bob@b.test"


def test_a_local_post_reads_its_authors_followers_once(node, monkeypatch):
    install_remote(node.transport)
    bob = node.resolve_account(AcctHandle("bob", "b.test"))
    alice = node.store.get_local_account("alice")
    dave, _ = node.create_user("dave", token="tok-dave")
    node.store.upsert_follow(bob.actor_uri, alice.id, "accepted", "http://b.test/f/1", 0.0)
    assert api_post(node, f"/api/v1/accounts/{alice.id}/follow", {}, token="tok-dave").status == 200
    reads = count_calls(monkeypatch, node.store, "followers_of")
    response = api_post(node, "/api/v1/statuses", {"status": "to both halves"})
    assert response.status == 200
    assert reads == [(alice.id,)]
    # The one read served both the local row and the remote task.
    assert [s.content for s in node.store.query_home_timeline(dave.id)] == ["to both halves"]
    assert [t.target_inbox for t in node.store.all_tasks()] == [bob.inbox_uri]


def test_a_remote_handle_that_names_a_local_actor_does_not_resolve(node):
    jrd = build_jrd(AcctHandle("bob", "evil.test"), f"{BASE}/users/alice")
    node.transport.responses[
        "http://evil.test/.well-known/webfinger?resource=acct%3Abob%40evil.test"
    ] = HttpResponse(200, {"Content-Type": JRD_MEDIA_TYPE}, jrd)
    response = get(node, "/api/v1/accounts/lookup?acct=bob%40evil.test")
    assert response.status == 404
    assert body_json(response)["error"] == "ResolutionFailed"
    posted = body_json(api_post(node, "/api/v1/statuses", {"status": "hi @bob@evil.test"}))
    assert posted["mentions"] == []
    assert len(posted["warnings"]) == 1 and "bob@evil.test" in posted["warnings"][0]


def test_post_status_reports_unresolvable_mentions_as_warnings(node):
    response = api_post(node, "/api/v1/statuses", {"status": "hi @ghost and @who@nowhere.test"})
    data = body_json(response)
    assert data["mentions"] == []
    assert len(data["warnings"]) == 2
    assert node.store.pending_count() == 0


def test_direct_status_to_a_resolvable_mention_is_allowed(node):
    install_remote(node.transport)
    response = api_post(
        node, "/api/v1/statuses", {"status": "psst @bob@b.test", "visibility": "direct"}
    )
    assert response.status == 200
    assert body_json(response)["visibility"] == "direct"
    assert node.store.pending_count() == 1


# --- timelines -------------------------------------------------------------------------------


def seed_statuses(node, count):
    ids = []
    for n in range(count):
        data = body_json(api_post(node, "/api/v1/statuses", {"status": f"status {n}"}))
        ids.append(data["id"])
    return ids


def test_home_timeline_requires_auth(node):
    assert get(node, "/api/v1/timelines/home").status == 401


def test_home_timeline_default_and_max_limits(node):
    seed_statuses(node, 45)
    home = body_json(get(node, "/api/v1/timelines/home", {"Authorization": "Bearer tok-alice"}))
    assert len(home) == 20  # default page size
    big = body_json(
        get(node, "/api/v1/timelines/home?limit=999", {"Authorization": "Bearer tok-alice"})
    )
    assert len(big) == 40  # hard ceiling


def test_home_timeline_pagination_walks_backwards(node):
    ids = seed_statuses(node, 5)
    newest_first = list(reversed(ids))
    auth = {"Authorization": "Bearer tok-alice"}
    page_one = body_json(get(node, "/api/v1/timelines/home?limit=2", auth))
    assert [s["id"] for s in page_one] == newest_first[:2]
    page_two = body_json(
        get(node, f"/api/v1/timelines/home?limit=2&max_id={page_one[-1]['id']}", auth)
    )
    assert [s["id"] for s in page_two] == newest_first[2:4]


def test_timeline_bad_parameters_are_400(node):
    auth = {"Authorization": "Bearer tok-alice"}
    assert get(node, "/api/v1/timelines/home?limit=lots", auth).status == 400
    assert get(node, "/api/v1/timelines/home?max_id=x", auth).status == 400
    assert get(node, "/api/v1/timelines/tag/cats?limit=lots").status == 400


def test_tag_timeline_needs_no_auth_and_hides_non_public(node):
    api_post(node, "/api/v1/statuses", {"status": "loud #pets"})
    api_post(node, "/api/v1/statuses", {"status": "quiet #pets", "visibility": "followers"})
    data = body_json(get(node, "/api/v1/timelines/tag/pets"))
    assert [s["content"] for s in data] == ["loud #pets"]


# --- follow and lookup -------------------------------------------------------------------------


def test_follow_local_account_is_immediate(node):
    node.create_user("dave", token="tok-dave")
    dave = node.store.get_local_account("dave")
    response = api_post(node, f"/api/v1/accounts/{dave.id}/follow", {})
    assert response.status == 200
    assert body_json(response) == {
        "id": str(dave.id), "following": True, "requested": False
    }
    assert node.store.pending_count() == 0

    repeat = api_post(node, f"/api/v1/accounts/{dave.id}/follow", {})
    assert body_json(repeat)["following"] is True


def test_follow_remote_account_enqueues_a_follow_activity(node):
    install_remote(node.transport)
    looked_up = body_json(get(node, "/api/v1/accounts/lookup?acct=bob%40b.test"))
    response = api_post(node, f"/api/v1/accounts/{looked_up['id']}/follow", {})
    assert body_json(response) == {
        "id": looked_up["id"], "following": False, "requested": True
    }
    assert node.store.pending_count() == 1
    task = node.store.all_tasks()[0]
    activity = parse_activity(task.activity_body)
    assert activity.kind.value == "Follow"
    assert activity.object == "http://b.test/users/bob"

    # Asking again must not queue a second Follow.
    api_post(node, f"/api/v1/accounts/{looked_up['id']}/follow", {})
    assert node.store.pending_count() == 1
    assert node.store.list_peers() == [("b.test", "http://b.test/users/bob/inbox")]


def test_concurrent_follow_requests_queue_one_follow(node, monkeypatch):
    install_remote(node.transport)
    bob_id = body_json(get(node, "/api/v1/accounts/lookup?acct=bob%40b.test"))["id"]
    real_get_follow = node.store.get_follow

    def slow_get_follow(*args):
        found = real_get_follow(*args)
        time.sleep(0.05)  # wide enough for both requests to check before either writes
        return found

    monkeypatch.setattr(node.store, "get_follow", slow_get_follow)
    threads = [
        threading.Thread(target=api_post, args=(node, f"/api/v1/accounts/{bob_id}/follow", {}))
        for _ in range(2)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    assert node.store.pending_count() == 1


def test_follow_error_modes(node):
    alice = node.store.get_local_account("alice")
    assert post(node, "/api/v1/accounts/1/follow").status == 401
    assert api_post(node, "/api/v1/accounts/999/follow", {}).status == 404
    assert api_post(node, "/api/v1/accounts/abc/follow", {}).status == 404
    response = api_post(node, f"/api/v1/accounts/{alice.id}/follow", {})
    assert response.status == 422
    assert body_json(response)["error"] == "CannotFollowSelf"


def test_lookup_local_account(node):
    response = get(node, "/api/v1/accounts/lookup?acct=alice")
    assert response.status == 200
    data = body_json(response)
    assert data["acct"] == "alice"
    assert data["url"] == f"{BASE}/users/alice"


def test_lookup_failure_modes(node):
    assert get(node, "/api/v1/accounts/lookup").status == 400
    assert get(node, "/api/v1/accounts/lookup?acct=a%40b%40c").status == 404
    assert get(node, "/api/v1/accounts/lookup?acct=ghost").status == 404
    node.delete_local_account("alice")
    assert get(node, "/api/v1/accounts/lookup?acct=alice").status == 410


def test_lookup_resolves_and_stores_remote_accounts(node):
    install_remote(node.transport)
    response = get(node, "/api/v1/accounts/lookup?acct=%40bob%40b.test")
    assert response.status == 200
    assert body_json(response)["acct"] == "bob@b.test"
    assert node.store.get_account_by_uri("http://b.test/users/bob") is not None


def test_lookup_reports_why_resolution_failed(node):
    response = get(node, "/api/v1/accounts/lookup?acct=bob%40unreachable.test")
    assert response.status == 404
    assert body_json(response)["error"] == "ResolutionFailed"


BOB_WEBFINGER = "http://b.test/.well-known/webfinger?resource=acct%3Abob%40b.test"
BOB_ACTOR = "http://b.test/users/bob"
SELF_LINK = {"rel": "self", "type": ACTIVITY_MEDIA_TYPE, "href": BOB_ACTOR}


def _jrd(*links, subject="acct:bob@b.test"):
    document = {"subject": subject, "links": list(links)}
    body = json.dumps({k: v for k, v in document.items() if v is not None}).encode()
    return HttpResponse(200, {"Content-Type": JRD_MEDIA_TYPE}, body)


def _actor(status=200, body=None, **changes):
    document = {**remote_actor_doc(), **changes}
    if body is None:
        body = json.dumps({k: v for k, v in document.items() if v is not None}).encode()
    return HttpResponse(status, {"Content-Type": ACTIVITY_MEDIA_TYPE}, body)


# One failure each, from WebFinger or from the actor document it points at;
# None leaves the URL unserved, which CannedTransport answers 404.
DISCOVERY_FAILURES = {
    "webfinger 404": (None, None, "ResolutionFailed"),
    "webfinger 500": (HttpResponse(500, {}, b"oops"), None, "ResolutionFailed"),
    "webfinger empty 200": (HttpResponse(200, {}, b""), None, "ResolutionFailed"),
    "webfinger not JSON": (HttpResponse(200, {}, b"<html>"), None, "ResolutionFailed"),
    "webfinger no subject": (_jrd(SELF_LINK, subject=None), None, "ResolutionFailed"),
    "webfinger no self link": (_jrd(), None, "NoSelfLink"),
    "webfinger self link typed text/html": (
        _jrd({**SELF_LINK, "type": "text/html"}), None, "NoSelfLink"
    ),
    "webfinger relative href": (
        _jrd({**SELF_LINK, "href": "/users/bob"}), None, "ResolutionFailed"
    ),
    "actor 404": (_jrd(SELF_LINK), None, "ResolutionFailed"),
    "actor 410": (_jrd(SELF_LINK), _actor(410, b'{"error": "Gone"}'), "ResolutionFailed"),
    "actor not JSON": (_jrd(SELF_LINK), _actor(body=b"<html>"), "ResolutionFailed"),
    "actor refused by validate_actor_document": (
        _jrd(SELF_LINK), _actor(inbox=None), "ResolutionFailed"
    ),
    "actor id names another URI": (
        _jrd(SELF_LINK), _actor(id="http://b.test/users/mallory"), "ResolutionFailed"
    ),
    "self link on this server's own host": (
        _jrd({**SELF_LINK, "href": f"{BASE}/users/alice"}), None, "ResolutionFailed"
    ),
}


@pytest.mark.parametrize(
    "webfinger,actor,reason", DISCOVERY_FAILURES.values(), ids=DISCOVERY_FAILURES.keys()
)
def test_no_discovery_failure_answers_500(node, webfinger, actor, reason):
    for url, response in ((BOB_WEBFINGER, webfinger), (BOB_ACTOR, actor)):
        if response is not None:
            node.transport.responses[url] = response

    looked_up = get(node, "/api/v1/accounts/lookup?acct=bob%40b.test")
    assert (looked_up.status, body_json(looked_up)["error"]) == (404, reason)

    posted = api_post(node, "/api/v1/statuses", {"status": "hi @bob@b.test"})
    assert posted.status == 200
    data = body_json(posted)
    assert data["mentions"] == []
    assert len(data["warnings"]) == 1 and "bob@b.test" in data["warnings"][0]
    assert node.store.get_status(int(data["id"])).content == "hi @bob@b.test"
    assert node.store.get_account_by_uri(BOB_ACTOR) is None


# --- cross-cutting ----------------------------------------------------------------------------


def test_unknown_routes_are_404(node):
    assert get(node, "/definitely/not/a/route").status == 404
    assert post(node, "/users/alice").status == 404  # wrong method for the actor


def test_every_error_body_names_its_error(node):
    failures = [
        get(node, "/.well-known/webfinger"),
        get(node, "/users/ghost"),
        post(node, "/users/alice/inbox", b"{}"),
        post(node, "/api/v1/statuses", b"{}"),
        get(node, "/api/v1/timelines/home"),
        get(node, "/api/v1/accounts/lookup"),
        get(node, "/nope"),
    ]
    for response in failures:
        assert response.status >= 400
        data = body_json(response)
        assert isinstance(data["error"], str) and data["error"]


def test_responses_never_smuggle_nulls(node):
    install_remote(node.transport)
    api_post(node, "/api/v1/statuses", {"status": "hi @bob@b.test #cats"})
    surfaces = [
        get(node, "/users/alice"),
        get(node, "/users/alice/outbox"),
        get(node, "/api/v1/timelines/tag/cats"),
        get(node, "/api/v1/timelines/home", {"Authorization": "Bearer tok-alice"}),
        get(node, "/api/v1/accounts/lookup?acct=alice"),
    ]
    for response in surfaces:
        assert response.status == 200
        assert walk_for_nulls(body_json(response)) == []


def test_actor_cache_keeps_the_most_recently_used_actors(node, monkeypatch):
    monkeypatch.setattr(identity, "CACHE_SIZE", 3)
    uris = [install_remote(node.transport, f"bob{i}") for i in range(4)]
    for uri in uris[:3]:
        node.fetch_actor(uri)
    node.fetch_actor(uris[0])  # a hit: bob0 becomes the most recently used
    node.fetch_actor(uris[3])  # the fourth distinct actor evicts bob1
    assert len(node._actor_cache) == 3
    fetched = len(node.transport.requests)
    node.fetch_actor(uris[0])
    assert len(node.transport.requests) == fetched
    node.fetch_actor(uris[1])
    assert len(node.transport.requests) == fetched + 1


def test_a_cached_actor_document_is_trusted_for_the_ttl_then_fetched_again(node):
    install_remote(node.transport)
    assert signed_inbox_post(node, bob_create(), BOB_KEY_ID, REMOTE_PRIVATE).status == 202
    node.clock.t += identity.RESOLVE_TTL_SECONDS - 1
    second = bob_create("http://b.test/users/bob/statuses/2")
    assert signed_inbox_post(node, second, BOB_KEY_ID, REMOTE_PRIVATE).status == 202
    assert actor_fetches(node) == 1
    node.clock.t += 1  # the first fetch is now RESOLVE_TTL_SECONDS old
    third = bob_create("http://b.test/users/bob/statuses/3")
    assert signed_inbox_post(node, third, BOB_KEY_ID, REMOTE_PRIVATE).status == 202
    assert actor_fetches(node) == 2


# --- one transaction per request ---------------------------------------------------


def file_node_at(root, transport=None):
    config = Config(domain=LOCAL, test_mode=True, key_bits=1024)
    return InstanceNode(
        config, store=FileStore(root), transport=transport or CannedTransport(), clock=Ticker()
    )


def alice_and_bob_follow_each_other(node):
    install_remote(node.transport)
    bob = node.resolve_account(AcctHandle("bob", "b.test"))
    alice = node.store.get_local_account("alice")
    node.store.upsert_follow(alice.actor_uri, bob.id, "accepted", f"{alice.actor_uri}#f/1", 0.0)
    node.store.upsert_follow(bob.actor_uri, alice.id, "accepted", f"{bob.actor_uri}#f/1", 0.0)
    return alice, bob


def commits(node, action):
    """Run ``action``; return the number of COMMITs it sent to the file store."""
    statements = []
    node.store._db.set_trace_callback(statements.append)
    try:
        action()
    finally:
        node.store._db.set_trace_callback(None)
    return statements.count("COMMIT")


def test_each_request_commits_its_writes_once(tmp_path):
    node = file_node_at(tmp_path / "store")
    node.create_user("alice", token="tok-alice")
    alice, bob = alice_and_bob_follow_each_other(node)
    install_remote(node.transport, "dave")
    requests = {
        "lookup": lambda: get(node, "/api/v1/accounts/lookup?acct=dave@b.test"),
        "create_user": lambda: node.create_user("carol", token="tok-carol"),
        "follow": lambda: api_post(node, f"/api/v1/accounts/{bob.id}/follow", {}, "tok-carol"),
        "inbox Create": lambda: signed_inbox_post(node, bob_create(), BOB_KEY_ID, REMOTE_PRIVATE),
        "post status": lambda: api_post(node, "/api/v1/statuses", {"status": "hi followers"}),
        "delete_local_account": lambda: node.delete_local_account("carol"),
    }
    assert {name: commits(node, action) for name, action in requests.items()} == {
        name: 1 for name in requests
    }
    timeline = node.store.query_home_timeline(alice.id)
    assert [s.content for s in timeline] == ["hi followers", "hello"]
    # Follow, Create and Delete, each to bob's inbox.
    assert [t.target_inbox for t in node.store.all_tasks()] == [bob.inbox_uri] * 3
    node.close()


def test_a_crash_inside_an_inbox_request_is_undone_by_the_senders_retry(tmp_path, monkeypatch):
    live = file_node_at(tmp_path / "live")
    live.create_user("alice", token="tok-alice")
    alice_and_bob_follow_each_other(live)
    crashed = tmp_path / "crashed"
    write = live.store._write

    def write_then_copy(collection, key, value):
        # Copy the files as a crash right after the status row would leave them.
        write(collection, key, value)
        if collection == "statuses" and not crashed.exists():
            crashed.mkdir()
            for name in ("store.sqlite3", "store.sqlite3-wal"):
                shutil.copy(tmp_path / "live" / name, crashed / name)

    monkeypatch.setattr(live.store, "_write", write_then_copy)
    url = f"{BASE}/users/alice/inbox"
    body = bob_create().encode()
    when = datetime.fromtimestamp(live.clock(), tz=timezone.utc)
    headers = sign_request("POST", url, body, BOB_KEY_ID, REMOTE_KEY, when)
    headers["Content-Type"] = ACTIVITY_MEDIA_TYPE
    request = HttpRequest("POST", url, headers, body)
    assert live.handle_http(request).status == 202
    live.close()
    assert crashed.exists()

    # The sender never saw the 202, so it delivers the same request again.
    restarted = file_node_at(crashed, live.transport)
    assert restarted.handle_http(request).status == 202
    timeline = get(restarted, "/api/v1/timelines/home", {"Authorization": "Bearer tok-alice"})
    assert [s["uri"] for s in body_json(timeline)] == ["http://b.test/users/bob/statuses/1"]
    restarted.close()


# --- a local account's URIs are minted once ----------------------------------------------


@pytest.mark.parametrize(
    "reopened_as",
    [
        Config(domain=LOCAL, test_mode=False, key_bits=1024),  # the scheme changed
        Config(domain="moved.test", test_mode=True, key_bits=1024),  # the domain changed
    ],
    ids=["https", "another-domain"],
)
def test_a_reopened_store_publishes_the_uris_it_signs_with(tmp_path, reopened_as):
    first = file_node_at(tmp_path / "store")
    first.create_user("alice", token="tok-alice")
    alice, bob = alice_and_bob_follow_each_other(first)
    first.close()

    node = InstanceNode(
        reopened_as, store=FileStore(tmp_path / "store"), transport=CannedTransport(),
        clock=Ticker(),
    )
    row = node.store.get_local_account("alice")
    assert (row.actor_uri, row.inbox_uri) == (alice.actor_uri, alice.inbox_uri)
    posted = api_post(node, "/api/v1/statuses", {"status": "after the reopen"})
    node.process_deliveries()
    [delivery] = [r for r in node.transport.requests if r.url == bob.inbox_uri]
    served = get(node, "/users/alice", {"Accept": ACTIVITY_MEDIA_TYPE})
    assert served.status == 200
    document = body_json(served)

    signature = httpsig.parse_signature_header(delivery.headers["Signature"])
    assert signature.key_id == document["publicKey"]["id"]
    assert (document["id"], document["inbox"]) == (row.actor_uri, row.inbox_uri)
    assert body_json(posted)["uri"].startswith(f"{row.actor_uri}/statuses/")
    # The served document verifies the delivery, as the follower would check it.
    actor = validate_actor_document(served.body)
    verified = httpsig.verify_signature(
        "POST", delivery.target, delivery.headers, delivery.body, lambda uri: actor,
        node.now_dt(),
    )
    assert verified.id == row.actor_uri
    node.close()
