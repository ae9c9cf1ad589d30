import json
import sys
import threading

import pytest

from mothfed import identity
from mothfed.activitypub import ACTIVITY_MEDIA_TYPE
from mothfed.errors import MalformedHandle, NoSelfLink, ResolutionFailed, TransportError
from mothfed.identity import (
    AcctHandle,
    Resolver,
    TtlCache,
    actor_uri_from_jrd,
    build_jrd,
    parse_acct,
    valid_username,
)
from mothfed.transport import HttpResponse

LOCAL = "local.test"


# --- handle parsing -----------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("@alice@remote.example", AcctHandle("alice", "remote.example")),
        ("alice@remote.example", AcctHandle("alice", "remote.example")),
        ("acct:alice@remote.example", AcctHandle("alice", "remote.example")),
        ("@alice", AcctHandle("alice", LOCAL)),
        ("alice", AcctHandle("alice", LOCAL)),
        ("Alice@Remote.Example", AcctHandle("Alice", "remote.example")),
        ("a_1@sub.remote.example", AcctHandle("a_1", "sub.remote.example")),
        # Dotless domains are fine when they are *this* host.
        ("alice@local.test", AcctHandle("alice", LOCAL)),
    ],
)
def test_parse_acct_accepts_common_forms(text, expected):
    assert parse_acct(text, LOCAL) == expected


def test_parse_acct_accepts_dotless_domain_only_when_local():
    assert parse_acct("alice@localhost", "localhost") == AcctHandle("alice", "localhost")
    with pytest.raises(MalformedHandle):
        parse_acct("alice@localhost", LOCAL)


@pytest.mark.parametrize(
    "text",
    ["", "@", "@@", "a@b@c", "al ice@remote.example", "alice@@remote.example",
     "al!ce", "@alice@", "alice@-bad-.example"],
)
def test_parse_acct_rejects_malformed_input(text):
    with pytest.raises(MalformedHandle):
        parse_acct(text, LOCAL)


def test_handles_compare_case_insensitively():
    a = AcctHandle("Alice", "Remote.Example")
    b = AcctHandle("alice", "remote.example")
    assert a == b
    assert hash(a) == hash(b)
    assert a.domain == "remote.example"  # domain is canonicalized eagerly
    assert a.username == "Alice"  # username keeps its spelling
    assert a.acct_uri == "acct:Alice@remote.example"


def test_valid_username():
    assert valid_username("alice_01")
    assert not valid_username("")
    assert not valid_username("al ice")
    assert not valid_username("al-ice")


# --- JRD documents -------------------------------------------------------------


def jrd(*links, subject="acct:x@y.test"):
    return json.dumps({"subject": subject, "links": list(links)}).encode()


X = AcctHandle("x", "y.test")


def test_build_jrd_shape_and_self_link():
    body = build_jrd(AcctHandle("alice", LOCAL), "https://local.test/users/alice")
    assert body == (
        b'{"subject": "acct:alice@local.test", "aliases": ["https://local.test/users/alice"], '
        b'"links": [{"rel": "self", "type": "application/activity+json", '
        b'"href": "https://local.test/users/alice"}]}'
    )
    assert json.loads(body)["links"][0]["type"] == ACTIVITY_MEDIA_TYPE
    unicode_body = build_jrd(AcctHandle("bob", "b.test"), "https://b.test/users/bö")
    assert "https://b.test/users/bö".encode() in unicode_body  # ensure_ascii=False


def test_jrd_round_trip():
    handle = AcctHandle("bob", "b.test")
    body = build_jrd(handle, "https://b.test/users/bob")
    assert actor_uri_from_jrd(body, handle, test_mode=False) == "https://b.test/users/bob"


def test_jrd_from_json_rejects_garbage():
    for body in (
        b"not json",
        b"[]",
        b"[" * 100_000,  # nested too deep
        b'{"links": []}',
        b'{"subject": 7, "links": []}',
    ):
        with pytest.raises(ResolutionFailed):
            actor_uri_from_jrd(body, X, test_mode=False)


def test_self_link_accepts_typeless_and_ld_json_links():
    ld_type = 'application/ld+json; profile="https://www.w3.org/ns/activitystreams"'
    for link in (
        {"rel": "self", "type": ld_type, "href": "https://y.test/u/x"},
        {"rel": "self", "href": "https://y.test/u/x"},
        {"rel": "self", "type": 7, "href": "https://y.test/u/x"},  # a non-string type is absent
    ):
        assert actor_uri_from_jrd(jrd(link), X, test_mode=False) == "https://y.test/u/x"


def test_self_link_requires_a_usable_self_entry():
    profile_page = {"rel": "http://webfinger.net/rel/profile-page", "type": "text/html",
                    "href": "https://y.test/@x"}
    html_self = {"rel": "self", "type": "text/html", "href": "https://y.test/@x"}
    hrefless = {"rel": "self", "type": ACTIVITY_MEDIA_TYPE, "href": None}
    for body in (
        jrd(),
        jrd(profile_page, html_self, hrefless, "not a link"),
        b'{"subject": "acct:x@y.test"}',
    ):
        with pytest.raises(NoSelfLink):
            actor_uri_from_jrd(body, X, test_mode=False)
    usable = {"rel": "self", "type": ACTIVITY_MEDIA_TYPE, "href": "https://y.test/u/x"}
    later = {"rel": "self", "type": ACTIVITY_MEDIA_TYPE, "href": "https://y.test/u/other"}
    body = jrd(profile_page, html_self, hrefless, "not a link", usable, later)
    assert actor_uri_from_jrd(body, X, test_mode=False) == "https://y.test/u/x"


def test_self_link_must_be_absolute():
    relative = jrd({"rel": "self", "href": "/u/x"})
    with pytest.raises(ResolutionFailed, match="not an absolute URI"):
        actor_uri_from_jrd(relative, X, test_mode=True)


# --- resolver -------------------------------------------------------------------


class ScriptedTransport:
    """Canned WebFinger responses, counting requests per URL."""

    def __init__(self, responses):
        self.responses = responses
        self.requests = []

    def request(self, request):
        self.requests.append(request.url)
        outcome = self.responses.get(request.url)
        if outcome is None:
            return HttpResponse(status=404, headers={}, body=b"")
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def jrd_response(handle, actor_uri):
    body = build_jrd(handle, actor_uri)
    return HttpResponse(
        status=200, headers={"Content-Type": "application/jrd+json"}, body=body
    )


def webfinger_url(handle):
    return (
        f"https://{handle.domain}/.well-known/webfinger"
        f"?resource=acct%3A{handle.username}%40{handle.domain}"
    )


class TickClock:
    def __init__(self):
        self.t = 1000.0

    def __call__(self):
        return self.t


def make_resolver(responses, test_mode=False):
    # Test-mode resolvers speak plain http; serve the same bodies either way.
    responses = dict(responses)
    for url, outcome in list(responses.items()):
        if url.startswith("https://"):
            responses.setdefault("http://" + url[len("https://"):], outcome)
    transport = ScriptedTransport(responses)
    clock = TickClock()
    resolver = Resolver(LOCAL, transport, clock=clock, test_mode=test_mode)
    return resolver, transport, clock


def test_resolver_returns_actor_uri_and_caches():
    handle = AcctHandle("bob", "b.test")
    resolver, transport, clock = make_resolver(
        {webfinger_url(handle): jrd_response(handle, "https://b.test/users/bob")}
    )
    assert resolver.resolve(handle) == "https://b.test/users/bob"
    assert resolver.resolve(handle) == "https://b.test/users/bob"
    assert len(transport.requests) == 1  # second hit served from cache

    clock.t += 3601  # past the TTL: refetch
    assert resolver.resolve(handle) == "https://b.test/users/bob"
    assert len(transport.requests) == 2


def test_resolver_refuses_local_handles():
    resolver, _, _ = make_resolver({})
    with pytest.raises(ValueError):
        resolver.resolve(AcctHandle("alice", LOCAL))


def test_resolver_failure_modes_map_to_resolution_failed():
    handle = AcctHandle("bob", "b.test")
    url = webfinger_url(handle)
    for outcome in (
        HttpResponse(status=500, headers={}, body=b"boom"),
        HttpResponse(status=200, headers={}, body=b""),  # silent empty 200
        HttpResponse(status=200, headers={}, body=b"<html>hi</html>"),
        TransportError("connection refused"),
    ):
        resolver, _, _ = make_resolver({url: outcome})
        with pytest.raises(ResolutionFailed):
            resolver.resolve(handle)


def test_resolver_rejects_non_https_actor_uri_outside_test_mode():
    handle = AcctHandle("bob", "b.test")
    responses = {webfinger_url(handle): jrd_response(handle, "http://b.test/users/bob")}
    resolver, _, _ = make_resolver(responses)
    with pytest.raises(ResolutionFailed):
        resolver.resolve(handle)
    relaxed, _, _ = make_resolver(responses, test_mode=True)
    assert relaxed.resolve(handle) == "http://b.test/users/bob"


def test_resolver_failures_are_not_cached():
    handle = AcctHandle("bob", "b.test")
    url = webfinger_url(handle)
    resolver, transport, _ = make_resolver({url: TransportError("flaky")})
    with pytest.raises(ResolutionFailed):
        resolver.resolve(handle)
    transport.responses[url] = jrd_response(handle, "https://b.test/users/bob")
    assert resolver.resolve(handle) == "https://b.test/users/bob"


def test_resolver_cache_keeps_the_most_recently_used_handles(monkeypatch):
    monkeypatch.setattr(identity, "CACHE_SIZE", 3)
    handles = [AcctHandle(f"bob{i}", "b.test") for i in range(4)]
    resolver, transport, _ = make_resolver(
        {webfinger_url(h): jrd_response(h, f"https://b.test/users/{h.username}") for h in handles}
    )
    for handle in handles[:3]:
        resolver.resolve(handle)
    resolver.resolve(handles[0])  # a hit: bob0 becomes the most recently used
    resolver.resolve(handles[3])  # the fourth distinct handle evicts bob1
    assert len(resolver._cache) == 3
    assert len(transport.requests) == 4
    resolver.resolve(handles[0])
    assert len(transport.requests) == 4
    resolver.resolve(handles[1])
    assert len(transport.requests) == 5


def test_ttl_cache_keeps_its_bound_under_concurrent_writers(monkeypatch):
    monkeypatch.setattr(identity, "CACHE_SIZE", 8)
    cache = TtlCache(TickClock())
    errors = []
    start = threading.Barrier(8)

    def churn(writer):
        try:
            start.wait(timeout=30)
            for i in range(2000):
                cache.put((writer, i), i)
                cache.get((writer, i - 1))
        except Exception as exc:  # a lost update can corrupt the LRU order
            errors.append(exc)

    threads = [threading.Thread(target=churn, args=(n,)) for n in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(cache) == 8  # every put past the bound evicted exactly one entry
