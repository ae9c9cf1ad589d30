"""HttpRequest splits its URL once into the parts servers and transports read."""
import pytest

from mothfed.transport import HttpRequest


@pytest.mark.parametrize(
    "url, parts",
    [
        (
            "http://b.test:8080/users/bob?x=1",
            ("b.test:8080", "b.test", "/users/bob", "/users/bob?x=1", {"x": "1"}),
        ),
        (
            "https://B.Test/users/bob",
            ("B.Test", "b.test", "/users/bob", "/users/bob", {}),
        ),
        (
            "http://b.test?x=1",
            ("b.test", "b.test", "/", "/?x=1", {"x": "1"}),
        ),
        (
            "http://b.test/api?acct=&limit=2",
            ("b.test", "b.test", "/api", "/api?acct=&limit=2", {"acct": "", "limit": "2"}),
        ),
    ],
    ids=["port", "upper-case host", "empty path with query", "blank query value"],
)
def test_request_url_parts(url, parts):
    request = HttpRequest("GET", url)
    assert (request.authority, request.host, request.path, request.target, request.query) == parts
