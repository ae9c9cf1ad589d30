"""HTTP message types and the outbound transport abstraction.

Requests and responses are plain serialized-header-plus-body values so the
same server code runs behind a real socket or the in-process virtual network.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol
from urllib.parse import parse_qs, urlsplit

from .errors import MothError, TransportError

TIMEOUT_SECONDS = 15.0  # per outbound request, connect and read


@dataclass
class HttpRequest:
    method: str
    url: str  # absolute URL, split once into the five parts below
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    authority: str = field(init=False, repr=False)  # netloc as sent, port kept
    host: str = field(init=False, repr=False)  # lower-cased, no port
    path: str = field(init=False, repr=False)
    target: str = field(init=False, repr=False)  # origin-form: path[?query]
    query: dict[str, str] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        parts = urlsplit(self.url)
        self.authority = parts.netloc
        self.host = parts.hostname or ""
        self.path = parts.path or "/"
        # RFC 9112 section 3.2.1: an empty path is sent as "/".
        self.target = f"{self.path}?{parts.query}" if parts.query else self.path
        # Most requests, every inbox POST among them, have no query to parse.
        pairs = parse_qs(parts.query, keep_blank_values=True) if parts.query else {}
        self.query = {k: v[0] for k, v in pairs.items()}

    def header(self, name: str) -> str | None:
        wanted = name.lower()
        for key, value in self.headers.items():
            if key.lower() == wanted:
                return value
        return None


@dataclass
class HttpResponse:
    status: int
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""


class Transport(Protocol):
    """Capability for issuing outbound HTTP requests."""

    def request(self, request: HttpRequest) -> HttpResponse:
        """Deliver the request; raise TransportError if no response arrives."""
        ...


def get_body(
    transport: Transport, url: str, accept: str, error: type[MothError], what: str
) -> bytes:
    """The body of a non-empty 200 to a GET of url; anything else raises `error`."""
    try:
        response = transport.request(HttpRequest("GET", url, {"Accept": accept}))
    except TransportError as exc:
        raise error(f"{what}: {exc}") from exc
    if response.status != 200:
        raise error(f"{what} returned {response.status}")
    if not response.body:
        raise error(f"{what} body empty")
    return response.body


class UrllibTransport:
    """Real network transport used by the CLI (serve, probe)."""

    def __init__(self) -> None:
        # Loaded when a server builds its transport, so its first delivery does
        # not pay for it; not on import, as simnet never needs http.client or ssl.
        import urllib.request

    def request(self, request: HttpRequest) -> HttpResponse:
        import urllib.error
        import urllib.request

        req = urllib.request.Request(
            request.url,
            data=request.body if request.method in ("POST", "PUT") else None,
            method=request.method,
        )
        for name, value in request.headers.items():
            if name.lower() == "host":
                continue  # urllib sets Host from the URL
            req.add_header(name, value)
        try:
            with urllib.request.urlopen(req, timeout=TIMEOUT_SECONDS) as resp:
                return HttpResponse(
                    status=resp.status,
                    headers={k.lower(): v for k, v in resp.headers.items()},
                    body=resp.read(),
                )
        except urllib.error.HTTPError as exc:
            return HttpResponse(
                status=exc.code,
                headers={k.lower(): v for k, v in (exc.headers or {}).items()},
                body=exc.read(),
            )
        except OSError as exc:  # URLError, timeouts, DNS failures
            raise TransportError(str(exc)) from exc
