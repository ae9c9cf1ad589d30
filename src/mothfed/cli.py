"""Command line entry points: serve, user create, probe, keygen.

Exit codes: 0 success, 1 runtime error, 2 usage error (argparse's own).
"""
from __future__ import annotations

import argparse
import signal
import sys
import threading
from dataclasses import dataclass, replace
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .config import Config, load_config
from .errors import BindFailed, MothError
from .http_api import _error, _Refused
from .httpsig import generate_rsa_keypair, load_public_key
from .identity import (
    actor_from_document,
    actor_uri_from_jrd,
    fetch_actor_document,
    fetch_jrd,
    parse_acct,
    webfinger_url,
)
from .instance import InstanceNode
from .transport import HttpRequest, HttpResponse, Transport, UrllibTransport

# Larger request bodies get 413 before any of the body is read.
MAX_BODY_BYTES = 1 << 20


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moth-fed",
        description="Mastodon-compatible ActivityPub federation server",
    )
    parser.add_argument("--config", help="path to a JSON config file")
    parser.add_argument("--domain", help="override the configured domain")
    parser.add_argument("--port", type=int, help="override the configured port")
    parser.add_argument(
        "--store", help="storage: 'memory' or 'file:<path>' (overrides config)"
    )
    parser.add_argument(
        "--test-mode",
        action="store_true",
        help="permit plain http URIs (development and harness use)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("serve", help="run the server until signaled")

    user = commands.add_parser("user", help="local account management")
    user_commands = user.add_subparsers(dest="user_command", required=True)
    create = user_commands.add_parser("create", help="provision a local account")
    create.add_argument("name")

    probe = commands.add_parser("probe", help="walk discovery for a remote handle")
    probe.add_argument("handle")

    keygen = commands.add_parser("keygen", help="rotate a local account's RSA keypair")
    keygen.add_argument("name")
    return parser


def _load(args: argparse.Namespace) -> Config:
    # An absent --test-mode reads False, which must not override the file.
    test_mode = args.test_mode or None
    flags = dict(domain=args.domain, port=args.port, store=args.store, test_mode=test_mode)
    return load_config(args.config, defaults={"domain": "localhost"}, flags=flags)


# --- serve -----------------------------------------------------------------


def _refuse_body(status: int, reason: str, detail: str | None) -> HttpResponse:
    response = _error(status, reason, detail)
    # The body stays unread, so the connection cannot carry another request.
    response.headers["Connection"] = "close"
    return response


def _handler_for(node: InstanceNode) -> type[BaseHTTPRequestHandler]:
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, format: str, *args) -> None:
            pass

        def _read_and_handle(self) -> HttpResponse:
            try:
                request = self._request()
                request.body = self._body()
            except _Refused as refused:
                return _refuse_body(refused.status, refused.reason, refused.detail)
            return node.handle_http(request)

        def _request(self) -> HttpRequest:
            """The request less its body; its URL comes from the request target
            and the one Host line (RFC 9112 section 3.2)."""
            hosts = self.headers.get_all("Host", [])
            if len(hosts) > 1 or not (hosts or self.request_version in ("HTTP/0.9", "HTTP/1.0")):
                raise _Refused(400, "BadHost", f"{len(hosts)} Host lines in {self.request_version}")
            host = hosts[0] if hosts else node.domain
            # Section 3.2.2: an absolute-form target names its own host.
            absolute = self.path.lower().startswith(("http://", "https://"))
            scheme = "http" if node.config.test_mode else "https"
            url = self.path if absolute else f"{scheme}://{host}{self.path}"
            try:
                request = HttpRequest(self.command, url, dict(self.headers.items()))
            except ValueError as exc:
                raise _Refused(400, "BadHost", f"{url!r}: {exc}") from exc
            if not request.host or not (absolute or request.authority == host):
                raise _Refused(400, "BadHost", f"target {self.path!r} with Host {host!r}")
            return request

        def _body(self) -> bytes:
            # RFC 9112 section 6.3: a body must be framed by exactly one length.
            if "Transfer-Encoding" in self.headers:
                coding = self.headers["Transfer-Encoding"]
                raise _Refused(411, "LengthRequired", f"Transfer-Encoding {coding!r}")
            lengths = {
                value.strip()
                for header in self.headers.get_all("Content-Length", ())
                for value in header.split(",")
            }
            if len(lengths) > 1:
                raise _Refused(
                    400, "BadContentLength", f"Content-Length values differ: {sorted(lengths)}"
                )
            text = lengths.pop() if lengths else "0"
            if not (text.isascii() and text.isdigit()):
                raise _Refused(400, "BadContentLength", f"Content-Length {text!r}")
            length = int(text)
            if length > MAX_BODY_BYTES:
                raise _Refused(413, "BodyTooLarge", f"{length} > {MAX_BODY_BYTES} bytes")
            return self.rfile.read(length) if length else b""

        def _dispatch(self) -> None:
            response = self._read_and_handle()
            if response.status in (400, 401, 403, 411, 413) and response.body:
                # The one place rejections would otherwise be invisible.
                sys.stderr.write(
                    f"rejected {self.command} {self.path}: "
                    f"{response.body.decode('utf-8', 'replace')}\n"
                )
            self._send(response)

        def _send(self, response: HttpResponse) -> None:
            self.send_response(response.status)
            for name, value in response.headers.items():
                self.send_header(name, value)
            self.send_header("Content-Length", str(len(response.body)))
            self.end_headers()
            if self.command != "HEAD":
                self.wfile.write(response.body)

        def send_error(
            self, code: int, message: str | None = None, explain: str | None = None
        ) -> None:
            """http.server's own refusals (a bad request line, 414, 431, 501)
            in the API's JSON error shape instead of its HTML page."""
            if self.request_version == "HTTP/0.9":
                # A request line without a valid version leaves http.server at
                # HTTP/0.9, which writes no status line or headers.
                self.request_version = self.protocol_version
            reason = "".join(ch for ch in HTTPStatus(code).phrase if ch.isalnum())
            self._send(_refuse_body(code, reason, message))

        def do_GET(self) -> None:
            self._dispatch()

        def do_POST(self) -> None:
            self._dispatch()

    return Handler


def cmd_serve(config: Config) -> int:
    node = InstanceNode(config)
    try:
        server = ThreadingHTTPServer((config.bind, config.port), _handler_for(node))
    except OSError as exc:
        raise BindFailed(f"cannot bind {config.bind}:{config.port}: {exc}") from exc

    stop = threading.Event()

    def pump() -> None:
        while not stop.wait(1.0):
            try:
                node.process_deliveries()
            except Exception as exc:  # noqa: BLE001 - the pump must survive
                sys.stderr.write(f"delivery pump error: {exc}\n")

    pump_thread = threading.Thread(target=pump, name="delivery-pump", daemon=True)
    pump_thread.start()

    def shutdown(signum, frame) -> None:
        stop.set()
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGINT, shutdown)
    signal.signal(signal.SIGTERM, shutdown)

    print(f"serving {config.domain} on {config.bind}:{config.port}", flush=True)
    try:
        server.serve_forever()
    finally:
        stop.set()
        pump_thread.join(timeout=5)
        server.server_close()
        node.close()
    return 0


# --- user create / keygen -----------------------------------------------------


def cmd_user_create(config: Config, name: str) -> int:
    node = InstanceNode(config)
    try:
        account, token = node.create_user(name)
    finally:
        node.close()
    print(f"created {account.acct} (id {account.id})")
    print(f"actor:  {account.actor_uri}")
    print(f"token:  {token}")
    return 0


def cmd_keygen(config: Config, name: str) -> int:
    node = InstanceNode(config)
    try:
        account = node.store.get_local_account(name)
        if account is None:
            raise MothError(f"no local account {name}")
        private_pem, public_pem = generate_rsa_keypair(config.key_bits)
        # One commit: the published public key always matches the signing key.
        with node.store.transaction():
            node.store.save_keypair(account.username, private_pem, public_pem)
            refreshed = node.store.upsert_account(replace(account, public_key_pem=public_pem))
    finally:
        node.close()
    print(f"rotated keypair for {refreshed.acct}")
    return 0


# --- probe -----------------------------------------------------------------------


# What run_probe checks, in order; each step needs the one before it.
PROBE_STEPS = (
    "parse handle",
    "WebFinger request",
    "WebFinger parse",
    "actor fetch",
    "actor validation",
    "public key parse",
)


@dataclass(frozen=True)
class ProbeStep:
    name: str
    ok: bool
    detail: str


def run_probe(
    handle_text: str,
    local_domain: str,
    transport: Transport,
    test_mode: bool = False,
) -> list[ProbeStep]:
    """Run the server's own discovery steps in order, reporting each until one fails."""
    steps: list[ProbeStep] = []

    def passed(detail: str) -> None:
        steps.append(ProbeStep(PROBE_STEPS[len(steps)], True, detail))

    try:
        handle = parse_acct(handle_text, local_domain)
        passed(str(handle))
        jrd = fetch_jrd(transport, handle, test_mode)
        passed(f"{webfinger_url(handle, test_mode)} -> 200")
        actor_uri = actor_uri_from_jrd(jrd, handle, test_mode)
        passed(f"self link {actor_uri}")
        document = fetch_actor_document(transport, actor_uri)
        passed(f"{actor_uri} -> 200")
        actor = actor_from_document(document, actor_uri)
        passed(
            f"type={actor.kind.value} preferredUsername={actor.preferred_username} "
            f"inbox={actor.inbox}"
        )
        load_public_key(actor)
        passed(actor.public_key.key_id)
    except MothError as exc:
        steps.append(ProbeStep(PROBE_STEPS[len(steps)], False, f"{exc.reason}: {exc}"))
    return steps


def cmd_probe(config: Config, handle_text: str, transport: Transport | None = None) -> int:
    steps = run_probe(
        handle_text,
        config.domain,
        transport if transport is not None else UrllibTransport(),
        test_mode=config.test_mode,
    )
    failed = False
    for step in steps:
        marker = "ok " if step.ok else "FAIL"
        print(f"[{marker}] {step.name}: {step.detail}")
        failed = failed or not step.ok
    return 1 if failed else 0


# --- entry ---------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load(args)
        if args.command == "serve":
            return cmd_serve(config)
        if args.command == "user":
            return cmd_user_create(config, args.name)
        if args.command == "probe":
            return cmd_probe(config, args.handle)
        if args.command == "keygen":
            return cmd_keygen(config, args.name)
    except MothError as exc:
        print(f"error: {exc.reason}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
