"""CLI commands: config loading, probe walk, account management, serving."""
import dataclasses
import json
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from http.server import ThreadingHTTPServer
from urllib.parse import quote

import pytest

from mothfed.cli import _handler_for, cmd_keygen, cmd_probe, cmd_serve, main, run_probe
from mothfed.config import Config, load_config
from mothfed.errors import BindFailed, ConfigError
from mothfed.instance import InstanceNode
from mothfed.simnet import VirtualNet, VirtualTransport
from mothfed.storage import FileStore, open_store
from mothfed.transport import HttpRequest, Transport, TransportError

from .support import child_env


class DictTransport(Transport):
    """Serves canned responses keyed by exact URL."""

    def __init__(self, responses):
        self.responses = responses

    def request(self, request: HttpRequest):
        try:
            return self.responses[request.url]
        except KeyError:
            raise TransportError(f"unscripted URL {request.url}")


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestConfig:
    def test_dict_round_trip(self):
        config = Config(domain="x.test", port=8001, test_mode=True)
        assert Config.from_dict(dataclasses.asdict(config)) == config

    def test_env_beats_file_beats_defaults(self, tmp_path):
        path = tmp_path / "server.json"
        path.write_text(json.dumps({"domain": "file.test", "port": 1111}))
        config = load_config(
            str(path),
            env={"MOTH_DOMAIN": "env.test"},
            defaults={"domain": "default.test", "port": 9999},
        )
        assert config.domain == "env.test"
        assert config.port == 1111

        config = load_config(
            str(path),
            env={
                "MOTH_PORT": "2222",
                "MOTH_STORE": f"file:{tmp_path / 'data'}",
            },
        )
        assert config.domain == "file.test"
        assert config.port == 2222
        assert config.storage_backend == "file"
        assert config.storage_path == str(tmp_path / "data")

    def test_memory_store_env(self):
        config = load_config(env={"MOTH_DOMAIN": "x.test", "MOTH_STORE": "memory"})
        assert config.storage_backend == "memory"
        assert config.storage_path is None

    @pytest.mark.parametrize(
        "store", ["file:", "redis", "file"], ids=["empty-path", "unknown", "no-colon"]
    )
    def test_bad_store_env_rejected(self, store):
        with pytest.raises(ConfigError):
            load_config(env={"MOTH_DOMAIN": "x.test", "MOTH_STORE": store})

    def test_port_env_must_be_integer(self):
        with pytest.raises(ConfigError):
            load_config(env={"MOTH_DOMAIN": "x.test", "MOTH_PORT": "eleven"})

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(str(tmp_path / "absent.json"), env={})

    def test_config_file_must_be_json_object(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            load_config(str(bad), env={})
        bad.write_text("{nope")
        with pytest.raises(ConfigError):
            load_config(str(bad), env={})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="mystery"):
            Config.from_dict({"domain": "x.test", "mystery": 1})

    def test_domain_is_required(self):
        with pytest.raises(ConfigError):
            Config.from_dict({"port": 8420})

    @pytest.mark.parametrize(
        "overrides",
        [
            {"domain": ""},
            {"domain": "spaced out"},
            {"domain": "a/b"},
            # The rule handles follow: parse_acct would refuse the server's own users.
            {"domain": "a.test:8421"},
            {"domain": "under_score.test"},
            {"port": 0},
            {"port": 70000},
            {"storage_backend": "redis"},
            {"storage_backend": "file"},
            # Retired tuning keys: refused as unknown before validation.
            {"skew_seconds": 0.0},
            {"retry_base_seconds": -1.0},
            {"max_attempts": 0},
            {"key_bits": 128},
            {"resolve_ttl_seconds": 1.0},
        ],
    )
    def test_validate_rejects(self, overrides):
        values = {"domain": "ok.test", **overrides}
        with pytest.raises(ConfigError):
            Config.from_dict(values)

    def test_base_url_scheme_follows_test_mode(self):
        assert Config(domain="x.test").base_url == "https://x.test"
        assert Config(domain="x.test", test_mode=True).base_url == "http://x.test"


@pytest.fixture()
def remote_world():
    net = VirtualNet(seed=6)
    net.spawn_instance("remote.test", ["bob"])
    return net, VirtualTransport(net, "prober")


class TestProbe:
    def test_full_walk_reports_every_step(self, remote_world):
        _, transport = remote_world
        steps = run_probe("bob@remote.test", "probe.local", transport, test_mode=True)
        assert [step.name for step in steps] == [
            "parse handle",
            "WebFinger request",
            "WebFinger parse",
            "actor fetch",
            "actor validation",
            "public key parse",
        ]
        assert all(step.ok for step in steps)
        assert steps[-1].detail.endswith("#main-key")

    def test_empty_webfinger_body_is_named_explicitly(self, remote_world):
        net, transport = remote_world
        net.inject_fault(
            behavior="empty_200", host="remote.test", path_contains="webfinger"
        )
        steps = run_probe("bob@remote.test", "probe.local", transport, test_mode=True)
        assert not steps[-1].ok
        assert "WebFinger body empty" in steps[-1].detail

    def test_malformed_handle_stops_at_parse(self, remote_world):
        _, transport = remote_world
        steps = run_probe("not a handle!!", "probe.local", transport, test_mode=True)
        assert len(steps) == 1
        assert steps[0].name == "parse handle"
        assert not steps[0].ok

    def test_unknown_user_reports_status(self, remote_world):
        _, transport = remote_world
        steps = run_probe("ghost@remote.test", "probe.local", transport, test_mode=True)
        assert steps[-1].name == "WebFinger request"
        assert not steps[-1].ok
        assert "404" in steps[-1].detail

    def test_unreachable_host_reports_transport_error(self, remote_world):
        _, transport = remote_world
        steps = run_probe("bob@offline.test", "probe.local", transport, test_mode=True)
        assert steps[-1].name == "WebFinger request"
        assert not steps[-1].ok

    def _harvest_documents(self):
        node = InstanceNode(Config(domain="remote.test", test_mode=True, key_bits=1024))
        node.create_user("bob")
        webfinger_url = (
            "http://remote.test/.well-known/webfinger?resource="
            + quote("acct:bob@remote.test", safe="")
        )
        jrd = node.handle_http(
            HttpRequest("GET", webfinger_url, {"Accept": "application/jrd+json"})
        )
        actor = node.handle_http(
            HttpRequest(
                "GET",
                "http://remote.test/users/bob",
                {"Accept": "application/activity+json"},
            )
        )
        assert jrd.status == 200 and actor.status == 200
        return webfinger_url, jrd, actor

    def test_jrd_without_activity_self_link(self):
        webfinger_url, jrd, _ = self._harvest_documents()
        document = json.loads(jrd.body)
        document["links"] = [
            {"rel": "self", "type": "text/html", "href": "http://remote.test/@bob"}
        ]
        response = type(jrd)(200, dict(jrd.headers), json.dumps(document).encode())
        steps = run_probe(
            "bob@remote.test",
            "probe.local",
            DictTransport({webfinger_url: response}),
            test_mode=True,
        )
        assert steps[-1].name == "WebFinger parse"
        assert not steps[-1].ok
        assert steps[-1].detail.startswith("NoSelfLink: ")
        assert "rel=self" in steps[-1].detail

    def test_invalid_actor_document_names_reason(self):
        webfinger_url, jrd, actor = self._harvest_documents()
        document = json.loads(actor.body)
        del document["inbox"]
        broken = type(actor)(200, dict(actor.headers), json.dumps(document).encode())
        steps = run_probe(
            "bob@remote.test",
            "probe.local",
            DictTransport(
                {webfinger_url: jrd, "http://remote.test/users/bob": broken}
            ),
            test_mode=True,
        )
        assert steps[-1].name == "actor validation"
        assert not steps[-1].ok

    def test_unparseable_public_key_fails_last_step(self):
        webfinger_url, jrd, actor = self._harvest_documents()
        document = json.loads(actor.body)
        document["publicKey"]["publicKeyPem"] = "not a pem"
        broken = type(actor)(200, dict(actor.headers), json.dumps(document).encode())
        steps = run_probe(
            "bob@remote.test",
            "probe.local",
            DictTransport(
                {webfinger_url: jrd, "http://remote.test/users/bob": broken}
            ),
            test_mode=True,
        )
        assert [step.ok for step in steps] == [True, True, True, True, True, False]
        assert steps[-1].name == "public key parse"

    def test_plain_http_self_link_fails_parse_outside_test_mode(self):
        webfinger_url, jrd, actor = self._harvest_documents()
        steps = run_probe(
            "bob@remote.test",
            "probe.local",
            DictTransport(
                {
                    "https://" + webfinger_url[len("http://"):]: jrd,
                    "http://remote.test/users/bob": actor,
                }
            ),
        )
        assert steps[-1].name == "WebFinger parse"
        assert not steps[-1].ok
        assert "not https" in steps[-1].detail

    def test_actor_document_for_another_id_fails_validation(self):
        webfinger_url, jrd, actor = self._harvest_documents()
        document = json.loads(actor.body)
        document["id"] = "http://remote.test/users/mallory"
        other = type(actor)(200, dict(actor.headers), json.dumps(document).encode())
        steps = run_probe(
            "bob@remote.test",
            "probe.local",
            DictTransport({webfinger_url: jrd, "http://remote.test/users/bob": other}),
            test_mode=True,
        )
        assert steps[-1].name == "actor validation"
        assert not steps[-1].ok
        assert "users/mallory" in steps[-1].detail

    def test_cmd_probe_exit_codes(self, remote_world, capsys):
        _, transport = remote_world
        config = Config(domain="probe.local", test_mode=True)
        assert cmd_probe(config, "bob@remote.test", transport=transport) == 0
        assert "[ok ]" in capsys.readouterr().out

        assert cmd_probe(config, "ghost@remote.test", transport=transport) == 1
        assert "[FAIL]" in capsys.readouterr().out


class TestMainCommands:
    def test_user_create_prints_token(self, capsys):
        assert main(["--domain", "cli.test", "user", "create", "alice"]) == 0
        out = capsys.readouterr().out
        assert "created alice" in out
        assert any(line.startswith("token:") for line in out.splitlines())

    def test_duplicate_username_exits_nonzero(self, tmp_path, capsys):
        base = ["--domain", "cli.test", "--store", f"file:{tmp_path / 'store'}"]
        assert main(base + ["user", "create", "alice"]) == 0
        assert main(base + ["user", "create", "alice"]) == 1
        assert "NameTaken" in capsys.readouterr().err

    def test_user_create_refuses_the_name_of_a_deleted_account(self, tmp_path, capsys):
        base = ["--domain", "cli.test", "--store", f"file:{tmp_path / 'store'}"]
        assert main(base + ["user", "create", "alice"]) == 0
        node = InstanceNode(
            Config(domain="cli.test", storage_backend="file", storage_path=str(tmp_path / "store"))
        )
        node.delete_local_account("alice")
        node.close()
        assert main(base + ["user", "create", "alice"]) == 1
        assert "NameTaken" in capsys.readouterr().err

    def test_a_store_is_not_opened_under_another_domain(self, tmp_path, capsys):
        store = ["--store", f"file:{tmp_path / 'store'}"]
        assert main(["--domain", "cli.test", *store, "user", "create", "alice"]) == 0
        assert main(["--domain", "moved.test", *store, "user", "create", "bob"]) == 1
        assert "ConfigError" in capsys.readouterr().err
        reopened = FileStore(tmp_path / "store")
        assert reopened.get_local_account("bob") is None
        reopened.close()

    def test_invalid_username_exits_nonzero(self, capsys):
        assert main(["--domain", "cli.test", "user", "create", "no spaces"]) == 1
        assert "InvalidName" in capsys.readouterr().err

    def test_keygen_rotates_stored_key(self, tmp_path, capsys):
        store_path = str(tmp_path / "store")
        base = ["--domain", "cli.test", "--store", f"file:{store_path}"]
        assert main(base + ["user", "create", "alice"]) == 0
        before = open_store("file", store_path).get_local_account("alice")
        assert main(base + ["keygen", "ALICE"]) == 0
        assert "rotated keypair" in capsys.readouterr().out
        store = open_store("file", store_path)
        after = store.get_local_account("alice")
        assert after.public_key_pem != before.public_key_pem
        # Names match case-insensitively; the pair is kept under the account's own name.
        assert store.keypair("alice")[1] == after.public_key_pem
        store.close()

    def test_a_crash_inside_keygen_keeps_the_old_key_pair(self, tmp_path, monkeypatch):
        root, crashed = tmp_path / "store", tmp_path / "crashed"
        config = Config(
            domain="cli.test", storage_backend="file", storage_path=str(root), key_bits=1024
        )
        node = InstanceNode(config)
        statements = []
        node.store._db.set_trace_callback(statements.append)
        node.create_user("alice")
        assert statements.count("COMMIT") == 1
        old_private, old_public = node.store.keypair("alice")
        node.close()

        statements.clear()
        write = FileStore._write

        def write_then_copy(store, collection, key, value):
            # Copy the files as a crash right after the account row would leave them.
            store._db.set_trace_callback(statements.append)
            write(store, collection, key, value)
            if collection == "accounts" and not crashed.exists():
                shutil.copytree(root, crashed, ignore=shutil.ignore_patterns("*-shm"))

        monkeypatch.setattr(FileStore, "_write", write_then_copy)
        assert cmd_keygen(config, "alice") == 0
        assert statements.count("COMMIT") == 1
        monkeypatch.undo()

        # The crash copy signs and publishes the old pair; it never mixes the two.
        copy = FileStore(crashed)
        assert copy.keypair("alice") == (old_private, old_public)
        assert copy.get_local_account("alice").public_key_pem == old_public
        copy.close()
        live = FileStore(root)
        private_pem, public_pem = live.keypair("alice")
        assert private_pem != old_private
        assert live.get_local_account("alice").public_key_pem == public_pem
        live.close()

    def test_keygen_unknown_user(self, capsys):
        assert main(["--domain", "cli.test", "keygen", "ghost"]) == 1
        assert "no local account" in capsys.readouterr().err

    def test_bad_store_flag_exits_nonzero(self, capsys):
        code = main(["--domain", "x.test", "--store", "redis", "user", "create", "a"])
        assert code == 1
        assert "ConfigError" in capsys.readouterr().err

    def test_missing_command_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--domain", "x.test", "frobnicate"])
        assert excinfo.value.code == 2


def _wait_for(
    url: str, process: subprocess.Popen, deadline_seconds: float = 15.0
) -> None:
    """Poll ``url`` until it answers; fail at once if ``process`` has exited."""
    deadline = time.time() + deadline_seconds
    while True:
        try:
            with urllib.request.urlopen(url, timeout=2) as response:
                response.read()
                return
        except (urllib.error.URLError, OSError):
            if process.poll() is not None:
                _, stderr = process.communicate()
                pytest.fail(
                    f"serve exited with code {process.returncode} before "
                    f"answering {url}; stderr:\n{stderr}"
                )
            if time.time() > deadline:
                raise
            time.sleep(0.1)


def _raw_reply(port: int, request: bytes) -> bytes:
    """Send raw request bytes; the whole reply.

    Reads until the server closes the connection, so a server that keeps it
    open after a refusal fails the test by timing out.
    """
    with socket.create_connection(("127.0.0.1", port), timeout=5) as conn:
        conn.sendall(request)
        reply = b""
        while chunk := conn.recv(4096):
            reply += chunk
    return reply


def _raw_status_line(port: int, content_length: str) -> str:
    """POST with the given Content-Length and no body; the status line of the reply."""
    request = (
        "POST /users/alice/inbox HTTP/1.1\r\nHost: serve.test\r\n"
        f"Content-Length: {content_length}\r\n\r\n"
    ).encode("ascii")
    return _raw_reply(port, request).split(b"\r\n", 1)[0].decode("ascii")


@pytest.fixture()
def served_port():
    """A serve handler over a memory store, in this process, on a free port."""
    node = InstanceNode(Config(domain="serve.test", test_mode=True, key_bits=1024))
    node.create_user("alice")
    server = ThreadingHTTPServer(("127.0.0.1", 0), _handler_for(node))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        node.close()


def _refusal(reply: bytes) -> tuple[str, str, dict]:
    """The status line, Connection header and JSON body of a refusal."""
    head, body = reply.split(b"\r\n\r\n", 1)
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in header_lines)
    assert headers["Content-Type"] == "application/json"
    return status_line, headers.get("Connection", ""), json.loads(body)


class TestFraming:
    """Only bodies framed by one Content-Length are read (RFC 9112 section 6.3)."""

    def test_a_chunked_body_is_refused_with_411(self, served_port):
        chunk = b'{"type": "Like"}'
        request = (
            b"POST /users/alice/inbox HTTP/1.1\r\nHost: serve.test\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            + f"{len(chunk):x}\r\n".encode() + chunk + b"\r\n0\r\n\r\n"
        )
        status, connection, body = _refusal(_raw_reply(served_port, request))
        assert status == "HTTP/1.1 411 Length Required"
        assert connection == "close"
        assert body["error"] == "LengthRequired"

    @pytest.mark.parametrize(
        "lengths", [["3", "4"], ["3, 4"]], ids=["two headers", "one list"]
    )
    def test_content_lengths_that_differ_are_refused_with_400(self, served_port, lengths):
        request = b"POST /users/alice/inbox HTTP/1.1\r\nHost: serve.test\r\n"
        request += b"".join(f"Content-Length: {n}\r\n".encode() for n in lengths)
        status, connection, body = _refusal(_raw_reply(served_port, request + b"\r\nabcd"))
        assert status == "HTTP/1.1 400 Bad Request"
        assert connection == "close"
        assert body["error"] == "BadContentLength"

    def test_repeated_equal_content_lengths_frame_one_body(self, served_port):
        request = (
            b"POST /users/alice/inbox HTTP/1.1\r\nHost: serve.test\r\n"
            b"Content-Length: 2\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}"
        )
        status, _, body = _refusal(_raw_reply(served_port, request))
        # The body was read and reached the inbox, which wants a signature.
        assert status == "HTTP/1.1 401 Unauthorized"
        assert body["error"] == "NoSignature"


class TestHost:
    """Each request names one host (RFC 9112 section 3.2)."""

    def test_an_http11_request_without_host_is_refused_but_http10_is_served(
        self, served_port
    ):
        reply = _raw_reply(served_port, b"GET /users/alice HTTP/1.1\r\n\r\n")
        status, connection, body = _refusal(reply)
        assert status == "HTTP/1.1 400 Bad Request"
        assert connection == "close"
        assert body["error"] == "BadHost"
        reply = _raw_reply(served_port, b"GET /users/alice HTTP/1.0\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 200 ")
        assert b'"id": "http://serve.test/users/alice"' in reply

    @pytest.mark.parametrize(
        "hosts",
        [["serve.test", "other.test"], ["serve.test", "serve.test"], ["serve.test/x"], ["[::1"]],
        ids=["two hosts", "one host twice", "host with a path", "unclosed bracket"],
    )
    def test_a_host_that_is_not_one_authority_is_refused_with_400(self, served_port, hosts):
        request = b"GET /users/alice HTTP/1.1\r\n"
        request += b"".join(f"Host: {host}\r\n".encode() for host in hosts)
        status, connection, body = _refusal(_raw_reply(served_port, request + b"\r\n"))
        assert status == "HTTP/1.1 400 Bad Request"
        assert connection == "close"
        assert body["error"] == "BadHost"

    def test_an_absolute_form_target_is_served_like_the_origin_form(self, served_port):
        replies = [
            _raw_reply(
                served_port,
                f"GET {target} HTTP/1.1\r\nHost: serve.test\r\n"
                "Accept: application/activity+json\r\nConnection: close\r\n\r\n".encode(),
            )
            for target in ("/users/alice", "http://serve.test/users/alice")
        ]
        origin, absolute = (reply.split(b"\r\n\r\n", 1) for reply in replies)
        assert origin[0].startswith(b"HTTP/1.1 200 ")
        assert absolute[0].startswith(b"HTTP/1.1 200 ")
        assert absolute[1] == origin[1]


class TestServerRefusals:
    """http.server's own refusals answer in the API's JSON error shape."""

    @pytest.mark.parametrize(
        "line, detail",
        [(b"GET /a b HTTP/1.1", "Bad request syntax"), (b"GET / FOO/1.1", "Bad request version")],
        ids=["four words", "no version"],
    )
    def test_a_malformed_request_line_is_a_json_400(self, served_port, line, detail):
        reply = _raw_reply(served_port, line + b"\r\nHost: serve.test\r\n\r\n")
        status, connection, body = _refusal(reply)
        assert status == "HTTP/1.1 400 Bad Request"
        assert connection == "close"
        assert body["error"] == "BadRequest"
        assert body["detail"].startswith(detail)

    def test_an_unsupported_method_is_a_json_501(self, served_port):
        request = b"PUT /users/alice HTTP/1.1\r\nHost: serve.test\r\nContent-Length: 0\r\n\r\n"
        status, connection, body = _refusal(_raw_reply(served_port, request))
        assert status == "HTTP/1.1 501 Not Implemented"
        assert connection == "close"
        assert body == {"error": "NotImplemented", "detail": "Unsupported method ('PUT')"}

    def test_a_refused_head_request_gets_no_body(self, served_port):
        request = b"HEAD /users/alice HTTP/1.1\r\nHost: serve.test\r\n\r\n"
        head, body = _raw_reply(served_port, request).split(b"\r\n\r\n", 1)
        assert head.startswith(b"HTTP/1.1 501 ")
        assert b"\r\nContent-Length: " in head
        assert body == b""


class TestServe:
    def test_bind_failure_is_reported(self):
        with socket.socket() as blocker:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            config = Config(domain="busy.test", port=port)
            with pytest.raises(BindFailed):
                cmd_serve(config)

    def test_serve_end_to_end_over_real_sockets(self, tmp_path, capsys):
        port = _free_port()
        config = {
            "domain": "serve.test",
            "port": port,
            "bind": "127.0.0.1",
            "storage_backend": "file",
            "storage_path": str(tmp_path / "store"),
            "test_mode": True,
        }
        config_path = tmp_path / "server.json"
        config_path.write_text(json.dumps(config))

        assert main(["--config", str(config_path), "user", "create", "alice"]) == 0
        out = capsys.readouterr().out
        token = next(
            line for line in out.splitlines() if line.startswith("token:")
        ).split()[-1]

        process = subprocess.Popen(
            [
                sys.executable,
                "-c",
                "import sys; from mothfed.cli import main; sys.exit(main(sys.argv[1:]))",
                "--config",
                str(config_path),
                "serve",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            cwd=str(tmp_path),
            env=child_env(),
        )
        base = f"http://127.0.0.1:{port}"
        try:
            webfinger_url = base + "/.well-known/webfinger?resource=" + quote(
                "acct:alice@serve.test", safe=""
            )
            _wait_for(webfinger_url, process)
            with urllib.request.urlopen(webfinger_url, timeout=5) as response:
                jrd = json.load(response)
            assert jrd["subject"] == "acct:alice@serve.test"

            actor_request = urllib.request.Request(
                f"{base}/users/alice",
                headers={"Accept": "application/activity+json"},
            )
            with urllib.request.urlopen(actor_request, timeout=5) as response:
                actor = json.load(response)
            assert actor["preferredUsername"] == "alice"
            assert actor["publicKey"]["publicKeyPem"].startswith("-----BEGIN")

            post_request = urllib.request.Request(
                f"{base}/api/v1/statuses",
                data=json.dumps(
                    {"status": "hello over a real socket #wire", "visibility": "public"}
                ).encode("utf-8"),
                headers={
                    "Authorization": f"Bearer {token}",
                    "Content-Type": "application/json",
                },
                method="POST",
            )
            with urllib.request.urlopen(post_request, timeout=5) as response:
                rendered = json.load(response)
            assert "hello over a real socket" in rendered["content"]

            with urllib.request.urlopen(
                f"{base}/api/v1/timelines/tag/wire", timeout=5
            ) as response:
                tagged = json.load(response)
            assert len(tagged) == 1

            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{base}/definitely/not/here", timeout=5)
            assert excinfo.value.code == 404
            excinfo.value.close()  # the error holds the response and its socket

            for content_length, status in (("abc", 400), ("-5", 400), ("99999999999", 413)):
                line = _raw_status_line(port, content_length)
                assert line.startswith(f"HTTP/1.1 {status} "), (content_length, line)

            process.send_signal(signal.SIGTERM)
            stdout, stderr = process.communicate(timeout=15)
            assert process.returncode == 0, stderr
            assert "serving serve.test" in stdout, stderr
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
