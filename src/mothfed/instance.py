"""One server instance: config + storage + federation engine + resolver.

InstanceNode is transport-agnostic; handle_http serves any HttpRequest, so
the same node runs behind a real socket server or the in-process virtual
network. All time flows through the injected clock.
"""
from __future__ import annotations

import os
import time
from datetime import datetime, timezone
from typing import Callable

from .activitypub import Actor, uri_host
from .config import Config
from .errors import ActorFetchFailed, InvalidName, NameTaken, ResolutionFailed, UnknownUser
from .federation import FederationEngine, QueueReport
from .http_api import HttpApi
from .httpsig import generate_rsa_keypair
from .identity import (
    AcctHandle,
    Resolver,
    TtlCache,
    actor_from_document,
    fetch_actor_document,
    valid_username,
)
from .mastodon import Account, actor_to_account
from .storage import MemoryStore, open_store
from .transport import HttpRequest, HttpResponse, Transport, UrllibTransport


class InstanceNode:
    def __init__(
        self,
        config: Config,
        store: MemoryStore | None = None,
        transport: Transport | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self.config = config.validate()
        self.store = store if store is not None else open_store(
            config.storage_backend, config.storage_path
        )
        self.transport = transport if transport is not None else UrllibTransport()
        self.clock = clock if clock is not None else time.time
        self.resolver = Resolver(
            local_domain=config.domain,
            transport=self.transport,
            clock=self.clock,
            test_mode=config.test_mode,
        )
        self.engine = FederationEngine(config, self.store, self.clock)
        self._actor_cache: TtlCache[str, Actor] = TtlCache(self.clock)
        self.api = HttpApi(self)

    # --- conveniences ---------------------------------------------------------

    @property
    def domain(self) -> str:
        return self.config.domain

    def now_dt(self) -> datetime:
        return datetime.fromtimestamp(self.clock(), tz=timezone.utc)

    def actor_uri_for(self, username: str) -> str:
        """The URI create_user mints for a new name; afterwards it is read from the row."""
        return f"{self.config.base_url}/users/{username}"

    def handle_http(self, request: HttpRequest) -> HttpResponse:
        return self.api.handle(request)

    # --- users ----------------------------------------------------------------

    def create_user(self, username: str, token: str | None = None) -> tuple[Account, str]:
        if not valid_username(username):
            raise InvalidName(username)
        store, actor_uri = self.store, self.actor_uri_for(username)
        # A deleted account's URI stays tombstoned, so its name is not issued again.
        if store.get_local_account(username) is not None or store.is_tombstoned(actor_uri):
            raise NameTaken(username)
        private_pem, public_pem = generate_rsa_keypair(self.config.key_bits)
        # secrets.token_hex, without its import of hmac and so of hashlib's OpenSSL.
        issued = token if token is not None else os.urandom(16).hex()
        with store.transaction():
            account = store.upsert_account(
                Account(
                    id=None,
                    username=username,
                    acct=username,
                    display_name="",
                    actor_uri=actor_uri,
                    inbox_uri=f"{actor_uri}/inbox",
                    public_key_pem=public_pem,
                    created_at=self.now_dt(),
                )
            )
            assert account.id is not None
            store.save_keypair(username, private_pem, public_pem)
            store.save_token(account.id, issued)
        return account, issued

    def delete_local_account(self, username: str) -> dict[str, int]:
        with self.store.transaction():
            account = self.store.get_local_account(username)
            if account is None:
                raise UnknownUser(username)
            # Announce first: fan-out needs the peers table and the account row,
            # and the retained keypair signs the queued tasks later.
            tasks = self.engine.propagate_delete(account)
            report = self.store.delete_account_data(account.actor_uri)
        report["deliveries"] = len(tasks)
        return report

    # --- remote actors ----------------------------------------------------------

    def fetch_actor(self, actor_uri: str, refresh: bool = False) -> tuple[Actor, bool]:
        """A remote actor's document, and whether it came from the cache (never
        with refresh) rather than the network; a URI on this server's own host
        raises ActorFetchFailed: no local actor is fetched."""
        uri = actor_uri.split("#", 1)[0]
        cached = None if refresh else self._actor_cache.get(uri)
        if cached is not None:
            return cached, True
        if uri_host(uri).lower() == self.domain.lower():
            raise ActorFetchFailed(f"{uri} is a local actor, not fetched")
        actor = actor_from_document(fetch_actor_document(self.transport, uri), uri)
        self._actor_cache.put(uri, actor)
        return actor, False

    def forget_actor(self, actor_uri: str) -> None:
        self._actor_cache.pop(actor_uri.split("#", 1)[0])

    def resolve_account(self, handle: AcctHandle) -> Account:
        """Remote handle -> fetched actor -> stored account row."""
        actor_uri = self.resolver.resolve(handle)
        if self.store.is_tombstoned(actor_uri):
            raise ResolutionFailed(f"{handle}: actor was deleted")
        try:
            actor, _ = self.fetch_actor(actor_uri)
        except ActorFetchFailed as exc:
            raise ResolutionFailed(str(exc)) from exc
        with self.store.transaction():
            account = self.store.upsert_account(
                actor_to_account(actor, self.domain, self.now_dt())
            )
            self.engine.note_peer(actor.inbox)
        return account

    # --- delivery --------------------------------------------------------------

    def process_deliveries(self) -> QueueReport:
        return self.engine.process_queue(self.clock(), self.transport)

    def close(self) -> None:
        self.store.close()
