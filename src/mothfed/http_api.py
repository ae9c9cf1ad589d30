"""HTTP surface: WebFinger, ActivityPub S2S endpoints, Mastodon client API.

Every handler is stateless and funnels through HttpApi.handle, which never
lets an exception escape: a handler turns a request down by raising _Refused,
and unexpected failures become a 500. No route returns 200 with an empty
body, and every error body is the machine-readable {"error": reason} (with a
"detail" when there is one) that handle renders.
"""
from __future__ import annotations

import json
from html import escape as html_escape
from typing import Any

from .activitypub import (
    ACTIVITY_MEDIA_TYPE,
    ACTIVITY_TYPE_NAMES,
    AS_CONTEXT,
    JRD_MEDIA_TYPE,
    Activity,
    ActivityKind,
    Actor,
    format_timestamp,
    load_object,
    parse_activity,
    to_wire_dict,
    type_name,
    uri_host,
)
from .errors import (
    ActorMismatch,
    MalformedDocument,
    MalformedHandle,
    MissingRequiredField,
    MothError,
    ResolutionFailed,
    SignatureError,
    TombstonedActor,
    UnsupportedType,
)
from .httpsig import verify_signature
from .identity import build_jrd, parse_acct
from .mastodon import (
    Account,
    Mention,
    Status,
    Visibility,
    account_to_actor,
    extract_mentions,
    extract_tags,
    sanitize_html,
)
from .transport import HttpRequest, HttpResponse

JSON_MEDIA_TYPE = "application/json"
HTML_MEDIA_TYPE = "text/html; charset=utf-8"
# The answer to a repeated inbox delivery, encoded once.
_REPEAT_BODY = json.dumps({"queued": True, "warnings": []}).encode("utf-8")


def _json_response(status: int, payload: Any, media_type: str = JSON_MEDIA_TYPE) -> HttpResponse:
    body = json.dumps(payload, ensure_ascii=False).encode("utf-8")
    return HttpResponse(status, {"Content-Type": media_type}, body)


def _error(status: int, reason: str, detail: str | None = None) -> HttpResponse:
    payload: dict[str, Any] = {"error": reason}
    if detail:
        payload["detail"] = detail
    return _json_response(status, payload)


class _Refused(Exception):
    """A request turned down with a 4xx; HttpApi.handle answers it with _error."""

    def __init__(self, status: int, reason: str, detail: str | None = None) -> None:
        super().__init__(detail)
        self.status, self.reason, self.detail = status, reason, detail


class HttpApi:
    def __init__(self, node) -> None:
        self.node = node
        self._host = uri_host(node.base_url)  # the host every inbox POST must name

    # --- dispatch ---------------------------------------------------------------

    def handle(self, request: HttpRequest) -> HttpResponse:
        try:
            return self._route(request)
        except _Refused as refusal:
            return _error(refusal.status, refusal.reason, refusal.detail)
        except MothError as exc:
            return _error(500, exc.reason, str(exc))
        except Exception as exc:  # noqa: BLE001 - the surface must never crash
            return _error(500, "InternalError", f"{type(exc).__name__}: {exc}")

    def _route(self, request: HttpRequest) -> HttpResponse:
        parts = tuple(p for p in request.path.split("/") if p)
        match (request.method.upper(), parts):
            case ("GET", (".well-known", "webfinger")):
                return self._webfinger(request)
            case ("GET", ("users", name)):
                return self._actor(request, name)
            case ("POST", ("users", name, "inbox")):
                return self._inbox(request, name)
            case ("GET", ("users", name, "outbox")):
                return self._outbox(name)
            case ("GET", ("users", name, "followers")):
                return self._followers(name)
            case ("GET", ("users", name, "following")):
                return self._following(name)
            case ("GET", ("users", name, "statuses", status_id)):
                return self._status_document(name, status_id)
            case ("POST", ("api", "v1", "statuses")):
                return self._post_status(request)
            case ("GET", ("api", "v1", "timelines", "home")):
                return self._home_timeline(request)
            case ("GET", ("api", "v1", "timelines", "tag", tag)):
                return self._tag_timeline(request, tag)
            case ("POST", ("api", "v1", "accounts", account_id, "follow")):
                return self._follow(request, account_id)
            case ("GET", ("api", "v1", "accounts", "lookup")):
                return self._lookup(request)
            case _:
                raise _Refused(404, "NotFound", f"no route for {request.method} {request.path}")

    # --- helpers ----------------------------------------------------------------

    def _local_account(self, name: str) -> Account:
        account = self.node.store.get_local_account(name)
        if account is not None:
            return account
        if self.node.store.is_tombstoned(self.node.actor_uri_for(name)):
            raise _Refused(410, "Gone", f"account {name} was deleted")
        raise _Refused(404, "UnknownUser", f"no local account {name}")

    def _bearer_account(self, request: HttpRequest) -> Account:
        header = request.header("Authorization") or ""
        store, account = self.node.store, None
        if header.startswith("Bearer "):
            account_id = store.account_id_for_token(header[len("Bearer "):].strip())
            account = store.get_account(account_id) if account_id is not None else None
        if account is None:
            raise _Refused(401, "Unauthorized", "missing or invalid bearer token")
        return account

    def _page_params(self, request: HttpRequest) -> tuple[int, int | None]:
        try:
            limit = int(request.query.get("limit", "20"))
            raw_max = request.query.get("max_id")
            return limit, int(raw_max) if raw_max is not None else None
        except ValueError:
            raise _Refused(400, "BadParameter", "limit and max_id must be integers") from None

    def _collection(self, collection_uri: str, items: list[Any]) -> HttpResponse:
        payload = {
            "@context": AS_CONTEXT,
            "id": collection_uri,
            "type": "OrderedCollection",
            "totalItems": len(items),
            "orderedItems": items,
        }
        return _json_response(200, payload, ACTIVITY_MEDIA_TYPE)

    def _render_account(self, account: Account) -> dict[str, Any]:
        return {
            "id": str(account.id),
            "username": account.username,
            "acct": account.acct,
            "display_name": account.display_name,
            "url": account.actor_uri,
            "created_at": format_timestamp(account.created_at),
        }

    def _render_status(self, status: Status) -> dict[str, Any]:
        author = self.node.store.get_account(status.account_id)
        data: dict[str, Any] = {
            "id": str(status.id),
            "uri": status.uri,
            "content": status.content,
            "visibility": status.visibility.value,
            "account": self._render_account(author) if author is not None else None,
            "mentions": [{"acct": m.acct, "url": m.actor_uri} for m in status.mentions],
            "tags": [{"name": t} for t in status.tags],
            "created_at": format_timestamp(status.created_at),
        }
        if status.in_reply_to_id is not None:
            data["in_reply_to_id"] = str(status.in_reply_to_id)
        return data

    # --- discovery ----------------------------------------------------------------

    def _webfinger(self, request: HttpRequest) -> HttpResponse:
        resource = request.query.get("resource")
        if not resource:
            raise _Refused(400, "MissingResource", "resource query parameter required")
        if not resource.lower().startswith("acct:"):
            raise _Refused(400, "BadResource", "resource must use the acct: scheme")
        try:
            handle = parse_acct(resource, self.node.domain)
        except MalformedHandle as exc:
            raise _Refused(400, "MalformedHandle", str(exc)) from exc
        if handle.domain != self.node.domain.lower():
            raise _Refused(404, "WrongDomain", f"{handle.domain} is not served here")
        # No tombstone check: here a deleted account reads as one never created.
        account = self.node.store.get_local_account(handle.username)
        if account is None:
            raise _Refused(404, "UnknownUser", f"no local account {handle.username}")
        body = build_jrd(handle, account.actor_uri)
        return HttpResponse(200, {"Content-Type": JRD_MEDIA_TYPE}, body)

    def _actor(self, request: HttpRequest, name: str) -> HttpResponse:
        found = self._local_account(name)
        accept = (request.header("Accept") or "").lower()
        wants_activity = "activity+json" in accept or "ld+json" in accept
        wants_html = "text/html" in accept
        if wants_html and not wants_activity:
            handle = f"@{found.username}@{self.node.domain}"
            body = (
                "<!DOCTYPE html><html><head><title>"
                f"{html_escape(handle)}</title></head><body>"
                f"<h1>{html_escape(handle)}</h1>"
                f'<p>ActivityPub actor: <a href="{html_escape(found.actor_uri)}">'
                f"{html_escape(found.actor_uri)}</a></p></body></html>"
            )
            return HttpResponse(200, {"Content-Type": HTML_MEDIA_TYPE}, body.encode("utf-8"))
        actor = account_to_actor(found, self.node.base_url)
        return _json_response(200, to_wire_dict(actor), ACTIVITY_MEDIA_TYPE)

    # --- federation ----------------------------------------------------------------

    def _inbox(self, request: HttpRequest, name: str) -> HttpResponse:
        self._local_account(name)
        # Checked before the signature, so a delivery meant for another
        # server costs no actor fetch.
        if request.host != self._host:
            raise _Refused(401, "BadSignature", f"signed for {request.host}, not {self._host}")
        try:
            verified = self._verify(request)
        except SignatureError as exc:
            raise _Refused(401, exc.reason, str(exc)) from exc

        try:
            data = load_object(request.body)
            activity_id = data.get("id")
            if (
                isinstance(activity_id, str)
                and data.get("actor") == verified.id
                and type_name(data) in ACTIVITY_TYPE_NAMES
                and self.node.store.has_seen(activity_id)
            ):
                # A repeat: handle_inbox would parse it only for record_seen to drop it.
                return HttpResponse(202, {"Content-Type": JSON_MEDIA_TYPE}, _REPEAT_BODY)
            activity = parse_activity(data)
        except MissingRequiredField as exc:
            raise _Refused(400, exc.reason, f"missing required field: {exc}") from exc
        except MalformedDocument as exc:
            raise _Refused(400, exc.reason, str(exc)) from exc
        except UnsupportedType as exc:
            return _json_response(
                202, {"queued": False, "reason": exc.reason, "detail": str(exc)}
            )

        try:
            warnings = self.node.engine.handle_inbox(activity, verified)
        except ActorMismatch as exc:
            raise _Refused(401, exc.reason, str(exc)) from exc
        except TombstonedActor as exc:
            raise _Refused(403, exc.reason, str(exc)) from exc
        # A signer tombstoned before this request was refused above, so one
        # tombstoned now has just deleted itself: drop its cached document.
        if activity.kind is ActivityKind.DELETE and self.node.store.is_tombstoned(verified.id):
            self.node.forget_actor(verified.id)
        return _json_response(202, {"queued": True, "warnings": warnings})

    def _verify(self, request: HttpRequest) -> Actor:
        """verify_signature; a key that fails against a cached actor document
        is checked once more against a fresh fetch, as the peer may have
        rotated it since the document was cached."""
        node = self.node
        cached: set[str] = set()

        def fetch(uri: str) -> Actor:
            if node.cached_actor(uri) is not None:
                cached.add(uri)
            return node.fetch_actor(uri)

        def refetch(uri: str) -> Actor | None:
            return node.fetch_actor(uri, refresh=True) if uri in cached else None

        return verify_signature(
            request.method, request.target, request.headers, request.body, fetch, node.now_dt(),
            refetch,
        )

    def _outbox(self, name: str) -> HttpResponse:
        found = self._local_account(name)
        items = []
        for status in self.node.store.statuses_by_account(found.id):
            if status.visibility is not Visibility.PUBLIC:
                continue
            activity = self.node.engine.create_activity(status, found)
            items.append(to_wire_dict(activity, with_context=False))
        return self._collection(f"{found.actor_uri}/outbox", items)

    def _followers(self, name: str) -> HttpResponse:
        found = self._local_account(name)
        uris = [
            r.follower_actor_uri
            for r in self.node.store.followers_of(found.id, state="accepted")
        ]
        return self._collection(f"{found.actor_uri}/followers", uris)

    def _following(self, name: str) -> HttpResponse:
        found = self._local_account(name)
        uris = []
        for relation in self.node.store.follows_by_follower(found.actor_uri):
            if relation.state != "accepted":
                continue
            followee = self.node.store.get_account(relation.followee_account_id)
            if followee is not None:
                uris.append(followee.actor_uri)
        return self._collection(f"{found.actor_uri}/following", uris)

    def _status_document(self, name: str, status_id_text: str) -> HttpResponse:
        found = self._local_account(name)
        try:
            status_id = int(status_id_text)
        except ValueError:
            raise _Refused(404, "NotFound", "status ids are numeric") from None
        status = self.node.store.get_status(status_id)
        if (
            status is None
            or status.account_id != found.id
            or status.visibility is not Visibility.PUBLIC
        ):
            raise _Refused(404, "NotFound", "no such public status")
        note = self.node.engine.create_activity(status, found).object
        return _json_response(200, to_wire_dict(note), ACTIVITY_MEDIA_TYPE)

    # --- client API -----------------------------------------------------------------

    def _post_status(self, request: HttpRequest) -> HttpResponse:
        author = self._bearer_account(request)
        try:
            payload = json.loads(request.body or b"{}")
        except ValueError:
            raise _Refused(400, "MalformedDocument", "request body is not JSON") from None
        if not isinstance(payload, dict):
            raise _Refused(400, "MalformedDocument", "request body must be a JSON object")

        text = payload.get("status")
        if not isinstance(text, str) or not text.strip():
            raise _Refused(422, "EmptyContent", "status text is required")
        visibility_name = payload.get("visibility", "public")
        try:
            visibility = Visibility(visibility_name)
        except ValueError:
            raise _Refused(
                422, "InvalidVisibility", f"unknown visibility {visibility_name!r}"
            ) from None

        in_reply_to_id = None
        raw_reply = payload.get("in_reply_to_id")
        if raw_reply is not None:
            try:
                in_reply_to_id = int(raw_reply)
            except (TypeError, ValueError):
                raise _Refused(
                    422, "UnknownInReplyTo", f"bad in_reply_to_id {raw_reply!r}"
                ) from None
            if self.node.store.get_status(in_reply_to_id) is None:
                raise _Refused(422, "UnknownInReplyTo", f"no status {in_reply_to_id}")

        mentions, warnings = self._resolve_mentions(text)
        if visibility is Visibility.DIRECT and not mentions:
            raise _Refused(
                422, "NoResolvableMentions", "direct statuses need at least one mention"
            )

        content, tags = sanitize_html(text), tuple(extract_tags(text))
        # The status, its timeline rows and its delivery tasks commit together:
        # a crash cannot keep a post that never federates.
        with self.node.store.transaction():
            status_id = self.node.store.next_status_id(self.node.clock())
            stored = self.node.store.store_status(
                Status(
                    id=status_id,
                    uri=self.node.status_uri_for(author.username, status_id),
                    content=content,
                    account_id=author.id,
                    visibility=visibility,
                    mentions=tuple(mentions),
                    tags=tags,
                    created_at=self.node.now_dt(),
                    in_reply_to_id=in_reply_to_id,
                )
            )
            self.node.engine.fan_out(stored, author)

        rendered = self._render_status(stored)
        if warnings:
            rendered["warnings"] = warnings
        return _json_response(200, rendered)

    def _resolve_mentions(self, text: str) -> tuple[list[Mention], list[str]]:
        mentions: list[Mention] = []
        warnings: list[str] = []
        for handle_text in extract_mentions(text, self.node.domain):
            try:
                handle = parse_acct(handle_text, self.node.domain)
            except MalformedHandle as exc:
                warnings.append(str(exc))
                continue
            if handle.domain == self.node.domain.lower():
                local = self.node.store.get_local_account(handle.username)
                if local is None:
                    warnings.append(f"no local account {handle.username}")
                    continue
                mentions.append(Mention(acct=local.acct, actor_uri=local.actor_uri))
            else:
                try:
                    remote = self.node.resolve_account(handle)
                except ResolutionFailed as exc:
                    warnings.append(f"{handle}: {exc}")
                    continue
                mentions.append(Mention(acct=remote.acct, actor_uri=remote.actor_uri))
        return mentions, warnings

    def _home_timeline(self, request: HttpRequest) -> HttpResponse:
        account = self._bearer_account(request)
        limit, max_id = self._page_params(request)
        statuses = self.node.store.query_home_timeline(account.id, limit, max_id)
        return _json_response(200, [self._render_status(s) for s in statuses])

    def _tag_timeline(self, request: HttpRequest, tag: str) -> HttpResponse:
        limit, max_id = self._page_params(request)
        statuses = self.node.store.query_tag_timeline(tag.lstrip("#").lower(), limit, max_id)
        return _json_response(200, [self._render_status(s) for s in statuses])

    def _relationship(self, me: Account, target: Account) -> dict[str, Any]:
        relation = self.node.store.get_follow(me.actor_uri, target.id)
        return {
            "id": str(target.id),
            "following": relation is not None and relation.state == "accepted",
            "requested": relation is not None and relation.state == "pending",
        }

    def _follow(self, request: HttpRequest, account_id_text: str) -> HttpResponse:
        me = self._bearer_account(request)
        try:
            target_id = int(account_id_text)
        except ValueError:
            raise _Refused(404, "UnknownAccount", "account ids are numeric") from None
        store = self.node.store
        target = store.get_account(target_id)
        if target is None:
            raise _Refused(404, "UnknownAccount", f"no account {target_id}")
        if target.id == me.id:
            raise _Refused(422, "CannotFollowSelf", "an account cannot follow itself")

        follow_activity_id = f"{me.actor_uri}#follows/{target.id}"
        # Checked under the store's lock: a repeat request, even a concurrent
        # one, writes and sends nothing and reports the current state.
        with store.transaction():
            if store.get_follow(me.actor_uri, target.id) is None:
                store.upsert_follow(
                    follower_actor_uri=me.actor_uri,
                    followee_account_id=target.id,
                    state="pending" if target.is_remote else "accepted",
                    follow_activity_id=follow_activity_id,
                    created_at=self.node.clock(),
                )
                if target.is_remote:
                    follow = Activity(
                        id=follow_activity_id,
                        kind=ActivityKind.FOLLOW,
                        actor=me.actor_uri,
                        object=target.actor_uri,
                        to=(target.actor_uri,),
                    )
                    self.node.engine.enqueue(follow, signer=me, inboxes=[target.inbox_uri])
        return _json_response(200, self._relationship(me, target))

    def _lookup(self, request: HttpRequest) -> HttpResponse:
        acct = request.query.get("acct")
        if not acct:
            raise _Refused(400, "MissingAcct", "acct query parameter required")
        try:
            handle = parse_acct(acct, self.node.domain)
        except MalformedHandle as exc:
            # 404, where WebFinger answers 400 for the same handle.
            raise _Refused(404, "MalformedHandle", str(exc)) from exc
        if handle.domain == self.node.domain.lower():
            account = self._local_account(handle.username)
        else:
            try:
                account = self.node.resolve_account(handle)
            except ResolutionFailed as exc:
                raise _Refused(404, exc.reason, str(exc)) from exc
        return _json_response(200, self._render_account(account))
