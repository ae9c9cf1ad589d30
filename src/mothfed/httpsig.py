"""Draft-cavage HTTP signatures with RSA-SHA256.

Outbound requests are signed over (request-target), host, date, and digest;
inbound verification recomputes the digest, checks the date against a skew
window, fetches the actor owning the named key, and verifies the RSA
signature. Every failure mode has its own exception so the HTTP layer can
return a distinct 401 reason.
"""
from __future__ import annotations

import base64
import functools
import re
from dataclasses import dataclass
from datetime import datetime, timezone
from email.utils import format_datetime, parsedate_to_datetime
from typing import TYPE_CHECKING, Callable

from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import padding, rsa
from cryptography.exceptions import InvalidSignature

from .activitypub import Actor
from .errors import (
    BadSignature,
    DigestMismatch,
    NoSignature,
    StaleDate,
)
from .transport import HttpRequest

if TYPE_CHECKING:  # importing it loads every key type's native module
    from cryptography.hazmat.primitives.asymmetric.types import PrivateKeyTypes, PublicKeyTypes

ALGORITHM = "rsa-sha256"
# The algorithm names Mastodon accepts, each verified as RSA-SHA256; none named reads as ALGORITHM.
ACCEPTED_ALGORITHMS = (ALGORITHM, "hs2019")
SIGNED_HEADERS = ("(request-target)", "host", "date", "digest")
# Largest accepted distance, in seconds, between a request's Date and now.
SKEW_SECONDS = 300.0
_MONTHS = dict(zip("Jan Feb Mar Apr May Jun Jul Aug Sep Oct Nov Dec".split(), range(1, 13)))
_IMF_FIXDATE = re.compile(
    r"[A-Z][a-z]{2}, ([0-9]{2}) ([A-Z][a-z]{2}) ([0-9]{4}) ([0-9]{2}):([0-9]{2}):([0-9]{2}) GMT"
)


@dataclass(frozen=True)
class SignatureParams:
    key_id: str
    algorithm: str
    headers: tuple[str, ...]
    signature: str  # base64


def generate_rsa_keypair(bits: int = 2048) -> tuple[str, str]:
    """Fresh RSA keypair as (private PEM, public PEM) strings."""
    key = rsa.generate_private_key(public_exponent=65537, key_size=bits)
    private_pem = key.private_bytes(
        serialization.Encoding.PEM,
        serialization.PrivateFormat.PKCS8,
        serialization.NoEncryption(),
    ).decode("ascii")
    public_pem = key.public_key().public_bytes(
        serialization.Encoding.PEM,
        serialization.PublicFormat.SubjectPublicKeyInfo,
    ).decode("ascii")
    return private_pem, public_pem


def sha256(data: bytes) -> bytes:
    """SHA-256 through cryptography's OpenSSL; hashlib would load a second OpenSSL."""
    digest = hashes.Hash(hashes.SHA256())
    digest.update(data)
    return digest.finalize()


def body_digest(body: bytes) -> str:
    return "SHA-256=" + base64.b64encode(sha256(body)).decode("ascii")


def signing_string(
    method: str,
    target: str,
    header_values: dict[str, str],
    header_names: tuple[str, ...],
) -> str:
    lines = []
    for name in header_names:
        if name == "(request-target)":
            lines.append(f"(request-target): {method.lower()} {target}")
        else:
            lines.append(f"{name}: {header_values[name]}")
    return "\n".join(lines)


def load_private_key(pem: str) -> PrivateKeyTypes:
    """Parse and fully validate a private PEM; load once, then sign many requests."""
    return serialization.load_pem_private_key(pem.encode("ascii"), password=None)


def sign_request(
    method: str,
    url: str,
    body: bytes,
    key_id: str,
    private_key: PrivateKeyTypes,
    date: datetime,
) -> dict[str, str]:
    """The headers that sign this request; private_key is from load_private_key."""
    parts = HttpRequest(method, url)  # the split the receiver's server makes
    date_text = format_datetime(date.astimezone(timezone.utc), usegmt=True)
    digest = body_digest(body)
    values = {"host": parts.authority, "date": date_text, "digest": digest}
    message = signing_string(method, parts.target, values, SIGNED_HEADERS)
    raw = private_key.sign(message.encode("utf-8"), padding.PKCS1v15(), hashes.SHA256())
    signature = base64.b64encode(raw).decode("ascii")
    header = (
        f'keyId="{key_id}",algorithm="{ALGORITHM}",'
        f'headers="{" ".join(SIGNED_HEADERS)}",signature="{signature}"'
    )
    return {"Host": parts.authority, "Date": date_text, "Digest": digest, "Signature": header}


_PARAM_RE = re.compile(r'([A-Za-z]+)="([^"]*)"')


def parse_signature_header(value: str) -> SignatureParams:
    fields = {name.lower(): text for name, text in _PARAM_RE.findall(value)}
    key_id = fields.get("keyid")
    signature = fields.get("signature")
    if not key_id or not signature:
        raise BadSignature("signature header lacks keyId or signature")
    headers = tuple(fields.get("headers", "date").lower().split())
    return SignatureParams(
        key_id=key_id,
        algorithm=fields.get("algorithm", ALGORITHM),
        headers=headers,
        signature=signature,
    )


def load_public_key(actor: Actor) -> PublicKeyTypes:
    """The actor document's parsed public key; BadSignature if it is unusable."""
    try:
        return _parse_public_pem(actor.public_key.pem)
    except (ValueError, UnicodeEncodeError) as exc:
        raise BadSignature(f"actor's public key is unusable: {exc}") from exc


@functools.lru_cache(maxsize=4096)
def _parse_public_pem(pem: str) -> PublicKeyTypes:
    """Parsed once per distinct PEM: a rotated key is a new PEM, and a raise is not kept."""
    return serialization.load_pem_public_key(pem.encode("ascii"))


def verify_signature(
    method: str,
    target: str,
    headers: dict[str, str],
    body: bytes,
    actor_fetch: Callable[[str], Actor],
    now: datetime,
    actor_refetch: Callable[[str], Actor | None] | None = None,
) -> Actor:
    """Verify a signed request and return the actor owning the signing key.

    actor_fetch maps an actor URI to its Actor document and may raise
    ActorFetchFailed. When the signature does not verify against that
    document's key, actor_refetch (if given) is asked once for a fresher
    document, or None when there is none: the key may have been rotated.
    Raises NoSignature, StaleDate, DigestMismatch, BadSignature, or
    ActorFetchFailed; each carries its own reason string.
    """
    lowered = {k.lower(): v for k, v in headers.items()}

    raw_signature = lowered.get("signature")
    if not raw_signature:
        raise NoSignature("request has no Signature header")
    params = parse_signature_header(raw_signature)
    if params.algorithm not in ACCEPTED_ALGORITHMS:
        raise BadSignature(f"unsupported signature algorithm {params.algorithm!r}")

    date_text = lowered.get("date")
    if not date_text:
        raise StaleDate("request has no Date header")
    try:
        request_time = _parse_http_date(date_text)
    except (TypeError, ValueError) as exc:
        raise StaleDate(f"unparseable Date header: {date_text!r}") from exc
    offset = abs((now.astimezone(timezone.utc) - request_time).total_seconds())
    if offset > SKEW_SECONDS:
        raise StaleDate(f"Date is {offset:.0f}s from now (window {SKEW_SECONDS:.0f}s)")

    claimed_digest = lowered.get("digest")
    if not claimed_digest:
        raise DigestMismatch("request has no Digest header")
    if claimed_digest.strip() != body_digest(body):
        raise DigestMismatch("body does not match the Digest header")

    missing = ", ".join([name for name in sorted(SIGNED_HEADERS) if name not in params.headers])
    if missing:
        raise BadSignature(f"signature does not cover required headers: {missing}")

    try:
        values = {
            name: lowered[name] for name in params.headers if name != "(request-target)"
        }
    except KeyError as exc:
        raise BadSignature(f"signed header {exc.args[0]!r} absent from request") from exc
    message = signing_string(method, target, values, params.headers).encode("utf-8")

    actor_uri = params.key_id.split("#", 1)[0]
    actor = actor_fetch(actor_uri)
    if _key_verifies(actor, params.signature, message):
        return actor
    fresher = actor_refetch(actor_uri) if actor_refetch is not None else None
    if fresher is not None and _key_verifies(fresher, params.signature, message):
        return fresher
    raise BadSignature("signature does not verify against the actor's key")


def _parse_http_date(text: str) -> datetime:
    """A Date header in UTC: the IMF-fixdate signers send (RFC 9110 section
    5.6.7) is read here, and any other form by email.utils."""
    fixed = _IMF_FIXDATE.fullmatch(text)
    if fixed is not None and fixed[2] in _MONTHS:
        day, year, hour, minute, second = map(int, fixed.group(1, 3, 4, 5, 6))
        # Out of range (31 Feb, say) raises ValueError, as email.utils does.
        return datetime(year, _MONTHS[fixed[2]], day, hour, minute, second, tzinfo=timezone.utc)
    parsed = parsedate_to_datetime(text)
    return parsed if parsed.tzinfo is not None else parsed.replace(tzinfo=timezone.utc)


def _key_verifies(actor: Actor, signature: str, message: bytes) -> bool:
    """Whether the actor's key verifies the signature; BadSignature if it cannot tell."""
    key_owner = actor.public_key.owner or actor.id
    if key_owner != actor.id:
        raise BadSignature("key owner does not match the actor document")
    public_key = load_public_key(actor)
    try:
        raw = base64.b64decode(signature, validate=True)
    except ValueError as exc:
        raise BadSignature("signature is not valid base64") from exc
    try:
        public_key.verify(raw, message, padding.PKCS1v15(), hashes.SHA256())
    except InvalidSignature:
        return False
    except (ValueError, TypeError) as exc:
        raise BadSignature(f"signature verification failed: {exc}") from exc
    return True
