"""Exception types shared across the server.

Every error carries a machine-readable ``reason`` (its class name): rejections
are always explained to the caller, never silent.
"""


class MothError(Exception):
    """Base class for all moth-fed errors."""

    @property
    def reason(self) -> str:
        return type(self).__name__


# --- identity / discovery ---------------------------------------------------


class MalformedHandle(MothError):
    """Text does not parse as a user@domain handle."""


class UnknownUser(MothError):
    """No local account with that username."""


class ResolutionFailed(MothError):
    """WebFinger lookup failed (network error, non-2xx, or malformed JRD)."""


class NoSelfLink(ResolutionFailed):
    """JRD lacks a rel="self" link with the ActivityPub media type."""


# --- wire object parsing / validation ---------------------------------------


class MalformedDocument(MothError):
    """Payload is not the JSON shape required for this object."""


class MissingRequiredField(MothError):
    """Activity lacks a field every federating server must send."""


class UnsupportedType(MothError):
    """Activity type outside the supported set."""


class MissingEndpoint(MalformedDocument):
    """Actor document has no inbox; it cannot be delivered to."""


class MissingKey(MalformedDocument):
    """Actor document has no public key; its requests cannot be verified."""


# --- conversion -------------------------------------------------------------


class RemoteAccount(MothError):
    """Operation only valid for local accounts was given a remote one."""


# --- federation -------------------------------------------------------------


class ActorMismatch(MothError):
    """Activity's actor is not the actor that signed the request."""


class TombstonedActor(MothError):
    """Activity from (or status authored by) a deleted actor."""


class SignatureError(MothError):
    """Base for HTTP signature verification failures.

    Subclass names are the distinct reason strings returned with 401s.
    """


class NoSignature(SignatureError):
    pass


class StaleDate(SignatureError):
    pass


class DigestMismatch(SignatureError):
    pass


class BadSignature(SignatureError):
    pass


class ActorFetchFailed(SignatureError):
    pass


# --- storage ----------------------------------------------------------------


class DuplicateUri(MothError):
    """A status with this Note URI is already stored."""


class UnknownAccount(MothError):
    pass


class StorageUnavailable(MothError):
    pass


# --- harness ----------------------------------------------------------------


class DuplicateDomain(MothError):
    pass


class NotQuiescent(MothError):
    """Step budget exhausted with delivery tasks still pending."""


class ExpectationFailed(MothError):
    """A scenario expect step did not hold."""


# --- runtime / CLI ----------------------------------------------------------


class ConfigError(MothError):
    pass


class BindFailed(MothError):
    pass


class NameTaken(MothError):
    pass


class InvalidName(MothError):
    pass


class TransportError(MothError):
    """Request never produced an HTTP response (connection error, drop)."""
