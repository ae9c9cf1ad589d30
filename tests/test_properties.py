"""Cross-cutting invariants checked over generated input."""
import base64
import hashlib
import re
from datetime import datetime, timedelta, timezone
from html.parser import HTMLParser

from hypothesis import given
from hypothesis import strategies as st

from mothfed.activitypub import format_timestamp, parse_timestamp
from mothfed.httpsig import body_digest
from mothfed.identity import parse_acct
from mothfed.mastodon import _MENTION_RE, _TAG_RE, extract_mentions, extract_tags, sanitize_html

LOCAL = "local.test"

usernames = st.from_regex(r"[A-Za-z0-9_]{1,24}", fullmatch=True)
labels = st.from_regex(r"[A-Za-z0-9]([A-Za-z0-9-]{0,8}[A-Za-z0-9])?", fullmatch=True)
domains = st.lists(labels, min_size=2, max_size=3).map(".".join)
offsets = st.integers(min_value=-14 * 60, max_value=14 * 60).map(
    lambda minutes: timezone(timedelta(minutes=minutes))
)


@given(
    st.datetimes(
        min_value=datetime(1970, 1, 2),
        max_value=datetime(2100, 1, 1),
        timezones=offsets,
    )
)
def test_timestamp_round_trip_preserves_the_instant(dt):
    parsed = parse_timestamp(format_timestamp(dt))
    assert parsed == dt
    assert parsed.utcoffset() == timedelta(0)


@given(usernames, domains)
def test_acct_parse_round_trips_every_spelling(username, domain):
    canonical = parse_acct(f"{username}@{domain}", LOCAL)
    assert canonical.username == username
    assert canonical.domain == domain.lower()
    spellings = (
        f"@{username}@{domain}",
        f"acct:{username}@{domain}",
        str(canonical),
        canonical.acct_uri,
    )
    for spelling in spellings:
        assert parse_acct(spelling, LOCAL) == canonical
    assert parse_acct(f"{username.upper()}@{domain.upper()}", LOCAL) == canonical


class _AttrAudit(HTMLParser):
    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.seen: list[tuple[str, str | None]] = []

    def handle_starttag(self, tag, attrs):
        self.seen.extend(attrs)

    def handle_startendtag(self, tag, attrs):
        self.seen.extend(attrs)


@given(st.text())
def test_sanitizer_is_idempotent_and_strips_active_content(text):
    cleaned = sanitize_html(text)
    assert sanitize_html(cleaned) == cleaned
    assert not re.search(r"<script[\s>/]", cleaned, re.IGNORECASE)
    audit = _AttrAudit()
    audit.feed(cleaned)
    audit.close()
    for name, value in audit.seen:
        assert not name.lower().startswith("on")
        if name.lower() == "href" and value and ":" in value.strip():
            scheme = value.strip().split(":", 1)[0].lower()
            assert scheme not in ("javascript", "data", "vbscript")


@given(st.text())
def test_extracted_entities_are_substrings_of_the_text(text):
    tags = extract_tags(text)
    assert len(tags) == len(set(tags))
    for tag in tags:
        assert tag in text.lower()
    for acct in extract_mentions(text, LOCAL):
        assert acct.split("@")[0] in text


# The patterns as they were with the lookbehind first: the oracle for the
# literal-first ones, which re tries only where an @ or # stands.
_LOOKBEHIND_FIRST = {
    _MENTION_RE: re.compile(
        r"(?<![\w@])@([A-Za-z0-9_]+)(?:@((?:[A-Za-z0-9-]+\.)+[A-Za-z0-9-]+))?"
    ),
    _TAG_RE: re.compile(r"(?<![\w#])#([A-Za-z0-9_]+)"),
}
# Text heavy in the characters either side of a mention or tag.
entity_pieces = st.one_of(
    st.sampled_from("@#_.-aZ9é \n"),
    st.from_regex(
        r"[@#][A-Za-z0-9_]{0,3}(@[a-z0-9-]{0,3}(\.[a-z0-9-]{0,3}){0,2})?", fullmatch=True
    ),
    st.characters(),
)
entity_text = st.lists(entity_pieces, max_size=16).map("".join)


@given(entity_text)
def test_literal_first_patterns_find_what_the_lookbehind_first_ones_did(text):
    for pattern, oracle in _LOOKBEHIND_FIRST.items():
        found = [(m.span(), m.groups()) for m in pattern.finditer(text)]
        assert found == [(m.span(), m.groups()) for m in oracle.finditer(text)]


@given(st.binary(max_size=4096))
def test_body_digest_matches_a_direct_computation(body):
    digest = body_digest(body)
    assert digest.startswith("SHA-256=")
    expected = base64.b64encode(hashlib.sha256(body).digest()).decode("ascii")
    assert digest[len("SHA-256="):] == expected
