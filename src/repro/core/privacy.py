"""Privacy protection and anonymisation (paper §IV).

"All personal identifiers (such as usernames, specific post identifiers,
and other metadata) were removed. After this anonymization process, there
is no way to re-identify users from the data."

The anonymiser replaces author handles and post ids with salted hashes
(stable within one run so histories stay linkable), scrubs residual PII
patterns from text, and ships an audit that proves no original identifier
survives.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import replace

from repro.core.errors import PrivacyError
from repro.corpus.models import RedditPost

_EMAIL_RE = re.compile(r"\b[\w.+-]+@[\w-]+\.[\w.]+\b")
_PHONE_RE = re.compile(r"\b(?:\+?\d[\s-]?){7,15}\b")
_MENTION_RE = re.compile(r"(?:^|\s)/?u/[\w-]+|@[A-Za-z_]\w+")
_SSN_RE = re.compile(r"\b\d{3}-\d{2}-\d{4}\b")
_DIGIT_RE = re.compile(r"\d")

REDACTION = "[REDACTED]"


def scrub_text(text: str) -> str:
    """Remove e-mails, phone numbers, reddit/user mentions, SSN-shaped ids.

    Each substitution runs only when the text, as the previous one left
    it, holds what its pattern cannot match without: an ``@`` for an
    e-mail, ``@`` or ``u/`` for a mention, a digit for a phone number, a
    digit and a ``-`` for an SSN. Few posts hold any of them, and a
    substring test costs far less than a regex pass. Equal to
    :func:`scrub_text_reference` on every text.
    """
    if "@" in text:
        text = _EMAIL_RE.sub(REDACTION, text)
    if "-" in text and _DIGIT_RE.search(text):
        text = _SSN_RE.sub(REDACTION, text)
    if "@" in text or "u/" in text:
        text = _MENTION_RE.sub(f" {REDACTION}", text)
    if _DIGIT_RE.search(text):
        text = _PHONE_RE.sub(REDACTION, text)
    return text


def scrub_text_reference(text: str) -> str:
    """Reference twin of :func:`scrub_text`: every substitution, always."""
    text = _EMAIL_RE.sub(REDACTION, text)
    text = _SSN_RE.sub(REDACTION, text)
    text = _MENTION_RE.sub(f" {REDACTION}", text)
    text = _PHONE_RE.sub(REDACTION, text)
    return text


class Anonymizer:
    """Salted, per-run-stable pseudonymisation of authors and post ids."""

    def __init__(self, salt: str) -> None:
        if not salt:
            raise PrivacyError("anonymiser requires a non-empty salt")
        self._salt = salt
        # An author's handle recurs on every post of their history, and
        # the build names each post id twice (post, then label): hash
        # each identifier once.
        self._pseudonyms: dict[tuple[str, str], str] = {}

    def pseudonym(self, value: str, prefix: str) -> str:
        key = (value, prefix)
        name = self._pseudonyms.get(key)
        if name is None:
            digest = hashlib.sha256(f"{self._salt}:{value}".encode()).hexdigest()
            name = self._pseudonyms[key] = f"{prefix}_{digest[:12]}"
        return name

    def anonymise_post(self, post: RedditPost) -> RedditPost:
        """Post with hashed author/id and scrubbed text."""
        return replace(
            post,
            author=self.pseudonym(post.author, "anon"),
            post_id=self.pseudonym(post.post_id, "p"),
            title=scrub_text(post.title),
            body=scrub_text(post.body),
        )

    def anonymise(self, posts: list[RedditPost]) -> list[RedditPost]:
        return [self.anonymise_post(p) for p in posts]


def audit_anonymisation(
    original: list[RedditPost], anonymised: list[RedditPost]
) -> None:
    """Verify no original author handle or post id survives.

    Raises
    ------
    PrivacyError
        If any original identifier appears in the anonymised output
        (as metadata or inside post text), or linkability was broken
        (author multiplicity changed).
    """
    if len(original) != len(anonymised):
        raise PrivacyError("anonymisation changed the number of posts")
    original_ids = {p.post_id for p in original}
    original_authors = {p.author for p in original}
    # One pass per text: a single alternation of every (lowered) handle
    # finds a case-insensitive substring leak without looping over authors.
    by_lowered = {author.lower(): author for author in sorted(original_authors)}
    handles = re.compile("|".join(map(re.escape, by_lowered)))
    for post in anonymised:
        if post.author in original_authors:
            raise PrivacyError(f"raw author survives: {post.author}")
        if post.post_id in original_ids:
            raise PrivacyError(f"raw post id survives: {post.post_id}")
        leak = handles.search(post.text.lower()) if by_lowered else None
        if leak is not None:
            raise PrivacyError(f"author {by_lowered[leak.group()]} leaked into text")
    # Linkability: the author partition must be preserved 1:1.
    def partition(posts: list[RedditPost]) -> dict[str, int]:
        sizes: dict[str, int] = {}
        for p in posts:
            sizes[p.author] = sizes.get(p.author, 0) + 1
        return sizes

    if sorted(partition(original).values()) != sorted(
        partition(anonymised).values()
    ):
        raise PrivacyError("anonymisation broke user-history linkability")
