"""Tests for anonymisation and PII scrubbing."""

from dataclasses import replace
from datetime import datetime, timezone

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import PrivacyError
from repro.core.privacy import (
    Anonymizer,
    audit_anonymisation,
    scrub_text,
    scrub_text_reference,
)
from repro.corpus.models import RedditPost


def make_post(pid, author, body):
    return RedditPost(
        post_id=pid, author=author, subreddit="s", title="t", body=body,
        created_utc=datetime(2020, 1, 1, tzinfo=timezone.utc),
    )


#: Pieces of text that each pattern of scrub_text matches or nearly matches:
#: e-mails, mentions, phone runs, SSN shapes (also in non-ASCII digits,
#: which \d matches), and the characters the gates look for on their own.
PII_FRAGMENTS = (
    "someone@example.com", "a.b+c@mail.co.uk", "@friendperson", "@_x1",
    "@", "@@", "x@y", "u/throwaway123", "/u/name-1", "U/upper", "u/", "u",
    "555-123-4567", "+1 555 123 4567", "5551234567", "12345", "1-2",
    "123-45-6789", "١٢٣-٤٥-٦٧٨٩", "١٢٣٤٥٦٧٨", "٣", "-", "--", "9",
    "hopeless", "tonight", "[REDACTED]", "\n", "\t", " ", "é", "x",
)
pii_texts = st.one_of(
    st.lists(st.sampled_from(PII_FRAGMENTS), max_size=12).map("".join),
    st.lists(st.sampled_from(PII_FRAGMENTS), max_size=12).map(" ".join),
    st.text(max_size=60),
)


class TestScrubGates:
    @settings(max_examples=300, deadline=None)
    @given(pii_texts)
    def test_equals_reference(self, text):
        assert scrub_text(text) == scrub_text_reference(text)

    @pytest.mark.parametrize("text", PII_FRAGMENTS)
    def test_each_fragment_equals_reference(self, text):
        for variant in (text, f"call {text} now", f"{text}{text}"):
            assert scrub_text(variant) == scrub_text_reference(variant)


class TestScrubText:
    def test_emails_removed(self):
        assert "someone@example.com" not in scrub_text(
            "contact me at someone@example.com please"
        )

    def test_phone_numbers_removed(self):
        assert "555" not in scrub_text("call 555-123-4567 anytime")

    def test_reddit_mentions_removed(self):
        out = scrub_text("thanks u/throwaway123 and @friendperson")
        assert "throwaway123" not in out
        assert "friendperson" not in out

    def test_ssn_shapes_removed(self):
        assert "123-45-6789" not in scrub_text("ssn 123-45-6789 leaked")

    def test_ordinary_text_untouched(self):
        text = "I feel hopeless tonight and cannot sleep"
        assert scrub_text(text) == text


class TestAnonymizer:
    def test_stable_pseudonyms(self):
        anon = Anonymizer("salt")
        assert anon.pseudonym("alice", "anon") == anon.pseudonym("alice", "anon")

    def test_salt_changes_pseudonyms(self):
        assert Anonymizer("a").pseudonym("alice", "anon") != Anonymizer(
            "b"
        ).pseudonym("alice", "anon")

    def test_pseudonym_is_the_salted_hash(self):
        anon = Anonymizer("salt")
        digest = hashlib.sha256(b"salt:alice").hexdigest()[:12]
        for _ in range(2):  # computed, then remembered
            assert anon.pseudonym("alice", "anon") == f"anon_{digest}"
            assert anon.pseudonym("alice", "p") == f"p_{digest}"

    def test_empty_salt_rejected(self):
        with pytest.raises(PrivacyError):
            Anonymizer("")

    def test_anonymise_post_replaces_identifiers(self):
        post = make_post("p1", "alice", "text with someone@example.com")
        out = Anonymizer("s").anonymise_post(post)
        assert out.author != "alice"
        assert out.post_id != "p1"
        assert "@example.com" not in out.body

    def test_histories_stay_linkable(self):
        posts = [make_post(f"p{i}", "alice", "b") for i in range(3)]
        out = Anonymizer("s").anonymise(posts)
        assert len({p.author for p in out}) == 1


class TestAudit:
    def test_passes_on_clean_anonymisation(self):
        posts = [
            make_post("p1", "alice", "body one"),
            make_post("p2", "alice", "body two"),
            make_post("p3", "bob", "body three"),
        ]
        anonymised = Anonymizer("s").anonymise(posts)
        audit_anonymisation(posts, anonymised)  # no raise

    def test_detects_surviving_author(self):
        posts = [make_post("p1", "alice", "b")]
        with pytest.raises(PrivacyError):
            audit_anonymisation(posts, posts)

    def test_detects_author_leak_in_text(self):
        posts = [make_post("p1", "alice_username", "b")]
        leaked = [
            make_post("q1", "anon_x", "I am alice_username actually")
        ]
        with pytest.raises(PrivacyError):
            audit_anonymisation(posts, leaked)

    def test_names_a_handle_planted_in_one_post(self):
        posts = [
            make_post(f"p{i}", f"user_{i:03d}", f"body {i}") for i in range(200)
        ]
        posts.append(make_post("px", "Mr.Robot+1", "hello"))
        anonymised = Anonymizer("s").anonymise(posts)
        audit_anonymisation(posts, anonymised)  # clean before planting
        anonymised[57] = replace(
            anonymised[57], body="ask MR.ROBOT+1 about it"
        )
        with pytest.raises(PrivacyError, match=r"author Mr\.Robot\+1 leaked"):
            audit_anonymisation(posts, anonymised)

    def test_handles_match_literally(self):
        # "a.c" is a handle, not a pattern: "abc" in a text is no leak.
        posts = [make_post("p1", "a.c", "b")]
        anonymised = Anonymizer("s").anonymise(posts)
        anonymised[0] = replace(anonymised[0], body="abc and a+c")
        audit_anonymisation(posts, anonymised)  # no raise

    def test_detects_broken_linkability(self):
        posts = [make_post("p1", "alice", "b"), make_post("p2", "alice", "b2")]
        broken = [make_post("q1", "anon_1", "b"), make_post("q2", "anon_2", "b2")]
        with pytest.raises(PrivacyError):
            audit_anonymisation(posts, broken)

    def test_detects_count_mismatch(self):
        posts = [make_post("p1", "alice", "b")]
        with pytest.raises(PrivacyError):
            audit_anonymisation(posts, [])
