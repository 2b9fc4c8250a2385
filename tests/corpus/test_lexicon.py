"""Tests for the class-conditioned language banks."""

import string

import numpy as np
import pytest

from repro.core.schema import ALL_LEVELS, RiskLevel
from repro.corpus.lexicon import (
    HARD_SIGNAL_SENTENCES,
    NEUTRAL_SENTENCES,
    NOISE_FRAGMENTS,
    OFFTOPIC_SENTENCES,
    RISK_PHRASES,
    SIGNAL_SENTENCES,
    SLOT_POOLS,
    SentenceSampler,
    TITLE_TEMPLATES,
    compile_template,
)

ALL_TEMPLATES = (
    NEUTRAL_SENTENCES
    + OFFTOPIC_SENTENCES
    + tuple(
        template
        for bank in (SIGNAL_SENTENCES, HARD_SIGNAL_SENTENCES, TITLE_TEMPLATES)
        for level in ALL_LEVELS
        for template in bank[level]
    )
)


def _fill_by_replace(rng, template):
    """Slot by slot, in parse order, each into its first placeholder."""
    out = template
    for _, slot, _, _ in string.Formatter().parse(template):
        if slot is None:
            continue
        pool = SLOT_POOLS[slot]
        out = out.replace("{" + slot + "}", pool[int(rng.integers(len(pool)))], 1)
    return out


@pytest.fixture()
def sampler(rng):
    return SentenceSampler(rng, lexical_strength=1.0, hard_fraction=0.5)


class TestBanks:
    def test_every_level_has_banks(self):
        for bank in (SIGNAL_SENTENCES, HARD_SIGNAL_SENTENCES, TITLE_TEMPLATES):
            assert set(bank) == set(ALL_LEVELS)

    def test_hard_banks_have_equal_sizes(self):
        sizes = {len(HARD_SIGNAL_SENTENCES[lv]) for lv in ALL_LEVELS}
        assert len(sizes) == 1

    def test_hard_banks_embed_shared_risk_phrases(self):
        for level in ALL_LEVELS:
            assert all("{rp}" in t for t in HARD_SIGNAL_SENTENCES[level])

    def test_slots_resolve(self):
        import string

        all_templates = (
            NEUTRAL_SENTENCES
            + tuple(t for lv in ALL_LEVELS for t in SIGNAL_SENTENCES[lv])
            + tuple(t for lv in ALL_LEVELS for t in HARD_SIGNAL_SENTENCES[lv])
        )
        for template in all_templates:
            for _, slot, _, _ in string.Formatter().parse(template):
                if slot is not None:
                    assert slot in SLOT_POOLS, f"unknown slot {slot} in {template}"

    def test_risk_phrases_are_lowercase_fragments(self):
        assert all(p == p.lower() for p in RISK_PHRASES)


class TestCompiledTemplates:
    def test_fill_equals_replace_in_parse_order(self):
        sampler = SentenceSampler(np.random.default_rng(4), 0.7)
        reference = np.random.default_rng(4)
        for _ in range(3):
            for template in ALL_TEMPLATES + ("{time}{time} and {feeling}",):
                assert sampler.fill(template) == _fill_by_replace(
                    reference, template
                )
        # Both streams stop at the same point.
        assert sampler.noise() == NOISE_FRAGMENTS[
            int(reference.integers(len(NOISE_FRAGMENTS)))
        ]

    @pytest.mark.parametrize(
        "template", ["{{literal}}", "a {time!r}", "a {time:>9}", "a }} b"]
    )
    def test_rejects_other_format_syntax(self, template):
        with pytest.raises(ValueError):
            compile_template(template)


class TestSentenceSampler:
    def test_fill_replaces_all_slots(self, sampler):
        out = sampler.fill("I have been dealing with {stressor} {time}.")
        assert "{" not in out and "}" not in out

    def test_body_sentence_count(self, sampler):
        body = sampler.body(RiskLevel.IDEATION, 4)
        assert body.count(".") >= 3  # roughly one terminal per sentence

    def test_body_never_empty(self, sampler):
        assert sampler.body(RiskLevel.ATTEMPT, 0)

    def test_zero_strength_yields_neutral_only(self, rng):
        sampler = SentenceSampler(rng, lexical_strength=0.0)
        filled_neutral = set()
        for _ in range(200):
            filled_neutral.add(sampler.sentence(RiskLevel.ATTEMPT))
        # None of the outputs should contain a shared risk phrase.
        assert not any(
            any(rp in s for rp in RISK_PHRASES) for s in filled_neutral
        )

    def test_hard_fraction_one_uses_hard_bank(self, rng):
        sampler = SentenceSampler(rng, 1.0, hard_fraction=1.0)
        for _ in range(50):
            sentence = sampler.sentence(RiskLevel.BEHAVIOR)
            assert any(rp in sentence for rp in RISK_PHRASES)

    def test_ambiguity_noise_drifts_to_adjacent(self, rng):
        sampler = SentenceSampler(rng, 1.0, ambiguity_noise=1.0)
        drifted = {sampler._noisy_level(RiskLevel.INDICATOR) for _ in range(50)}
        assert drifted == {RiskLevel.IDEATION}
        drifted = {sampler._noisy_level(RiskLevel.IDEATION) for _ in range(200)}
        assert drifted == {RiskLevel.INDICATOR, RiskLevel.BEHAVIOR}

    def test_no_noise_keeps_level(self, rng):
        sampler = SentenceSampler(rng, 1.0, ambiguity_noise=0.0)
        assert all(
            sampler._noisy_level(lv) == lv for lv in ALL_LEVELS for _ in range(5)
        )

    def test_titles_fill_slots(self, sampler):
        for _ in range(20):
            title = sampler.title(RiskLevel.INDICATOR)
            assert "{" not in title

    def test_offtopic_and_noise(self, sampler):
        assert sampler.offtopic()
        assert sampler.noise()

    def test_deterministic_given_rng(self):
        a = SentenceSampler(np.random.default_rng(5), 0.7)
        b = SentenceSampler(np.random.default_rng(5), 0.7)
        assert [a.sentence(RiskLevel.IDEATION) for _ in range(10)] == [
            b.sentence(RiskLevel.IDEATION) for _ in range(10)
        ]
