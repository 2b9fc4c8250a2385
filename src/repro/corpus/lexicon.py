"""Class-conditioned language banks for the synthetic corpus.

The generator composes each post from a mixture of *neutral* sentences
(shared across classes) and *signal* sentences drawn from the bank of the
post's risk level. Signal sentences paraphrase the kind of language the
annotation guideline describes for each label, using restrained and
non-graphic wording (no method or instructional content) — the point is to
plant a learnable class-conditional lexical distribution, not to imitate
real crisis text.

Templates contain ``{slot}`` placeholders filled from the pools in
:data:`SLOT_POOLS`; this widens the vocabulary so that bag-of-words models
cannot trivially memorise whole sentences.
"""

from __future__ import annotations

import string

import numpy as np

from repro.core.rng import ScalarDraws
from repro.core.schema import ALL_LEVELS, RiskLevel

#: Risk phrases shared by ALL four hard banks — the phrase itself carries
#: no label; only the frame around it does.
RISK_PHRASES: tuple[str, ...] = (
    "ending it all",
    "taking my own life",
    "an attempt",
    "hurting myself",
    "making a plan",
    "writing the note",
    "being gone",
    "not waking up",
    "giving up for good",
    "going through with it",
)

SLOT_POOLS: dict[str, tuple[str, ...]] = {
    "rp": RISK_PHRASES,
    "feeling": (
        "exhausted", "numb", "hollow", "overwhelmed", "worthless", "trapped",
        "invisible", "drained", "restless", "defeated", "isolated", "heavy",
    ),
    "stressor": (
        "work", "school", "my family", "the bills", "my relationship",
        "the layoffs", "exams", "the pandemic", "my health", "the debt",
        "my job search", "everything at home",
    ),
    "time": (
        "tonight", "lately", "this week", "for months", "every night",
        "since last year", "all day", "again", "these days", "right now",
    ),
    "person": (
        "my brother", "my best friend", "my roommate", "a coworker",
        "my sister", "someone in my class", "my neighbour", "an old friend",
    ),
    "activity": (
        "sleeping", "eating", "getting out of bed", "focusing",
        "talking to people", "keeping up at work", "caring about anything",
    ),
    "place": (
        "my room", "the apartment", "campus", "the office", "the house",
        "my car", "the city",
    ),
    "support": (
        "a therapist", "the hotline", "my doctor", "a counselor",
        "my mom", "a support group", "my partner",
    ),
    "time_season": (
        "last winter", "last spring", "in the summer", "last autumn",
        "around the holidays", "early last year",
    ),
}

#: Sentences that carry no class signal; mixed into every post.
NEUTRAL_SENTENCES: tuple[str, ...] = (
    "I do not really know how to start this post.",
    "Sorry if this is long, I just need to write it down.",
    "I have been dealing with {stressor} {time}.",
    "Things have been hard with {stressor} and I feel {feeling}.",
    "I have trouble {activity} {time}.",
    "I keep staying up late in {place} thinking about things.",
    "Thanks for reading, I just needed to vent somewhere.",
    "I have not told anyone around me about any of this.",
    "Maybe writing here will help me sort out my head.",
    "It has been a rough stretch {time} to be honest.",
    "I feel {feeling} most days and I do not know why.",
    "Everything with {stressor} keeps piling up.",
    "I used to enjoy things but {time} it all feels flat.",
    "My sleep schedule is completely ruined {time}.",
    "I spend most evenings alone in {place}.",
)

#: Class-conditional signal sentences, keyed by risk level.
SIGNAL_SENTENCES: dict[RiskLevel, tuple[str, ...]] = {
    RiskLevel.INDICATOR: (
        "I am worried about {person}, they have been talking about suicide.",
        "To be clear, I am not suicidal, I am asking for {person}.",
        "How do I support {person} who mentioned wanting to die?",
        "{person} scared me with what they said, what should I do?",
        "I promise I am safe, I just want advice for {person}.",
        "I am only here because of {person}, not for myself.",
        "Does anyone know resources I could share with {person}?",
        "I want to help {person} before things get worse for them.",
        "I have no intention of hurting myself, this is about {person}.",
        "Reaching out on behalf of {person} who is struggling badly.",
    ),
    RiskLevel.IDEATION: (
        "I keep wishing I could fall asleep and not wake up.",
        "The thought of ending it crosses my mind {time}.",
        "I do not want to be alive anymore, but I have no plan.",
        "Sometimes I imagine just disappearing from everything.",
        "I think about death a lot more than I should {time}.",
        "Part of me wants out, even though I would never act on it.",
        "I daydream about not existing when {stressor} gets bad.",
        "The wish to be gone comes and goes, mostly at night.",
        "I would not do anything, but the thoughts will not stop.",
        "Living feels pointless and I catch myself wanting it over.",
    ),
    RiskLevel.BEHAVIOR: (
        "I started writing goodbye letters to the people I love.",
        "I have been giving away my things one by one {time}.",
        "I caught myself researching ways and making a plan.",
        "I hurt myself again last night, the urge was too strong.",
        "I picked a date and began putting my affairs in order.",
        "I bought what I would need, it is still sitting in {place}.",
        "The scars on my arm are getting harder to hide.",
        "I rehearsed how I would do it while alone in {place}.",
        "I keep self harming even though I do not want to die yet.",
        "I drafted a note and saved it where someone would find it.",
    ),
    RiskLevel.ATTEMPT: (
        "Last year I attempted and woke up in the hospital.",
        "I survived my attempt {time} and I am still processing it.",
        "After my attempt, the doctors kept me for observation.",
        "This is my second time recovering from an attempt.",
        "I tried to end my life once and barely made it through.",
        "Since the attempt, {support} has been checking on me.",
        "My family found me after the attempt and called for help.",
        "The attempt left me with injuries I am still healing from.",
        "I came close to dying by my own hand and it changed me.",
        "It has been six months since the attempt that nearly worked.",
    ),
}

#: Hard signal sentences deliberately reuse the *vocabulary of adjacent
#: classes* and put the class distinction into composition — negation,
#: third person, tense — which bag-of-words features cannot decode. The
#: fraction of hard sentences is the main difficulty dial of the corpus:
#: it opens the gap between order-blind models (TF-IDF + trees) and
#: order-aware ones (RNNs, transformers), as in the paper's Table III.
#: Each entry below is one *frame*: four surface realisations — one per
#: class — built from the SAME content-word multiset (the shared risk
#: phrase {rp}, a {person} reference, and the verbs think / prepare /
#: start / happen / survive / help). Only subject binding, negation
#: placement, and tense differ, and negations/pronouns are stopwords, so
#: a stopword-dropping unigram bag sees four (nearly) identical
#: distributions while any order-aware reader can recover the label.
_QUAD_FRAMES: tuple[dict[RiskLevel, str], ...] = (
    {
        RiskLevel.INDICATOR: (
            "{person} keeps thinking about {rp} and I do not know how to help them."
        ),
        RiskLevel.IDEATION: (
            "I keep thinking about {rp} and {person} does not know how to help me."
        ),
        RiskLevel.BEHAVIOR: (
            "I stopped only thinking about {rp}; {person} does not know I am past help."
        ),
        RiskLevel.ATTEMPT: (
            "I once went beyond thinking about {rp}; {person} knows, they had to help me."
        ),
    },
    {
        RiskLevel.INDICATOR: (
            "{person} started preparing for {rp}; it has not happened yet and I want to stop it."
        ),
        RiskLevel.IDEATION: (
            "I think about preparing for {rp}, but nothing has started or happened, whatever {person} fears."
        ),
        RiskLevel.BEHAVIOR: (
            "I started preparing for {rp}; it has not happened yet and {person} suspects nothing."
        ),
        RiskLevel.ATTEMPT: (
            "It happened, {rp}; I had started preparing long before {person} knew anything."
        ),
    },
    {
        RiskLevel.INDICATOR: (
            "{person} survived {rp} {time_season} and I am learning how to support them."
        ),
        RiskLevel.IDEATION: (
            "I wonder if I would survive {rp}; {time_season} the wondering began, and it stayed wondering."
        ),
        RiskLevel.BEHAVIOR: (
            "Whether I survive {rp} stopped being a question {time_season}; I began arranging it."
        ),
        RiskLevel.ATTEMPT: (
            "I survived {rp} {time_season}; it was real and I am still recovering from it."
        ),
    },
    {
        RiskLevel.INDICATOR: (
            "The plan for {rp} was {person}'s, never mine, and finding it out broke me."
        ),
        RiskLevel.IDEATION: (
            "There is no plan for {rp}, only the thought of it returning to me {time}."
        ),
        RiskLevel.BEHAVIOR: (
            "There is a plan for {rp} now, written by me {time}, and the thought has settled."
        ),
        RiskLevel.ATTEMPT: (
            "The plan for {rp} was carried out by me once; the thought of it returning scares {person}."
        ),
    },
    {
        RiskLevel.INDICATOR: (
            "Talking about {rp} is what {person} does every night; I listen and panic quietly."
        ),
        RiskLevel.IDEATION: (
            "Thinking about {rp} is what I do every night, though talking to {person} quiets the panic."
        ),
        RiskLevel.BEHAVIOR: (
            "Getting ready for {rp} is what I do every night now; talking to {person} stopped."
        ),
        RiskLevel.ATTEMPT: (
            "Recovering from {rp} is what I do every night since it happened; {person} stays close."
        ),
    },
    {
        RiskLevel.INDICATOR: (
            "Nothing about {rp} lives in my head; it lives in {person}'s, and I am scared for them."
        ),
        RiskLevel.IDEATION: (
            "{rp} lives in my head {time}, nothing more; {person} would be scared to know."
        ),
        RiskLevel.BEHAVIOR: (
            "{rp} moved out of my head and into {place} {time}; {person} would be scared to look."
        ),
        RiskLevel.ATTEMPT: (
            "{rp} left my head and became that night {time_season}; {person} was scared I was gone."
        ),
    },
    {
        RiskLevel.INDICATOR: (
            "I asked {person} if they were close to {rp} and their answer kept me up all night."
        ),
        RiskLevel.IDEATION: (
            "How close I feel to {rp} is something I cannot ask {person} to understand; it is only a feeling."
        ),
        RiskLevel.BEHAVIOR: (
            "How close I am to {rp} would stun {person}; the first steps are already behind me."
        ),
        RiskLevel.ATTEMPT: (
            "How close {rp} came to ending me is something {person} saw from the hospital chair."
        ),
    },
    {
        RiskLevel.INDICATOR: (
            "The note about {rp} I found was written by {person}, and I have not slept since."
        ),
        RiskLevel.IDEATION: (
            "No note about {rp} exists; I only compose it in my head when {person} is asleep."
        ),
        RiskLevel.BEHAVIOR: (
            "The note about {rp} exists now; I wrote it while {person} was asleep."
        ),
        RiskLevel.ATTEMPT: (
            "The note about {rp} was already written the night it happened; {person} found it after."
        ),
    },
    {
        RiskLevel.INDICATOR: (
            "Help arrived for {person} before {rp} could happen, and I am the one who called it."
        ),
        RiskLevel.IDEATION: (
            "Help feels pointless when {rp} is only a thought I carry; nothing has happened to {person} or me."
        ),
        RiskLevel.BEHAVIOR: (
            "Help would ruin what I have set in motion toward {rp}; {person} must not call anyone."
        ),
        RiskLevel.ATTEMPT: (
            "Help arrived too late to stop {rp} from happening to me, yet {person}'s call saved my life."
        ),
    },
    {
        RiskLevel.INDICATOR: (
            "Every step toward {rp} was taken by {person}, and I keep replaying how I missed it."
        ),
        RiskLevel.IDEATION: (
            "No step toward {rp} has been taken by me; the replaying happens only in my mind, {person} knows."
        ),
        RiskLevel.BEHAVIOR: (
            "Every step toward {rp} I planned is done except the last; {person} keeps missing the signs."
        ),
        RiskLevel.ATTEMPT: (
            "Every step toward {rp} was taken by me {time_season}; {person} keeps replaying how they missed it."
        ),
    },
)

HARD_SIGNAL_SENTENCES: dict[RiskLevel, tuple[str, ...]] = {
    level: tuple(frame[level] for frame in _QUAD_FRAMES) for level in RiskLevel
}

#: Titles follow the same pattern, shorter.
TITLE_TEMPLATES: dict[RiskLevel, tuple[str, ...]] = {
    RiskLevel.INDICATOR: (
        "Worried about {person}",
        "How to help {person}?",
        "Advice for supporting {person}",
        "Not for me, asking for {person}",
    ),
    RiskLevel.IDEATION: (
        "I do not want to wake up",
        "Tired of existing",
        "The thoughts will not stop",
        "Feeling {feeling} and done",
    ),
    RiskLevel.BEHAVIOR: (
        "I started preparing",
        "Wrote the note",
        "Relapsed into self harm",
        "Making arrangements",
    ),
    RiskLevel.ATTEMPT: (
        "After my attempt",
        "I survived",
        "Second attempt anniversary",
        "Back from the hospital",
    ),
}

#: Off-topic sentences used for the irrelevant posts the crawler also
#: returns (removed by the relevance filter in pre-processing).
OFFTOPIC_SENTENCES: tuple[str, ...] = (
    "Does anyone have recommendations for a budget laptop?",
    "Selling two concert tickets for this weekend, DM me.",
    "What is the best pizza place near {place}?",
    "Looking for a study group for the statistics final.",
    "My cat knocked over the router again, classic.",
    "Anyone else watching the game tonight?",
    "Promo code inside, check out this great deal!",
)

#: Noise fragments appended to some raw posts (removed by cleaning).
NOISE_FRAGMENTS: tuple[str, ...] = (
    " http://tracking.example.com/c?id=12345 ",
    " https://bit.ly/3abcXYZ ",
    " ​​​ ",
    " !!!!!!!!!! ",
    " ????????? ",
    " #help #advice #late",
    " [removed by editor] ",
    " visit www.spam-offer.example for deals ",
)


#: A template split at its slots: the text before the first slot, then
#: one ``(pool, text up to the next slot)`` pair per slot.
CompiledTemplate = tuple[str, tuple[tuple[tuple[str, ...], str], ...]]


def compile_template(template: str) -> CompiledTemplate:
    """Split ``template`` at its ``{slot}`` placeholders.

    Filling the compiled form left to right draws the slots in the order
    ``string.Formatter().parse`` lists them, one ``integers(len(pool))``
    each. Templates are plain text plus ``{slot}`` fields; anything else
    (escaped braces, conversions, format specs) is rejected, since the
    join of literals and values would not reproduce it.
    """
    literals: list[str] = []
    pools: list[tuple[str, ...]] = []
    for literal, slot, spec, conversion in string.Formatter().parse(template):
        if spec or conversion or "{" in literal or "}" in literal:
            raise ValueError(f"unsupported template syntax: {template!r}")
        literals.append(literal)
        if slot is not None:
            pools.append(SLOT_POOLS[slot])
    if len(literals) == len(pools):
        literals.append("")
    return literals[0], tuple(zip(pools, literals[1:]))


def _compile_bank(bank: tuple[str, ...]) -> tuple[CompiledTemplate, ...]:
    return tuple(compile_template(t) for t in bank)


def _compile_levels(
    banks: dict[RiskLevel, tuple[str, ...]],
) -> tuple[tuple[CompiledTemplate, ...], ...]:
    """Per-level banks as a tuple indexed by the level's value."""
    return tuple(_compile_bank(banks[level]) for level in ALL_LEVELS)


_NEUTRAL_BANK = _compile_bank(NEUTRAL_SENTENCES)
_SIGNAL_BANKS = _compile_levels(SIGNAL_SENTENCES)
_HARD_SIGNAL_BANKS = _compile_levels(HARD_SIGNAL_SENTENCES)
_TITLE_BANKS = _compile_levels(TITLE_TEMPLATES)
_NEUTRAL_TITLE_BANK = _compile_bank(
    ("Need to get this off my chest", "Just venting", "A long post")
)
_OFFTOPIC_BANK = _compile_bank(OFFTOPIC_SENTENCES)

#: The adjacent severity levels of each level, indexed by its value.
_NEIGHBOURS: tuple[tuple[RiskLevel, ...], ...] = tuple(
    tuple(ALL_LEVELS[v] for v in (int(level) - 1, int(level) + 1) if 0 <= v <= 3)
    for level in ALL_LEVELS
)


class SentenceSampler:
    """Samples filled-in sentences for a given risk level.

    Every draw is a ``random()`` or ``integers(k)`` of ``rng``, taken in
    a data-dependent interleave. They go through a
    :class:`~repro.core.rng.ScalarDraws` decoder, which returns the
    values numpy's scalar calls would, bit for bit, from raw words drawn
    in blocks. Call :meth:`close` when done: it leaves ``rng`` exactly
    where the scalar calls would have, and the sampler draws nothing
    more. The work around the draws is cut too (pre-split templates,
    per-level tuples instead of enum lookups, bound methods).

    Parameters
    ----------
    rng:
        Numpy PCG64 generator, owned by the sampler until :meth:`close`.
    lexical_strength:
        Probability that any given sentence is drawn from the class's
        signal bank rather than the neutral bank.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        lexical_strength: float,
        hard_fraction: float = 0.5,
        ambiguity_noise: float = 0.0,
    ) -> None:
        self._draws = ScalarDraws(rng)
        self._random = self._draws.random
        self._integers = self._draws.integers
        self._lexical_strength = float(lexical_strength)
        self._hard_fraction = float(hard_fraction)
        self._ambiguity_noise = float(ambiguity_noise)

    def close(self) -> None:
        """Write the generator's state back; see :meth:`ScalarDraws.close`."""
        self._draws.close()

    def _noisy_level(self, level: RiskLevel) -> RiskLevel:
        """With prob ``ambiguity_noise``, drift to an adjacent severity level.

        Real posts mix language of neighbouring risk levels (people recall
        past states, hedge, or escalate mid-post); this is the corpus's
        irreducible-error dial.
        """
        if self._random() >= self._ambiguity_noise:
            return level
        candidates = _NEIGHBOURS[level]
        return candidates[self._integers(len(candidates))]

    def _fill(self, template: CompiledTemplate) -> str:
        text, slots = template
        integers = self._integers
        for pool, tail in slots:
            text += pool[integers(len(pool))] + tail
        return text

    def _draw(self, bank: tuple[CompiledTemplate, ...]) -> str:
        return self._fill(bank[self._integers(len(bank))])

    def fill(self, template: str) -> str:
        """Fill every ``{slot}`` in a template from :data:`SLOT_POOLS`."""
        return self._fill(compile_template(template))

    def sentence(self, level: RiskLevel) -> str:
        """One sentence: signal with prob ``lexical_strength``, else neutral.

        A signal sentence is *hard* (adjacent-class vocabulary, the label
        carried by composition only) with prob ``hard_fraction``.
        """
        return self.body(level, 1)

    def title(self, level: RiskLevel) -> str:
        """A short title; carries *easy* signal with reduced probability
        (hard posts keep neutral titles so the title is not a shortcut)."""
        signal_p = self._lexical_strength * (1.0 - self._hard_fraction)
        if self._random() < signal_p:
            return self._draw(_TITLE_BANKS[level])
        return self._draw(_NEUTRAL_TITLE_BANK)

    def body(self, level: RiskLevel, num_sentences: int) -> str:
        """A body of ``num_sentences`` sentences for the risk level."""
        random, integers = self._random, self._integers
        noisy_level, fill = self._noisy_level, self._fill
        lexical_strength = self._lexical_strength
        hard_fraction = self._hard_fraction
        sentences = []
        for _ in range(max(1, num_sentences)):
            if random() < lexical_strength:
                emitted = noisy_level(level)
                if random() < hard_fraction:
                    bank = _HARD_SIGNAL_BANKS[emitted]
                else:
                    bank = _SIGNAL_BANKS[emitted]
            else:
                bank = _NEUTRAL_BANK
            sentences.append(fill(bank[integers(len(bank))]))
        return " ".join(sentences)

    def offtopic(self) -> str:
        """An off-topic sentence (for crawl-pool noise)."""
        return self._draw(_OFFTOPIC_BANK)

    def noise(self) -> str:
        """A noise fragment (URL, zero-width chars, hashtag spam...)."""
        bank = NOISE_FRAGMENTS
        return bank[self._integers(len(bank))]
