"""Simulated Reddit substrate and synthetic RSD-15K corpus generation."""

from repro.corpus.generator import (
    SUBREDDIT,
    CorpusGenerator,
    SyntheticCorpus,
)
from repro.corpus.models import RedditPost, UserHistory, UserProfile
from repro.corpus.reddit import Listing, RedditSimulator, Subreddit, crawl

__all__ = [
    "SUBREDDIT",
    "CorpusGenerator",
    "SyntheticCorpus",
    "RedditPost",
    "UserHistory",
    "UserProfile",
    "Listing",
    "RedditSimulator",
    "Subreddit",
    "crawl",
]
