"""Duplicate removal: exact and near-duplicate detection.

Exact duplicates (reposts of identical text) are caught with a normalised
hash; near-duplicates (small edits, appended noise) with MinHash over word
shingles followed by a Jaccard check — the standard construction used in
web-scale dedup, here sized for a ~10⁵-post crawl.
"""

from __future__ import annotations

import hashlib
import re
from collections.abc import Iterable, Sequence
from itertools import chain

import numpy as np

from repro import perf
from repro.corpus.models import RedditPost

_WORD_RE = re.compile(r"[a-z0-9']+")

_MERSENNE_PRIME = (1 << 61) - 1
_MAX_HASH = (1 << 32) - 1

#: Shingle rows per broadcast block in :meth:`MinHasher.signatures`: at
#: 64 permutations each block temporary is 512 KB, which stays in cache
#: (on a 2-CPU x86 host, 512–2048 rows ran fastest and 8192 took 1.7x as
#: long) and keeps the build's peak memory where the per-post loop had it.
_BLOCK_ROWS = 1024
#: Most values in one permutation slice of the distinct-shingle table of
#: :meth:`MinHasher.signatures`: one block's worth at 64 permutations, so
#: the table adds no more to peak memory than a block does. A table four
#: times as large hashed 1.6x faster at scale 1.0 but raised the peak RSS
#: of a scale-0.05 build by about 1 MB.
_TABLE_VALUES = _BLOCK_ROWS * 64


def normalised_fingerprint(text: str) -> str:
    """Hash of the lower-cased, whitespace-collapsed text."""
    canonical = " ".join(_WORD_RE.findall(text.lower()))
    return hashlib.sha1(canonical.encode("utf-8")).hexdigest()


def shingles(text: str, k: int = 3) -> set[str]:
    """Set of ``k``-word shingles of the text."""
    words = _WORD_RE.findall(text.lower())
    if len(words) < k:
        return {" ".join(words)} if words else set()
    return set(map(" ".join, zip(*(words[i:] for i in range(k)))))


def jaccard(a: set[str], b: set[str]) -> float:
    """Jaccard similarity of two shingle sets."""
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    inter = len(a & b)
    return inter / (len(a) + len(b) - inter)


class MinHasher:
    """MinHash signatures with ``num_perm`` universal hash permutations."""

    def __init__(self, num_perm: int = 64, seed: int = 1) -> None:
        if num_perm < 4:
            raise ValueError("num_perm must be >= 4")
        rng = np.random.default_rng(seed)
        self.num_perm = num_perm
        self._a = rng.integers(1, _MERSENNE_PRIME, size=num_perm, dtype=np.uint64)
        self._b = rng.integers(0, _MERSENNE_PRIME, size=num_perm, dtype=np.uint64)

    @staticmethod
    def _base_hashes(shingle_set: Iterable[str]) -> np.ndarray:
        return np.array(
            [
                int.from_bytes(
                    hashlib.blake2b(s.encode(), digest_size=8).digest(), "little"
                )
                for s in shingle_set
            ],
            dtype=np.uint64,
        )

    def signatures(self, shingle_sets: Sequence[set[str]]) -> np.ndarray:
        """MinHash signatures of many sets, shape ``(len(shingle_sets), num_perm)``.

        Templated text repeats most shingles across posts, so each
        distinct shingle is hashed, and put through ``(a·x + b) mod p``,
        once per call. That runs for a slice of the permutations at a
        time: the ``(distinct, slice)`` table holds at most
        ``_TABLE_VALUES`` values. The sets' rows of the table are
        gathered in blocks of at most ``_BLOCK_ROWS · num_perm / slice``
        rows (so a block holds as many values as ``_BLOCK_ROWS`` rows of
        every permutation; a larger set is a block of its own), and one
        ``np.minimum.reduceat`` per block takes every set's minimum.
        uint64 arithmetic wraps identically here and in
        :meth:`_signature_reference`, and a minimum does not depend on
        the order it is taken in, so signatures are bitwise equal.
        """
        index: dict[str, int] = {}
        first_seen = index.setdefault
        rows = np.fromiter(
            (first_seen(s, len(index)) for s in chain.from_iterable(shingle_sets)),
            dtype=np.intp,
        )
        base = self._base_hashes(index)
        sizes = np.fromiter(map(len, shingle_sets), dtype=np.intp)
        ends = np.cumsum(sizes)
        starts = ends - sizes
        width = min(self.num_perm, max(1, _TABLE_VALUES // max(1, base.size)))
        block_rows = _BLOCK_ROWS * self.num_perm // width
        # Blocks of whole sets: (sets with shingles, first row, row stop).
        blocks = []
        first = 0
        while first < len(sizes):
            stop = max(
                first + 1,
                int(np.searchsorted(ends, starts[first] + block_rows, "right")),
            )
            filled = first + np.flatnonzero(sizes[first:stop])
            if filled.size:
                blocks.append((filled, starts[filled[0]], ends[stop - 1]))
            first = stop
        sigs = np.full((len(sizes), self.num_perm), _MAX_HASH, dtype=np.uint64)
        for lo_perm in range(0, self.num_perm, width):
            perms = slice(lo_perm, lo_perm + width)
            table = self._a[None, perms] * base[:, None]
            table += self._b[None, perms]
            table %= _MERSENNE_PRIME
            for filled, lo, hi in blocks:
                sigs[filled, perms] = np.minimum.reduceat(
                    table[rows[lo:hi]], starts[filled] - lo
                )
        return sigs & np.uint64(_MAX_HASH)

    def signature(self, shingle_set: set[str]) -> np.ndarray:
        """MinHash signature (uint64 vector of length ``num_perm``).

        The one-set case of :meth:`signatures`.
        """
        return self.signatures([shingle_set])[0]

    def _signature_reference(self, shingle_set: set[str]) -> np.ndarray:
        """Naive per-permutation predecessor, kept for equivalence tests."""
        if not shingle_set:
            return np.full(self.num_perm, _MAX_HASH, dtype=np.uint64)
        base = self._base_hashes(shingle_set)
        # (a * x + b) mod p, min over shingles, per permutation.
        sig = np.empty(self.num_perm, dtype=np.uint64)
        for i in range(self.num_perm):
            hashed = (self._a[i] * base + self._b[i]) % _MERSENNE_PRIME
            sig[i] = hashed.min() & _MAX_HASH
        return sig

    @staticmethod
    def estimate_jaccard(sig_a: np.ndarray, sig_b: np.ndarray) -> float:
        """Estimated Jaccard similarity from two signatures."""
        return float(np.mean(sig_a == sig_b))


def remove_exact_duplicates(
    posts: list[RedditPost],
) -> tuple[list[RedditPost], int]:
    """Keep the earliest copy of each identical text; drop the rest."""
    seen: set[str] = set()
    kept, dropped = [], 0
    for post in sorted(posts, key=lambda p: (p.created_utc, p.post_id)):
        fp = normalised_fingerprint(post.text)
        if fp in seen:
            dropped += 1
            continue
        seen.add(fp)
        kept.append(post)
    return kept, dropped


def _band_buckets(sigs: np.ndarray, bands: int) -> list[list[int]]:
    """Every LSH bucket of two or more rows of ``sigs``, members ascending.

    A bucket is one band's slice of the signature shared by several rows.
    Buckets come in the order a dict keyed by ``(band, slice bytes)``,
    filled row by row and band by band, first sees them: by first member,
    then by band. The near-dedup pass depends on that order (which pair
    is checked first decides which post of a chain is dropped).
    """
    width = sigs.shape[1] // bands
    key_type = np.dtype((np.void, width * sigs.dtype.itemsize))
    found: list[tuple[int, int, list[int]]] = []
    for band in range(bands):
        keys = np.ascontiguousarray(sigs[:, band * width : (band + 1) * width])
        _, first, inverse, counts = np.unique(
            keys.view(key_type).ravel(),
            return_index=True,
            return_inverse=True,
            return_counts=True,
        )
        shared = counts[inverse] >= 2
        if not shared.any():
            continue
        members = np.flatnonzero(shared)
        member_buckets = inverse[members]
        order = np.argsort(member_buckets, kind="stable")
        members, member_buckets = members[order], member_buckets[order]
        cuts = np.flatnonzero(np.diff(member_buckets)) + 1
        for group in np.split(members, cuts):
            found.append((int(group[0]), band, group.tolist()))
    found.sort(key=lambda bucket: bucket[:2])
    return [group for _, _, group in found]


def remove_near_duplicates(
    posts: list[RedditPost],
    threshold: float = 0.85,
    num_perm: int = 64,
    bands: int = 16,
) -> tuple[list[RedditPost], int]:
    """LSH-banded MinHash near-duplicate removal.

    Signatures are split into ``bands``; posts sharing any band bucket are
    candidate pairs, confirmed with exact Jaccard on shingles. Of each
    duplicate cluster, the earliest post survives.
    """
    if num_perm % bands != 0:
        raise ValueError("num_perm must be divisible by bands")
    with perf.span("dedup.near"):
        ordered = sorted(posts, key=lambda p: (p.created_utc, p.post_id))
        shingle_sets = [shingles(p.text) for p in ordered]
        sigs = MinHasher(num_perm=num_perm).signatures(shingle_sets)

        # A candidate pair typically collides in *several* bands; without
        # memoisation the worst case (many near-identical posts) does the
        # exact-Jaccard check ``bands`` times per pair. Confirmed
        # duplicates short-circuit out entirely, and surviving pairs are
        # checked at most once across all buckets.
        drop: set[int] = set()
        checked: set[tuple[int, int]] = set()
        for members in _band_buckets(sigs, bands):
            for pos, i in enumerate(members):
                if i in drop:
                    continue
                for j in members[pos + 1 :]:
                    if j in drop:
                        continue
                    pair = (i, j)  # i < j: bucket members keep index order
                    if pair in checked:
                        continue
                    checked.add(pair)
                    if jaccard(shingle_sets[i], shingle_sets[j]) >= threshold:
                        drop.add(j)  # j is later (ordered list)
        if checked:
            perf.count("dedup.pairs_checked", len(checked))
        kept = [p for idx, p in enumerate(ordered) if idx not in drop]
    return kept, len(drop)
