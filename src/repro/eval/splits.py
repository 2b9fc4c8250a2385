"""User-disjoint dataset splits (paper §III, data partitioning).

"We randomly divide all users into training set (80%), validation set
(10%), and test set (10%) to ensure that the users from the training set
and test set are entirely disjoint to prevent data leakage risks."
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import SplitConfig
from repro.core.errors import SplitError
from repro.core.rng import stream
from repro.temporal.windows import PostWindow


@dataclass(frozen=True)
class WindowSplits:
    """Train/validation/test window lists (user-disjoint)."""

    train: list[PostWindow]
    validation: list[PostWindow]
    test: list[PostWindow]

    def verify_disjoint(self) -> None:
        """Raise :class:`SplitError` if any author crosses splits."""
        train = {w.author for w in self.train}
        val = {w.author for w in self.validation}
        test = {w.author for w in self.test}
        overlaps = (train & val) | (train & test) | (val & test)
        if overlaps:
            raise SplitError(f"authors cross splits: {sorted(overlaps)[:5]}")

    @property
    def sizes(self) -> tuple[int, int, int]:
        return len(self.train), len(self.validation), len(self.test)


def split_users(
    authors: list[str], config: SplitConfig | None = None
) -> tuple[list[str], list[str], list[str]]:
    """Randomly partition authors 80/10/10 (configurable)."""
    config = config or SplitConfig()
    if len(authors) < 3:
        raise SplitError("need at least 3 users to split")
    rng = stream(config.seed, "user-split")
    order = [authors[int(i)] for i in rng.permutation(len(authors))]
    n = len(order)
    n_train = int(round(config.train * n))
    n_val = int(round(config.validation * n))
    n_train = min(n_train, n - 2)
    n_val = max(1, min(n_val, n - n_train - 1))
    train = order[:n_train]
    val = order[n_train : n_train + n_val]
    test = order[n_train + n_val :]
    if not test:
        raise SplitError("test split came out empty; adjust fractions")
    return train, val, test


def split_windows(
    windows: list[PostWindow], config: SplitConfig | None = None
) -> WindowSplits:
    """Split windows by author, then verify user-disjointness."""
    authors = sorted({w.author for w in windows})
    train_users, val_users, test_users = split_users(authors, config)
    by_author: dict[str, list[PostWindow]] = {}
    for window in windows:
        by_author.setdefault(window.author, []).append(window)

    def gather(users: list[str]) -> list[PostWindow]:
        return [w for u in users for w in by_author.get(u, [])]

    splits = WindowSplits(
        train=gather(train_users),
        validation=gather(val_users),
        test=gather(test_users),
    )
    splits.verify_disjoint()
    return splits
