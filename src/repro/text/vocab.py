"""Token vocabulary with special symbols, used by all neural models."""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable

PAD = "<pad>"
UNK = "<unk>"
BOS = "<s>"
EOS = "</s>"
MASK = "<mask>"

SPECIAL_TOKENS = (PAD, UNK, BOS, EOS, MASK)


class Vocabulary:
    """Bidirectional token ↔ id mapping.

    Ids 0..4 are reserved for the special tokens in
    :data:`SPECIAL_TOKENS` (pad, unk, bos, eos, mask), matching the
    conventions of the RoBERTa tokeniser family.
    """

    def __init__(self, tokens: Iterable[str] = ()) -> None:
        self._token_to_id: dict[str, int] = {}
        self._id_to_token: list[str] = []
        for token in SPECIAL_TOKENS:
            self._add(token)
        for token in tokens:
            self._add(token)

    def _add(self, token: str) -> int:
        if token not in self._token_to_id:
            self._token_to_id[token] = len(self._id_to_token)
            self._id_to_token.append(token)
        return self._token_to_id[token]

    # -- construction --------------------------------------------------------

    @classmethod
    def build(
        cls,
        documents: Iterable[list[str]],
        max_size: int | None = None,
        min_freq: int = 1,
    ) -> "Vocabulary":
        """Frequency-sorted vocabulary from tokenised documents."""
        counts = Counter()
        for doc in documents:
            counts.update(doc)
        items = [
            (token, freq)
            for token, freq in counts.items()
            if freq >= min_freq and token not in SPECIAL_TOKENS
        ]
        items.sort(key=lambda kv: (-kv[1], kv[0]))
        if max_size is not None:
            budget = max(0, max_size - len(SPECIAL_TOKENS))
            items = items[:budget]
        return cls(token for token, _ in items)

    # -- mapping ----------------------------------------------------------------

    @property
    def pad_id(self) -> int:
        return self._token_to_id[PAD]

    @property
    def unk_id(self) -> int:
        return self._token_to_id[UNK]

    @property
    def bos_id(self) -> int:
        return self._token_to_id[BOS]

    @property
    def eos_id(self) -> int:
        return self._token_to_id[EOS]

    @property
    def mask_id(self) -> int:
        return self._token_to_id[MASK]

    @property
    def num_special(self) -> int:
        """Count of reserved special ids (they occupy ids 0..num_special-1)."""
        return len(SPECIAL_TOKENS)

    def id_of(self, token: str) -> int:
        """Id of ``token``, falling back to ``<unk>``."""
        return self._token_to_id.get(token, self.unk_id)

    def encode(
        self, tokens: list[str], add_special: bool = False
    ) -> list[int]:
        """Token ids, optionally wrapped in ``<s> ... </s>``."""
        lookup, unk = self._token_to_id.get, self.unk_id
        ids = [lookup(t, unk) for t in tokens]
        if add_special:
            return [self.bos_id, *ids, self.eos_id]
        return ids

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def __len__(self) -> int:
        return len(self._id_to_token)

    def tokens(self) -> list[str]:
        """All tokens in id order (includes specials)."""
        return list(self._id_to_token)
