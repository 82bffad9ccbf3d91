"""Token vocabularies with frequency-thresholded unknown handling."""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

UNK = "<unk>"
BOS = "<s>"
EOS = "</s>"
SOURCE_SPECIALS = (UNK,)  # the first tokens of a source vocabulary
TARGET_SPECIALS = (UNK, BOS, EOS)  # the first tokens of a target vocabulary


@dataclass(frozen=True)
class Vocab:
    itos: tuple

    @property
    def stoi(self):
        # cached lazily on the instance despite frozen dataclass
        cache = self.__dict__.get("_stoi")
        if cache is None:
            cache = {tok: i for i, tok in enumerate(self.itos)}
            object.__setattr__(self, "_stoi", cache)
        return cache

    def __len__(self):
        return len(self.itos)

    def index(self, token: str) -> int:
        return self.stoi.get(token, self.stoi[UNK])

    def indices(self, tokens) -> list:
        stoi = self.stoi
        unk = stoi[UNK]
        return [stoi.get(t, unk) for t in tokens]

    def token(self, index: int) -> str:
        return self.itos[index]

    @classmethod
    def build(cls, token_iterables, min_freq: int = 1, specials=(UNK,)) -> "Vocab":
        counts = Counter()
        for tokens in token_iterables:
            counts.update(tokens)
        kept = [t for t, c in counts.items() if c >= min_freq and t not in specials]
        kept.sort(key=lambda t: (-counts[t], t))
        return cls(itos=tuple(specials) + tuple(kept))
