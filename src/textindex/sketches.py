"""Fixed-width bit signatures for constant-time Hamming-distance screening.

A sketch condenses which tracked symbols occur in a word (occurrence mode)
or how often they occur, saturating at 3 (count mode, two bits per symbol).
Two sketches are compared by the Hamming weight of their xor, which for
occurrence sketches of 1-grams yields a lower bound on the true distance:
one substitution changes at most two occurrence bits, so
Ham >= ceil(weight / 2).  Count sketches underestimate differences (a count
gap of 2 can flip a single bit), so they only support rejecting unequal
words when no mismatch at all is allowed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .textcore import ENGLISH_LETTER_FREQUENCIES

OCCURRENCE = "occurrence"
COUNT = "count"

_COUNT_SATURATION = 3


@dataclass(frozen=True)
class SketchConfig:
    """Sketch shape: mode, tracked 1-grams and width in bytes.

    Occurrence mode tracks width*8 grams (one bit each); count mode tracks
    width*4 grams (two bits each, saturating at 3).
    """

    mode: str
    grams: tuple[int, ...]
    width: int = 2

    def __post_init__(self):
        if self.mode not in (OCCURRENCE, COUNT):
            raise ValueError(f"unknown sketch mode {self.mode!r}")
        expected = self.width * 8 if self.mode == OCCURRENCE else self.width * 4
        if len(self.grams) != expected:
            raise ValueError(
                f"{self.mode} sketches of width {self.width} track exactly "
                f"{expected} grams, got {len(self.grams)}")
        if len(set(self.grams)) != len(self.grams):
            raise ValueError("tracked grams must be unique")
        # Each `build_sketch` cache lookup hashes its config, so the fields
        # are hashed once, here, and `__hash__` reads the result back.
        object.__setattr__(self, "_hash", hash((self.mode, self.grams, self.width)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def from_letters(cls, letters: bytes, mode: str = OCCURRENCE, width: int = 2) -> "SketchConfig":
        return cls(mode=mode, grams=tuple(letters), width=width)

    @classmethod
    def from_policy(cls, policy: str, mode: str = OCCURRENCE, width: int = 2) -> "SketchConfig":
        """Pick tracked letters by frequency policy over English text: the
        most common ones, the least common ones, or half of each."""
        slots = width * 8 if mode == OCCURRENCE else width * 4
        common = {"most-common": slots, "least-common": 0, "mixed": slots // 2}.get(policy)
        if common is None:
            raise ValueError(f"unknown policy {policy!r}; use most-common, "
                             "least-common, mixed or an explicit gram list")
        ranked = "".join(ENGLISH_LETTER_FREQUENCIES).encode()  # most common first
        if not 0 <= slots <= len(ranked):
            raise ValueError(f"letter count {slots} outside 0..{len(ranked)}")
        letters = ranked[:common] + ranked[len(ranked) - (slots - common):]
        return cls.from_letters(letters, mode=mode, width=width)


@dataclass(frozen=True)
class Sketch:
    """A word's bit signature under a given config."""

    bits: int
    config: SketchConfig

    def bitstring(self) -> str:
        """Bits in tracked-gram order, first gram first."""
        if self.config.mode == OCCURRENCE:
            slots = len(self.config.grams)
            return "".join("1" if self.bits >> i & 1 else "0" for i in range(slots))
        slots = len(self.config.grams)
        return "".join(format(self.bits >> (2 * i) & 3, "02b") for i in range(slots))


@lru_cache(maxsize=1 << 16)
def build_sketch(word: bytes, config: SketchConfig) -> Sketch:
    """Deterministic sketch of `word`; untracked symbols are ignored."""
    bits = 0
    if config.mode == OCCURRENCE:
        present = set(word)
        for i, gram in enumerate(config.grams):
            if gram in present:
                bits |= 1 << i
    else:
        for i, gram in enumerate(config.grams):
            count = word.count(gram)
            if count:
                bits |= min(count, _COUNT_SATURATION) << (2 * i)
    return Sketch(bits=bits, config=config)


def sketch_distance(s1: Sketch, s2: Sketch) -> int:
    """Hamming weight of the xor of two sketches built under the same config."""
    if s1.config is not s2.config and s1.config != s2.config:
        raise ValueError("sketches built under different configs are not comparable")
    return (s1.bits ^ s2.bits).bit_count()


def hamming_lower_bound(sketch_diff: int) -> int:
    """ceil(diff / 2): the least true Hamming distance an occurrence-sketch
    difference of `diff` permits.  A negative `diff` raises `ValueError`."""
    if sketch_diff < 0:
        raise ValueError(f"sketch difference {sketch_diff} is negative")
    return (sketch_diff + 1) // 2


def filtered_compare(w1: bytes, w2: bytes, k: int, config: SketchConfig) -> bool:
    """Is Ham(w1, w2) <= k?  Sketches may reject early but never accept early,
    so the answer always equals the direct comparison."""
    if len(w1) != len(w2):
        raise ValueError("Hamming comparison requires equal lengths")
    diff = sketch_distance(build_sketch(w1, config), build_sketch(w2, config))
    if config.mode == OCCURRENCE:
        if hamming_lower_bound(diff) > k:
            return False
    else:
        # Count differences underestimate; only the "any difference at all"
        # signal is sound, which settles k = 0 rejections.
        if k == 0 and diff > 0:
            return False
    # The mismatches are the nonzero bytes of the words' XOR, counted at C
    # level: the length less the zero bytes.
    xor = int.from_bytes(w1, "big") ^ int.from_bytes(w2, "big")
    return len(w1) - xor.to_bytes(len(w1), "big").count(0) <= k
