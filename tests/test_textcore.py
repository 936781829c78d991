import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from textindex.textcore import Corpus, entropy, minimizers, phrases, printable


class TestCorpus:
    def test_terminator_appended_once(self):
        c = Corpus.from_bytes(b"banana")
        assert c.data == b"banana\x00"
        assert c.n == 7
        assert c.text == b"banana"

    def test_zero_byte_rejected(self):
        with pytest.raises(ValueError):
            Corpus.from_bytes(b"ba\x00nana")

    def test_empty_text_allowed(self):
        assert Corpus.from_bytes(b"").n == 1

    def test_printable(self):
        assert printable(b"nptr\x00eta") == "nptr$eta"


def grams(text, starts, q):
    """The q-grams at the minimizer positions `starts`."""
    return tuple(text[p:p + q] for p in starts.tolist())


def ranges(offsets, lengths):
    """Each phrase's (first, last) position, inclusive."""
    return tuple(zip(offsets.tolist(), (offsets + lengths - 1).tolist()))


def extract(text, offsets, lengths):
    return [text[a:a + m] for a, m in zip(offsets.tolist(), lengths.tolist())]


def brute_force_minimizers(text, alpha, q):
    """Independent re-scan of every window.  Winners never move left, so a
    winner already picked is the last pick."""
    picks = []
    for w in range(len(text) - (q + alpha - 1) + 1):
        best = min(range(w, w + alpha), key=lambda p: (text[p:p + q], p))
        if not picks or best != picks[-1]:
            picks.append(best)
    return picks


SYMBOLS = st.one_of(st.integers(1, 4), st.integers(1, 255))
ALPHABETS = [b"a", b"ab", b"acgt", bytes(range(1, 256))]


@st.composite
def windowed_texts(draw):
    """(text, alpha, q) with the text at least one window long: random
    symbols of one alphabet, or a repeated unit of them, from one window
    (a single position) up to 300 symbols."""
    alpha, q = draw(st.integers(1, 16)), draw(st.integers(1, 20))
    symbols = st.sampled_from(draw(st.sampled_from(ALPHABETS)))
    window = q + alpha - 1
    m = draw(st.one_of(st.just(window), st.just(window + 1),
                       st.integers(window, 300)))
    if draw(st.booleans()):
        unit = bytes(draw(st.lists(symbols, min_size=1, max_size=12)))
        text = (unit * (m // len(unit) + 1))[:m]
    else:
        text = bytes(draw(st.lists(symbols, min_size=m, max_size=m)))
    return text, alpha, q


class TestMinimizers:
    def test_texting_3_2(self):
        starts = minimizers(b"texting", 3, 2)
        assert starts.dtype == np.int64
        assert tuple(zip(starts.tolist(), grams(b"texting", starts, 2))) == \
            ((1, b"ex"), (4, b"in"))

    def test_appearance_4_2(self):
        starts = minimizers(b"appearance", 4, 2)
        assert tuple(starts.tolist()) == (0, 4, 6)
        assert grams(b"appearance", starts, 2) == (b"ap", b"ar", b"an")

    def test_single_window(self):
        starts = minimizers(b"ab", 1, 2)
        assert tuple(zip(starts.tolist(), grams(b"ab", starts, 2))) == ((0, b"ab"),)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            minimizers(b"abc", 3, 2)

    def test_bad_arguments_rejected(self):
        for alpha, q in [(0, 2), (1, 0)]:
            with pytest.raises(ValueError):
                minimizers(b"abc", alpha, q)

    # Texts of one window to 300 symbols over alphabets of 1 to 255
    # symbols, q up to 20: both key paths of `_window_keys`, direct up to 8
    # symbols and ranked by doubling above.
    @given(windowed_texts())
    @settings(max_examples=600, deadline=None)
    def test_matches_brute_force_on_windowed_texts(self, case):
        text, alpha, q = case
        assert minimizers(text, alpha, q).tolist() == brute_force_minimizers(text, alpha, q)

    # Symbols 1-4, so equal grams are common, mixed with any byte 1-255; a
    # repeated unit makes long grams tie, or differ in a single symbol.  q
    # above 8 ranks the grams by doubling.
    @given(st.one_of(
               st.lists(SYMBOLS, min_size=1, max_size=60).map(bytes),
               st.builds(lambda unit, reps, tail: bytes(unit) * reps + bytes(tail),
                         st.lists(SYMBOLS, min_size=1, max_size=10),
                         st.integers(2, 12), st.lists(SYMBOLS, max_size=10))),
           st.integers(1, 5), st.integers(1, 20))
    @settings(max_examples=500)
    def test_window_law(self, text, alpha, q):
        if len(text) < q + alpha - 1:
            return
        positions = minimizers(text, alpha, q).tolist()
        assert positions == brute_force_minimizers(text, alpha, q)
        # per-window minimality, leftmost on ties
        for w in range(len(text) - (q + alpha - 1) + 1):
            inside = [p for p in positions if w <= p <= w + alpha - 1]
            assert inside, f"window {w} has no minimizer"
            winner = min(range(w, w + alpha), key=lambda p: (text[p:p + q], p))
            assert winner in inside

    def test_long_grams_on_repeats(self):
        # Grams over 8 symbols that tie, or differ only in their last or
        # ninth symbol, within one window: repeated units with one changed
        # symbol.
        rng = random.Random(77)
        for _ in range(400):
            unit = bytes(rng.randint(1, 3) for _ in range(rng.randint(1, 9)))
            text = bytearray(unit * (40 // len(unit) + 1))
            text[rng.randrange(len(text))] = rng.randint(1, 3)
            text = bytes(text)
            alpha, q = rng.randint(1, 5), rng.randint(9, 20)
            assert minimizers(text, alpha, q).tolist() == \
                brute_force_minimizers(text, alpha, q)

    def test_shared_minimizer_guarantee(self):
        # two strings sharing a window-length substring share a minimizer gram
        rng = random.Random(1234)
        alpha, q = 3, 2
        need = q + alpha - 1
        failures = 0
        for _ in range(10_000):
            common = bytes(rng.choice(b"ab") for _ in range(rng.randint(need, need + 4)))
            s1 = bytes(rng.choice(b"ab") for _ in range(rng.randint(0, 6))) + common \
                + bytes(rng.choice(b"ab") for _ in range(rng.randint(0, 6)))
            s2 = bytes(rng.choice(b"ab") for _ in range(rng.randint(0, 6))) + common \
                + bytes(rng.choice(b"ab") for _ in range(rng.randint(0, 6)))
            g1 = set(grams(s1, minimizers(s1, alpha, q), q))
            g2 = set(grams(s2, minimizers(s2, alpha, q), q))
            if not g1 & g2:
                failures += 1
        assert failures == 0


class TestMinimizerPasses:
    """`minimizers` moves each window's winning position beside the keys,
    in the smallest unsigned dtype that holds every position, through
    differences that wrap; it must pick the brute-force winners."""

    @staticmethod
    def texts(n, seed):
        rng = random.Random(seed)
        yield bytes(rng.choice(b"ab") for _ in range(n))
        yield bytes(rng.choice(b"\x01\xfe\xff") for _ in range(n))
        yield bytes(rng.randint(1, 255) for _ in range(n))

    # q = 7: count = n - 6 grams, whose positions fit u8 up to n = 262
    # and need u16 from n = 263 on.
    @pytest.mark.parametrize("n", range(250, 266))
    def test_across_the_u8_position_boundary(self, n):
        for text in self.texts(n, seed=n):
            for alpha in range(1, 17):
                assert minimizers(text, alpha, 7).tolist() == \
                    brute_force_minimizers(text, alpha, 7)

    @pytest.mark.parametrize("q", range(1, 10))
    def test_grams_of_byte_255(self, q):
        # Runs of 255, the largest key byte, next to 254 and 1, so that the
        # top bits of a key decide and ties between 255-grams are broken by
        # position alone.
        rng = random.Random(q)
        for _ in range(20):
            text = b"".join(bytes([rng.choice(b"\x01\xfe\xff")]) * rng.randint(1, 12)
                            for _ in range(12))
            for alpha in (1, 2, 3, 5, 8, 16):
                if len(text) >= q + alpha - 1:
                    assert minimizers(text, alpha, q).tolist() == \
                        brute_force_minimizers(text, alpha, q)

    @pytest.mark.parametrize("q", [2, 4, 8, 12])
    def test_alpha_up_to_16(self, q):
        rng = random.Random(16 + q)
        text = bytes(rng.choice(b"acgt") for _ in range(400))
        for alpha in range(1, 17):
            assert minimizers(text, alpha, q).tolist() == \
                brute_force_minimizers(text, alpha, q)

    @pytest.mark.parametrize("alpha", [2, 3, 8, 16])
    def test_u32_positions(self, alpha):
        # Over 65,536 grams, so the positions and their wrapping differences
        # are u32.
        rng = random.Random(alpha)
        n = 3 * 65536 + 1000
        for symbols in (b"ab", b"acgt"):
            text = bytes(rng.choice(symbols) for _ in range(n))
            assert minimizers(text, alpha, 4).tolist() == \
                brute_force_minimizers(text, alpha, 4)

    @pytest.mark.parametrize("q", [4, 8])
    def test_memory_does_not_grow_with_alpha(self, q):
        # No pass may copy the (n, alpha) windows, so the traced peak stays
        # level across alpha, for keys of 4 bytes and of 8.
        rng = random.Random(64)
        text = bytes(rng.choice(b"acgt") for _ in range(64 * 1024))
        peaks = []
        for alpha in range(2, 17):
            tracemalloc.start()
            try:
                minimizers(text, alpha, q)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) <= 1.5 * min(peaks)


class TestPhrases:
    def test_appearance(self):
        text = b"appearance"
        offsets, lengths = phrases(text, minimizers(text, 4, 2))
        assert ranges(offsets, lengths) == ((0, 3), (4, 5))
        assert extract(text, offsets, lengths) == [b"appe", b"ar"]

    def test_single_minimizer_yields_no_phrases(self):
        assert ranges(*phrases(b"ab", minimizers(b"ab", 1, 2))) == ()

    def test_texting_phrases(self):
        text = b"texting"
        offsets, lengths = phrases(text, minimizers(text, 3, 2))
        assert ranges(offsets, lengths) == ((1, 3),)
        assert extract(text, offsets, lengths) == [b"ext"]

    def test_empty_positions_rejected(self):
        with pytest.raises(ValueError):
            phrases(b"text", np.empty(0, dtype=np.int64))

    @pytest.mark.parametrize("longest, dtype", [(255, np.uint8), (256, np.uint16),
                                                (65536, np.uint32)])
    def test_lengths_narrowed(self, longest, dtype):
        starts = np.array([0, 1, 1 + longest], dtype=np.int64)
        offsets, lengths = phrases(bytes(2 + longest), starts)
        assert offsets.tolist() == [0, 1] and lengths.tolist() == [1, longest]
        assert lengths.dtype == dtype

    def test_length_mismatch_rejected(self):
        mset = minimizers(b"texting", 3, 2)
        with pytest.raises(ValueError):
            phrases(b"text", mset)

    @given(st.lists(st.integers(1, 3), min_size=6, max_size=60).map(bytes))
    @settings(max_examples=200)
    def test_coverage(self, text):
        pos = minimizers(text, 3, 2)
        joined = b"".join(extract(text, *phrases(text, pos)))
        assert joined == text[pos[0]:pos[-1]]


class TestEntropy:
    def test_fair_coin(self):
        assert entropy({0x61: 5, 0x62: 5}) == pytest.approx(1.0)

    def test_single_symbol(self):
        assert entropy({0x61: 9, 0x62: 0}) == 0.0

    def test_mississippi(self):
        table = Counter(b"mississippi")
        # direct evaluation of the formula
        counts = {b: b"mississippi".count(bytes([b])) for b in set(b"mississippi")}
        total = sum(counts.values())
        expected = -sum((c / total) * math.log2(c / total) for c in counts.values())
        assert entropy(table) == pytest.approx(expected)
        assert entropy(table) == pytest.approx(1.823067982273661)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            entropy(Counter())
        with pytest.raises(ValueError):
            entropy({0x61: 0})

    def test_probabilities_sum_to_one(self):
        # each probability is a count over the counts' total, so scaling
        # every count leaves the entropy as it is
        counts = Counter(b"abracadabra")
        assert entropy({sym: 7 * c for sym, c in counts.items()}) == pytest.approx(entropy(counts))
