import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from textindex.textcore import (Corpus, FrequencyTable, entropy, extract_qgrams,
                                minimizers, phrases, printable)


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


class TestQGrams:
    def test_2grams_of_texting(self):
        grams = [r.extract(b"texting") for r in extract_qgrams(b"texting", 2)]
        assert grams == [b"te", b"ex", b"xt", b"ti", b"in", b"ng"]

    def test_3grams_of_texting(self):
        grams = [r.extract(b"texting") for r in extract_qgrams(b"texting", 3)]
        assert grams == [b"tex", b"ext", b"xti", b"tin", b"ing"]

    def test_q_equal_to_length(self):
        grams = [r.extract(b"texting") for r in extract_qgrams(b"texting", 7)]
        assert grams == [b"texting"]

    @pytest.mark.parametrize("q", [0, 8])
    def test_out_of_range_q(self, q):
        with pytest.raises(ValueError):
            extract_qgrams(b"texting", q)

    @given(st.binary(min_size=1, max_size=64), st.data())
    def test_count_law(self, text, data):
        q = data.draw(st.integers(min_value=1, max_value=len(text)))
        refs = extract_qgrams(text, q)
        assert len(refs) == len(text) - q + 1
        assert [r.start for r in refs] == list(range(len(text) - q + 1))


def brute_force_minimizers(text, alpha, q):
    """Independent re-scan of every window."""
    picks = []
    for w in range(len(text) - (q + alpha - 1) + 1):
        best = min(range(w, w + alpha), key=lambda p: (text[p:p + q], p))
        if best not in picks:
            picks.append(best)
    return picks


SYMBOLS = st.one_of(st.integers(1, 4), st.integers(1, 255))


class TestMinimizers:
    def test_texting_3_2(self):
        mset = minimizers(b"texting", 3, 2)
        assert mset.entries == ((1, b"ex"), (4, b"in"))

    def test_appearance_4_2(self):
        mset = minimizers(b"appearance", 4, 2)
        assert mset.positions == (0, 4, 6)
        assert mset.grams == (b"ap", b"ar", b"an")

    def test_single_window(self):
        assert minimizers(b"ab", 1, 2).entries == ((0, b"ab"),)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            minimizers(b"abc", 3, 2)

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
        mset = minimizers(text, alpha, q)
        assert list(mset.positions) == brute_force_minimizers(text, alpha, q)
        # per-window minimality, leftmost on ties
        for w in range(len(text) - (q + alpha - 1) + 1):
            inside = [p for p in mset.positions if w <= p <= w + alpha - 1]
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
            assert list(minimizers(text, alpha, q).positions) == \
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
            g1 = set(minimizers(s1, alpha, q).grams)
            g2 = set(minimizers(s2, alpha, q).grams)
            if not g1 & g2:
                failures += 1
        assert failures == 0


class TestPhrases:
    def test_appearance(self):
        text = b"appearance"
        dec = phrases(text, minimizers(text, 4, 2))
        assert dec.ranges == ((0, 3), (4, 5))
        assert dec.extract(text) == [b"appe", b"ar"]

    def test_single_minimizer_yields_no_phrases(self):
        dec = phrases(b"ab", minimizers(b"ab", 1, 2))
        assert dec.ranges == ()

    def test_texting_phrases(self):
        text = b"texting"
        dec = phrases(text, minimizers(text, 3, 2))
        assert dec.ranges == ((1, 3),)
        assert dec.extract(text) == [b"ext"]

    def test_length_mismatch_rejected(self):
        mset = minimizers(b"texting", 3, 2)
        with pytest.raises(ValueError):
            phrases(b"text", mset)

    @given(st.lists(st.integers(1, 3), min_size=6, max_size=60).map(bytes))
    @settings(max_examples=200)
    def test_coverage(self, text):
        mset = minimizers(text, 3, 2)
        dec = phrases(text, mset)
        joined = b"".join(dec.extract(text))
        pos = mset.positions
        assert joined == text[pos[0]:pos[-1]]


class TestEntropy:
    def test_fair_coin(self):
        assert entropy(FrequencyTable({0x61: 5, 0x62: 5})) == pytest.approx(1.0)

    def test_single_symbol(self):
        assert entropy(FrequencyTable({0x61: 9})) == 0.0

    def test_mississippi(self):
        table = FrequencyTable.from_bytes(b"mississippi")
        # direct evaluation of the formula
        counts = {b: b"mississippi".count(bytes([b])) for b in set(b"mississippi")}
        total = sum(counts.values())
        expected = -sum((c / total) * math.log2(c / total) for c in counts.values())
        assert entropy(table) == pytest.approx(expected)
        assert entropy(table) == pytest.approx(1.823067982273661)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            entropy(FrequencyTable({}))

    def test_probabilities_sum_to_one(self):
        table = FrequencyTable.from_bytes(b"abracadabra")
        assert sum(table.probabilities().values()) == pytest.approx(1.0, abs=1e-9)
