import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from textindex import suffixbwt
from textindex.errors import MalformedInputError
from textindex.textcore import Corpus, printable
from textindex.suffixbwt import (FmIndex, RankIndex, build_count_table,
                                 build_suffix_array, bwt_forward, bwt_inverse)


def naive_suffix_array(corpus):
    return sorted(range(corpus.n), key=lambda i: corpus.data[i:])


def rotation_sort_bwt(corpus):
    data = corpus.data
    rotations = sorted(data[i:] + data[:i] for i in range(len(data)))
    return bytes(r[-1] for r in rotations)


def naive_count(text, pattern):
    return sum(1 for s in range(len(text) - len(pattern) + 1)
               if text[s:s + len(pattern)] == pattern)


class TestSuffixArray:
    def test_banana(self):
        sa = build_suffix_array(Corpus.from_bytes(b"banana"))
        assert list(sa) == [6, 5, 3, 1, 0, 4, 2]

    def test_terminator_only(self):
        assert list(build_suffix_array(Corpus.from_bytes(b""))) == [0]

    def test_mississippi_matches_naive(self):
        c = Corpus.from_bytes(b"mississippi")
        assert list(build_suffix_array(c)) == naive_suffix_array(c)

    def test_permutation_and_sortedness(self):
        rng = random.Random(5)
        for _ in range(20):
            raw = bytes(rng.choice(b"abc") for _ in range(rng.randint(1, 80)))
            c = Corpus.from_bytes(raw)
            sa = list(build_suffix_array(c))
            assert sorted(sa) == list(range(c.n))
            for i in range(len(sa) - 1):
                assert c.data[sa[i]:] < c.data[sa[i + 1]:]

    def test_doubling_path_matches_naive(self):
        # a long binary text needs several doubling rounds
        rng = random.Random(6)
        raw = bytes(rng.choice(b"ab") for _ in range(2000))
        c = Corpus.from_bytes(raw)
        assert list(build_suffix_array(c)) == naive_suffix_array(c)

    @pytest.mark.parametrize("alphabet", [b"a", b"ab", b"acgt", bytes(range(1, 256)),
                                          bytes(range(128, 256))])
    def test_random_texts_match_naive(self, alphabet):
        # n from 1 to 3,000: one symbol repeated, small alphabets with long
        # shared prefixes, and bytes 128-255, whose packed words set the
        # top bit
        rng = random.Random(len(alphabet))
        for n in [1, 2, 7, 8, 9, 15, 16, 17, 100, 1000, 3000] + [
                rng.randint(1, 3000) for _ in range(4)]:
            raw = bytes(rng.choice(alphabet) for _ in range(n - 1))
            c = Corpus.from_bytes(raw)
            assert list(build_suffix_array(c)) == naive_suffix_array(c)

    def test_size_limit(self, monkeypatch):
        # SA entries are stored as u32 and the doubling key must fit int64;
        # the limit is lowered so no 2 GiB corpus is needed
        monkeypatch.setattr(suffixbwt, "SA_LIMIT", 10)
        assert list(build_suffix_array(Corpus.from_bytes(b"abracada"))) == \
            naive_suffix_array(Corpus.from_bytes(b"abracada"))
        with pytest.raises(ValueError, match="limit of 9 symbols"):
            build_suffix_array(Corpus.from_bytes(b"abracadab"))


class TestBwt:
    def test_pattern(self):
        c = Corpus.from_bytes(b"pattern")
        assert printable(bwt_forward(c)) == "nptr$eta"

    def test_terminator_only(self):
        c = Corpus.from_bytes(b"")
        assert bwt_forward(c) == b"\x00"

    def test_mississippi_matches_rotation_sort(self):
        c = Corpus.from_bytes(b"mississippi")
        l = bwt_forward(c)
        assert l == rotation_sort_bwt(c)
        assert printable(l) == "ipssm$pissii"

    def test_length_mismatch_rejected(self):
        c = Corpus.from_bytes(b"banana")
        with pytest.raises(ValueError):
            bwt_forward(c, build_suffix_array(Corpus.from_bytes(b"ban")))

    def test_inverse_of_pattern(self):
        assert bwt_inverse(b"nptr\x00eta").text == b"pattern"

    def test_inverse_requires_single_terminator(self):
        with pytest.raises(MalformedInputError):
            bwt_inverse(b"abc")
        with pytest.raises(MalformedInputError):
            bwt_inverse(b"a\x00b\x00")

    def test_bwt_sa_relation(self):
        c = Corpus.from_bytes(b"pattern")
        sa = build_suffix_array(c)
        l = bwt_forward(c, sa)
        for i in range(c.n):
            assert l[i] == c.data[(sa[i] - 1) % c.n]

    @given(st.lists(st.integers(1, 26), min_size=0, max_size=200).map(bytes))
    @settings(max_examples=300)
    def test_round_trip(self, raw):
        c = Corpus.from_bytes(raw)
        assert bwt_inverse(bwt_forward(c)).data == c.data


class TestCountTable:
    def test_mississippi(self):
        table = build_count_table(Corpus.from_bytes(b"mississippi"))
        assert table == {0: 0, ord("i"): 1, ord("m"): 5, ord("p"): 6, ord("s"): 8}

    def test_uniform(self):
        assert build_count_table(Corpus.from_bytes(b"aaaa")) == {0: 0, ord("a"): 1}

    def test_banana(self):
        table = build_count_table(Corpus.from_bytes(b"banana"))
        assert table == {0: 0, ord("a"): 1, ord("b"): 4, ord("n"): 5}

    def test_adjacency_law(self):
        c = Corpus.from_bytes(b"abracadabra")
        table = build_count_table(c)
        symbols = sorted(table)
        for lo, hi in zip(symbols, symbols[1:]):
            assert table[hi] - table[lo] == c.data.count(lo)


class TestRank:
    def test_empty_prefix(self):
        idx = RankIndex(b"nptr\x00eta")
        assert idx.rank(ord("t"), -1) == 0

    def test_worked_value(self):
        idx = RankIndex(b"nptr\x00eta")
        assert idx.rank(ord("t"), 7) == 2

    def test_out_of_range(self):
        idx = RankIndex(b"abc")
        with pytest.raises(IndexError):
            idx.rank(ord("a"), 3)

    def test_absent_symbol(self):
        idx = RankIndex(b"abc")
        assert idx.rank(ord("z"), 2) == 0

    def test_total_count(self):
        l = b"ipssm\x00pissii"
        idx = RankIndex(l)
        for sym in set(l):
            assert idx.rank(sym, len(l) - 1) == l.count(sym)

    def test_matches_linear_scan(self):
        rng = random.Random(11)
        for _ in range(30):
            l = bytes(rng.choice(b"abcd") for _ in range(rng.randint(1, 400)))
            idx = RankIndex(l)
            for _ in range(200):
                sym = rng.choice(b"abcde")
                i = rng.randrange(-1, len(l))
                assert idx.rank(sym, i) == l[:i + 1].count(sym)


    def test_samples_match_per_symbol_cumsum(self):
        # the one-pass sample build against one cumsum per symbol, for n
        # below, at and off multiples of the stride, and up to 255 symbols
        rng = random.Random(19)
        alphabets = [b"a", b"\x00ab", b"acgt", bytes(range(1, 27)), bytes(range(255))]
        texts = [bytes(rng.choice(alphabets[n % 5]) for _ in range(n)) for n in range(1, 1001)]
        texts.append(bytes(rng.sample(range(256), 256) * 3)[:700])
        for l in texts:
            arr = np.frombuffer(l, dtype=np.uint8)
            block_starts = np.arange(0, len(l), RankIndex.STRIDE)
            expected = {}
            for sym in set(l):
                cum = np.concatenate([[0], np.cumsum(arr == sym)])
                expected[sym] = cum[block_starts].tolist()
            samples = RankIndex(l)._samples
            assert {sym: sampled.tolist() for sym, sampled in samples.items()} == expected


class TestFmCount:
    def test_banana_single_symbol(self):
        fm = FmIndex.build(Corpus.from_bytes(b"banana"))
        assert fm.count(b"a") == 3

    def test_banana_ana(self):
        fm = FmIndex.build(Corpus.from_bytes(b"banana"))
        assert fm.count(b"ana") == 2

    def test_absent_symbols(self):
        fm = FmIndex.build(Corpus.from_bytes(b"banana"))
        assert fm.count(b"xyz") == 0

    def test_pattern_longer_than_text(self):
        fm = FmIndex.build(Corpus.from_bytes(b"ab"))
        assert fm.count(b"abab") == 0

    def test_empty_pattern_rejected(self):
        fm = FmIndex.build(Corpus.from_bytes(b"ab"))
        with pytest.raises(ValueError):
            fm.count(b"")

    def test_terminator_in_pattern_rejected(self):
        fm = FmIndex.build(Corpus.from_bytes(b"ab"))
        with pytest.raises(ValueError):
            fm.count(b"a\x00")

    def test_matches_naive_on_random_texts(self):
        rng = random.Random(13)
        for _ in range(40):
            raw = bytes(rng.choice(b"ab") for _ in range(rng.randint(4, 300)))
            fm = FmIndex.build(Corpus.from_bytes(raw))
            for _ in range(50):
                m = rng.randint(1, 8)
                if rng.random() < 0.6:
                    s = rng.randrange(len(raw) - m + 1) if len(raw) >= m else 0
                    pattern = raw[s:s + m] or b"a"
                else:
                    pattern = bytes(rng.choice(b"abc") for _ in range(m))
                assert fm.count(pattern) == naive_count(raw, pattern)
