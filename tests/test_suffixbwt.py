import random
import tracemalloc

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


def fibonacci_word(n):
    """The Fibonacci word over a and b, at least n symbols long."""
    a, b = b"a", b"ab"
    while len(b) < n:
        a, b = b, b + a
    return b


def rotation_sort_bwt(corpus):
    data = corpus.data
    rotations = sorted(data[i:] + data[:i] for i in range(len(data)))
    return bytes(r[-1] for r in rotations)


def present(table):
    """The symbols that a 257-entry count table C holds, each keyed to C[c]:
    c occurs exactly when C[c] < C[c + 1]."""
    assert len(table) == 257
    return {c: table[c] for c in range(256) if table[c] < table[c + 1]}


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

    @pytest.mark.parametrize("alphabet", [
        b"a", b"ab", b"acgt", bytes(range(1, 256)), bytes(range(128, 256)),
        *(bytes(range(257 - sigma, 256)) for sigma in (3, 4, 5, 8, 9, 16, 17, 32, 33, 128))])
    def test_random_texts_match_naive(self, alphabet):
        # n from 1 to 3,000, across powers of two: one symbol repeated,
        # small alphabets with long shared prefixes, bytes 128-255, and
        # the top sigma - 1 bytes for sigma (terminator included) on each
        # side of a power of two (b"a" and the two byte ranges give sigma
        # 2, 256 and 129); n and sigma set the digits per first key
        rng = random.Random(len(alphabet))
        for n in [1, 2, 7, 8, 9, 15, 16, 17, 100, 1000, 3000] + [
                rng.randint(1, 3000) for _ in range(4)]:
            raw = bytes(rng.choice(alphabet) for _ in range(n - 1))
            c = Corpus.from_bytes(raw)
            assert list(build_suffix_array(c)) == naive_suffix_array(c)

    def test_returns_int64(self):
        # bwt_forward reads sa - 1, which wraps on an unsigned array
        assert build_suffix_array(Corpus.from_bytes(b"banana")).dtype == np.int64

    @pytest.mark.parametrize("buffer", [bytearray, memoryview])
    def test_corpus_over_any_buffer(self, buffer):
        # a superlinear load sorts a corpus sliced out of the file bytes,
        # which the caller may pass as any buffer
        data = b"mississippi\0"
        assert list(build_suffix_array(Corpus(buffer(data)))) == \
            naive_suffix_array(Corpus(data))

    @pytest.mark.parametrize("raw", [
        b"ab" * 1500, b"abc" * 1000, b"ab" * 1500 + b"c", fibonacci_word(3000),
        *(b"a" * k + b"b" + b"a" * k for k in (1, 20, 21, 1000))])
    def test_repetitive_texts_match_naive(self, raw):
        # a suffix stays tied with the others of its period until the
        # terminator is in reach: the most refinement rounds for n
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

    @pytest.mark.parametrize("l", [b"a\x00b", b"ba\x00", b"\x00ab", b"aab\x00b"])
    def test_inverse_refuses_more_than_one_cycle(self, l):
        # each holds one terminator, but its LF mapping splits the rows into
        # more than one cycle ("a$b": rows 0 and 1, and row 2 alone), so it
        # is no text's BWT, and the walk from row 0 meets the terminator
        # before the end
        with pytest.raises(MalformedInputError, match="one cycle"):
            bwt_inverse(l)

    def test_inverse_of_swapped_bytes_refuses_or_round_trips(self):
        # every swap of two different bytes of a real BWT is either refused,
        # or another text's BWT, which then comes back whole
        l = bwt_forward(Corpus.from_bytes(b"mississippi"))
        refused = 0
        for i in range(len(l)):
            for j in range(i + 1, len(l)):
                if l[i] == l[j]:
                    continue
                swapped = bytearray(l)
                swapped[i], swapped[j] = l[j], l[i]
                try:
                    corpus = bwt_inverse(bytes(swapped))
                except MalformedInputError:
                    refused += 1
                    continue
                assert bwt_forward(corpus) == swapped
        assert refused == 41

    @given(st.lists(st.sampled_from(b"abc"), max_size=40).map(bytes), st.randoms())
    @settings(max_examples=300, deadline=None)
    def test_inverse_of_shuffled_bwt_needs_one_lf_cycle(self, body, rng):
        # a shuffled BWT is some text's BWT exactly when its LF mapping, from
        # a naive rank count, is one cycle through all rows
        l = bytearray(bwt_forward(Corpus.from_bytes(body)))
        rng.shuffle(l)
        l = bytes(l)
        first = {c: sum(s < c for s in l) for c in set(l)}
        lf = [first[c] + l[:r].count(c) for r, c in enumerate(l)]
        row, cycle = lf[0], 1
        while row != 0:
            row, cycle = lf[row], cycle + 1
        if cycle < len(l):
            with pytest.raises(MalformedInputError, match="one cycle"):
                bwt_inverse(l)
        else:
            assert bwt_forward(bwt_inverse(l)) == l

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


class TestRowPrefixes:
    def test_prefixes_and_end_rows(self):
        # row r's first k symbols are its suffix's, wrapping past the
        # terminator, and the walk ends at the row k symbols on
        c = Corpus.from_bytes(b"abracadabra")
        sa = build_suffix_array(c)
        isa = suffixbwt.inverse_permutation(sa)
        l = bwt_forward(c, sa)
        rows, lengths = [6, 0, 11, 3], [4, 2, 12, 1]
        prefixes, ends = suffixbwt.row_prefixes(l, suffixbwt.psi_mapping(l), rows, lengths)
        text = c.data * 3
        at = 0
        for row, k, end in zip(rows, lengths, ends):
            assert prefixes[at:at + k].tobytes() == text[sa[row]:sa[row] + k]
            assert end == isa[(sa[row] + k) % c.n]
            at += k

    def test_length_past_the_rows_refused_before_any_pass(self):
        # a Ψ that no pass may read: the length is refused first, so a huge
        # one fails at once rather than after that many passes
        class Unread:
            def __getitem__(self, rows):
                raise AssertionError("row_prefixes read a row")

        l = bwt_forward(Corpus.from_bytes(b"abracadabra"))
        for length in (len(l) + 1, 2**31):
            with pytest.raises(ValueError, match="longer than"):
                suffixbwt.row_prefixes(l, Unread(), [0, 1], [1, length])


class TestCountTable:
    def test_mississippi(self):
        table = present(build_count_table(Corpus.from_bytes(b"mississippi").data))
        assert table == {0: 0, ord("i"): 1, ord("m"): 5, ord("p"): 6, ord("s"): 8}

    def test_uniform(self):
        assert present(build_count_table(Corpus.from_bytes(b"aaaa").data)) == {0: 0, ord("a"): 1}

    def test_banana(self):
        table = present(build_count_table(Corpus.from_bytes(b"banana").data))
        assert table == {0: 0, ord("a"): 1, ord("b"): 4, ord("n"): 5}

    def test_adjacency_law(self):
        c = Corpus.from_bytes(b"abracadabra")
        table = present(build_count_table(c.data))
        symbols = sorted(table)
        for lo, hi in zip(symbols, symbols[1:]):
            assert table[hi] - table[lo] == c.data.count(lo)

    def test_list_form(self):
        # C[c + 1] - C[c] occurrences of every byte c, and C[256] = n
        raw = bytes(range(1, 256)) + b"abracadabra"
        c = Corpus.from_bytes(raw)
        table = build_count_table(c.data)
        assert len(table) == 257 and table[0] == 0 and table[256] == c.n
        assert [hi - lo for lo, hi in zip(table, table[1:])] == [
            c.data.count(symbol) for symbol in range(256)]

    def test_counted_without_a_wide_copy(self):
        # bincount widens what it counts to int64; over the whole text that
        # would trace 8 bytes a symbol
        rng = random.Random(5)
        data = bytes(rng.randint(0, 255) for _ in range(1 << 20))
        tracemalloc.start()
        try:
            table = build_count_table(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * len(data)
        assert [hi - lo for lo, hi in zip(table, table[1:])] == [
            data.count(symbol) for symbol in range(256)]


class TestInversePermutation:
    @pytest.mark.parametrize("n", [0, 1, 2, suffixbwt.BLOCK - 1, suffixbwt.BLOCK,
                                   3 * suffixbwt.BLOCK + 7])
    def test_inverts_across_blocks(self, n):
        perm = np.random.default_rng(n).permutation(n)
        inv = suffixbwt.inverse_permutation(perm)
        assert inv.dtype == np.uint32
        assert (inv[perm] == np.arange(n)).all()


@given(st.binary(max_size=300).map(lambda raw: raw.replace(b"\0", b"")))
@settings(max_examples=200, deadline=None)
def test_fm_count_table_from_the_rank_pass(raw):
    # the FM index reads its count table off the BWT's symbol totals, which
    # must give the corpus's own count table
    c = Corpus.from_bytes(raw)
    assert FmIndex.build(c).count_table == build_count_table(c.data)


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
        # positions outside [-1, n), near and far from both ends
        for n in (1, 63, 64, 65, 200):
            idx = RankIndex(b"a" * n)
            assert idx.rank(ord("a"), n - 1) == n
            for i in (-2, -65, n, n + 1, n + 64):
                with pytest.raises(IndexError):
                    idx.rank(ord("a"), i)

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


    def test_lf_matches_prefix_counts(self):
        # LF against its definition, C[l[i]] + l[:i].count(l[i]), for n
        # from 1 to 1,000 and up to 255 symbols; it is a permutation of
        # range(n), since each row is reached from exactly one other
        rng = random.Random(19)
        alphabets = [b"a", b"\x00ab", b"acgt", bytes(range(1, 27)), bytes(range(255))]
        texts = [bytes(rng.choice(alphabets[n % 5]) for _ in range(n)) for n in range(1, 1001)]
        texts.append(bytes(rng.sample(range(256), 256) * 3)[:700])
        for l in texts:
            lf = RankIndex(l).lf.tolist()
            assert sorted(lf) == list(range(len(l)))
            smaller = {c: sum(x < c for x in l) for c in set(l)}
            assert lf == [smaller[c] + l[:i].count(c) for i, c in enumerate(l)]

    def test_fm_index_ranks_match_prefix_counts(self):
        # the FM index is a RankIndex and ranks through C[c], on the texts
        # and symbols that test_matches_linear_scan walks
        rng = random.Random(11)
        for _ in range(30):
            l = bytes(rng.choice(b"abcd") for _ in range(rng.randint(1, 400)))
            fm, idx = FmIndex(l), RankIndex(l)
            assert isinstance(fm, RankIndex)
            assert fm.lf.tolist() == idx.lf.tolist()
            assert fm.count_table == idx.count_table
            for _ in range(200):
                sym = rng.choice(b"abcde")
                i = rng.randrange(-1, len(l))
                assert fm.rank(sym, i) == idx.rank(sym, i) == l[:i + 1].count(sym)


class TestFmStep:
    WIDTHS = (0, 1, 62, 63, 64, 65)

    @staticmethod
    def intervals(n):
        """Every (s, e) of a few short and medium widths, plus the
        intervals that start at row 0 or end at row n - 1."""
        for width in TestFmStep.WIDTHS:
            for s in range(n - width):
                yield s, s + width
        for e in range(n):
            yield 0, e
        for s in range(n):
            yield s, n - 1

    @staticmethod
    def expected(l, table, s, e, c):
        """The prefix-count interval if c occurs in l[s:e+1], else (0, -1)."""
        if c not in l[s:e + 1]:
            return 0, -1
        return table[c] + l[:s].count(c), table[c] + l[:e + 1].count(c) - 1

    @pytest.mark.parametrize("alphabet", [b"a", b"acgt", bytes(range(1, 256))])
    @pytest.mark.parametrize("n", [1, 2, 33, 63, 64, 65, 2500])
    def test_matches_prefix_counts(self, alphabet, n):
        # a symbol of l[s:e+1] gets the interval that prefix counts give;
        # any other symbol, present elsewhere in the BWT or not, gets (0, -1)
        rng = random.Random(n * 7 + len(alphabet))
        fm = FmIndex.build(Corpus.from_bytes(
            bytes(rng.choice(alphabet) for _ in range(n - 1))))
        l, table = fm.l, present(fm.count_table)
        assert len(l) == n
        arr = np.frombuffer(l, dtype=np.uint8)
        prefix = {c: np.concatenate([[0], np.cumsum(arr == c)]).tolist() for c in table}
        symbols = sorted(table)
        for s, e in self.intervals(n):
            # every symbol of a small alphabet; for 255 symbols, the ones at
            # both ends of the interval and one that rotates with s
            checked = symbols if len(symbols) <= 5 else {
                l[s], l[e], symbols[s % len(symbols)]}
            for c in checked:
                if prefix[c][e + 1] > prefix[c][s]:
                    want = (table[c] + prefix[c][s], table[c] + prefix[c][e + 1] - 1)
                else:
                    want = (0, -1)
                assert fm.step(s, e, c) == want

    @pytest.mark.parametrize("where", ["before", "after", "at_s", "at_e"])
    def test_symbol_only_outside_or_at_the_ends(self, where):
        # 'b' occurs once in the BWT, at row p: only before s, only after e,
        # only at s or only at e.  Outside [s, e] it gives (0, -1).
        fm = FmIndex.build(Corpus.from_bytes(b"a" * 150 + b"b" + b"a" * 149))
        l, table = fm.l, present(fm.count_table)
        p = l.index(b"b")
        s, e = {"before": (p + 1, p + 20), "after": (p - 20, p - 1),
                "at_s": (p, p + 20), "at_e": (p - 20, p)}[where]
        assert 0 <= s <= e < len(l)
        for c in b"\x00ab":
            assert fm.step(s, e, c) == self.expected(l, table, s, e, c)

    @pytest.mark.parametrize("where", ["before", "after"])
    def test_scans_stay_inside_the_interval(self, where):
        # Every find and rfind of a step that does not span all n rows
        # reads only l[s:e+1], even when its symbol occurs only far before
        # s or far after e, or not at all.
        fm = FmIndex.build(Corpus.from_bytes(b"a" * 1500 + b"b" + b"a" * 1500))
        l = fm.l
        p = l.index(b"b")
        calls = []

        class Recording:
            def __len__(self):
                return len(l)

            def find(self, *args):
                calls.append(args[1:])
                return l.find(*args)

            def rfind(self, *args):
                calls.append(args[1:])
                return l.rfind(*args)

        fm.l = Recording()
        n = len(l)
        s, e = (p + 1000, p + 1100) if where == "before" else (p - 1100, p - 1000)
        assert 0 <= s <= e < n
        intervals = [(s, e), (0, n - 2), (1, n - 1), (s, s)]
        for s, e in intervals:
            for c in b"\x00abz":
                calls.clear()
                assert fm.step(s, e, c) == self.expected(l, fm.count_table, s, e, c)
                assert calls, (s, e, c)
                for bounds in calls:
                    assert len(bounds) == 2, (s, e, c, bounds)
                    assert s <= bounds[0] <= bounds[1] <= e + 1, (s, e, c, bounds)
        calls.clear()
        assert fm.step(0, n - 1, ord("b")) == (fm.count_table[ord("b")],) * 2
        assert not calls

    def test_absent_symbol_gives_empty_interval(self):
        fm = FmIndex.build(Corpus.from_bytes(b"acgt" * 40))
        assert fm.step(0, len(fm.l) - 1, ord("x")) == (0, -1)
        assert fm.step(3, 50, ord("x")) == (0, -1)
        assert fm.extend(b"gxa", 0, len(fm.l) - 1) == (0, -1)


class TestFmExtend:
    DEPTH = 7

    @staticmethod
    def folded(fm, segment, s, e):
        """`step` over the segment from its end, up to the first empty
        interval."""
        for symbol in reversed(segment):
            s, e = fm.step(s, e, symbol)
            if s > e:
                break
        return s, e

    @staticmethod
    def segments(fm, corpus, sa, s, absent):
        """The DEPTH symbols that precede row s's suffix, cyclically (so a
        row whose BWT symbol is the terminator gets it), then the same with
        the first, middle or last symbol consumed swapped for another
        symbol of the text, and with an absent symbol in the middle."""
        data, n = corpus.data, corpus.n
        p = int(sa[s])
        preceding = bytes(data[(p - k) % n] for k in range(TestFmExtend.DEPTH, 0, -1))
        segments = [preceding]
        symbols = sorted(present(fm.count_table))
        for at in (len(preceding) - 1, len(preceding) // 2, 0):
            mutated = bytearray(preceding)
            mutated[at] = symbols[(symbols.index(mutated[at]) + 1) % len(symbols)]
            segments.append(bytes(mutated))
        if absent is not None:
            segments.append(preceding[:3] + bytes([absent]) + preceding[3:])
        return segments

    @pytest.mark.parametrize("alphabet", [b"a", b"acgt", bytes(range(1, 256))])
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 2500])
    def test_matches_folded_steps(self, alphabet, n):
        # every interval for small n; every one-row start and the widths
        # of TestFmStep.intervals for n = 2500
        rng = random.Random(n * 11 + len(alphabet))
        corpus = Corpus.from_bytes(bytes(rng.choice(alphabet) for _ in range(n - 1)))
        fm = FmIndex.build(corpus)
        sa = build_suffix_array(corpus)
        inv = suffixbwt.inverse_permutation(sa)
        missing = sorted(set(range(256)) - set(present(fm.count_table)))
        absent = missing[0] if missing else None
        if n <= 65:
            intervals = [(s, e) for s in range(n) for e in range(s, n)]
        else:
            intervals = sorted(set(TestFmStep.intervals(n)))
        one_row = 0
        for s, e in intervals:
            segments = self.segments(fm, corpus, sa, s, absent)
            for segment in segments:
                # an empty result is (0, -1) on both paths
                want = self.folded(fm, segment, s, e)
                assert fm.extend(segment, s, e) == want, (s, e, segment)
            if s == e:
                # the unmutated segment leads to the row of the suffix that
                # starts DEPTH symbols earlier
                row = inv[(int(sa[s]) - self.DEPTH) % n]
                assert fm.extend(segments[0], s, s) == (row, row)
                one_row += 1
        assert one_row == n


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
