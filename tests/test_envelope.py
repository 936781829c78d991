import hashlib
import random
import struct
import sys
import time
import zlib
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from textindex import envelope, fmgram, suffixbwt
from textindex.envelope import (FORMAT_VERSION, deserialize_index, load_index,
                                save_index, serialize_index)
from textindex.errors import MalformedInputError
from textindex.fmgram import LinearIndex, SuperlinearIndex
from textindex.cli import VERIFY_LENGTHS
from textindex.harness import (NaiveHammingSearcher, dna_like_text, english_like_text,
                               naive_count, random_word_dictionary, sample_patterns)
from textindex.splitindex import Dictionary, PieceRuns, SplitIndex, select_qgrams
from textindex.suffixbwt import bwt_inverse
from textindex.textcore import Corpus


@pytest.fixture(scope="module")
def split_pair():
    d = random_word_dictionary(400, seed=21)
    index = SplitIndex.build(d, 2)
    return d, index


class TestRoundTrip:
    def test_split(self, split_pair):
        d, index = split_pair
        clone = deserialize_index(serialize_index(index))
        rng = random.Random(1)
        for _ in range(200):
            w = rng.choice(d.words)
            q = bytearray(w)
            q[rng.randrange(len(q))] = rng.choice(b"abcdefghijklmnopqrstuvwxyz")
            q = bytes(q)
            assert clone.query(q) == index.query(q)

    def test_split_compressed(self):
        d = random_word_dictionary(300, seed=22)
        table = select_qgrams(d, budget=30, lengths=(2,))
        index = SplitIndex.build(d, 1, table)
        clone = deserialize_index(serialize_index(index))
        assert clone.substitution.pairs == table.pairs
        rng = random.Random(2)
        for _ in range(200):
            w = rng.choice(d.words)
            q = bytearray(w)
            q[rng.randrange(len(q))] = rng.choice(b"abcdefghijklmnopqrstuvwxyz")
            assert clone.query(bytes(q)) == index.query(bytes(q))

    def test_superlinear(self):
        corpus = Corpus.from_bytes(english_like_text(3000, seed=23))
        index = SuperlinearIndex.build(corpus, q_max=16)
        clone = deserialize_index(serialize_index(index))
        assert isinstance(clone, SuperlinearIndex)
        rng = random.Random(3)
        for _ in range(300):
            m = rng.randint(1, 24)
            s = rng.randrange(corpus.n - 1 - m)
            pattern = corpus.text[s:s + m]
            assert clone.count(pattern) == index.count(pattern)
            assert clone.count_with_steps(pattern) == index.count_with_steps(pattern)

    def test_linear(self):
        corpus = Corpus.from_bytes(dna_like_text(2000, seed=24))
        index = LinearIndex.build(corpus, alpha=3, q=4)
        clone = deserialize_index(serialize_index(index))
        assert isinstance(clone, LinearIndex)
        assert (clone.alpha, clone.q) == (3, 4)
        # no corpus is kept or stored; the BWT holds the text
        assert not hasattr(index, "corpus") and not hasattr(clone, "corpus")
        assert bwt_inverse(clone.fm.l).data == corpus.data
        rng = random.Random(4)
        for _ in range(200):
            m = rng.randint(6, 30)
            s = rng.randrange(corpus.n - 1 - m)
            pattern = corpus.text[s:s + m]
            assert clone.count(pattern) == index.count(pattern)

    def test_linear_with_empty_directory(self):
        # a corpus that yields a single minimizer stores no phrase lists
        corpus = Corpus.from_bytes(b"ab")
        index = LinearIndex.build(corpus, alpha=1, q=2)
        assert len(index.directory) == 0
        clone = deserialize_index(serialize_index(index))
        assert clone.count(b"ab") == 1

    def test_file_round_trip(self, tmp_path, split_pair):
        _, index = split_pair
        path = tmp_path / "index.bin"
        save_index(index, path)
        clone = load_index(path)
        assert [(key, list(group.items())) for key, group in clone.table.items()] == [
            (key, list(group.items())) for key, group in index.table.items()]

    def test_serialization_is_deterministic(self, split_pair):
        _, index = split_pair
        assert serialize_index(index) == serialize_index(index)

    @pytest.mark.parametrize("build", [
        lambda: SuperlinearIndex.build(Corpus.from_bytes(english_like_text(3000, seed=23)),
                                       q_max=16),
        lambda: LinearIndex.build(Corpus.from_bytes(dna_like_text(2000, seed=24)),
                                  alpha=3, q=4),
        lambda: LinearIndex.build(Corpus.from_bytes(b"ab"), alpha=1, q=2),
    ], ids=["superlinear", "linear", "linear-empty-directory"])
    def test_fm_bytes_round_trip(self, build):
        data = serialize_index(build())
        assert serialize_index(deserialize_index(data)) == data

    @pytest.mark.parametrize("build, table", [
        (lambda: SplitIndex.build(random_word_dictionary(400, seed=21), 2), "table"),
        (lambda: SuperlinearIndex.build(Corpus.from_bytes(english_like_text(3000, seed=23)),
                                        q_max=16), "directory"),
        (lambda: LinearIndex.build(Corpus.from_bytes(dna_like_text(2000, seed=24)),
                                   alpha=3, q=4), "directory"),
    ], ids=["split", "superlinear", "linear"])
    def test_layout_report_and_size_survive_load(self, build, table):
        # No file stores a bucket count: the loaded map works it out again.
        index = build()
        clone = deserialize_index(serialize_index(index))
        assert getattr(clone, table).stats() == getattr(index, table).stats()
        assert clone.size_in_bytes() == index.size_in_bytes()


    @pytest.mark.parametrize("build", [
        lambda: SplitIndex.build(random_word_dictionary(50, seed=27), 2),
        lambda: SuperlinearIndex.build(Corpus.from_bytes(b"abracadabra"), q_max=4),
        lambda: LinearIndex.build(Corpus.from_bytes(b"abracadabra"), alpha=2, q=2),
    ], ids=["split", "superlinear", "linear"])
    def test_load_keeps_no_view_of_the_file(self, build):
        # the payload is parsed in place; nothing loaded may keep the
        # file's bytes alive
        data = serialize_index(build())
        before = sys.getrefcount(data)
        index = deserialize_index(data)
        assert sys.getrefcount(data) == before
        assert serialize_index(index) == data


class TestRejection:
    def test_unknown_magic(self, split_pair):
        _, index = split_pair
        data = bytearray(serialize_index(index))
        data[0] ^= 0xFF
        with pytest.raises(MalformedInputError):
            deserialize_index(bytes(data))

    @pytest.mark.parametrize("version", [*range(1, FORMAT_VERSION), FORMAT_VERSION + 1])
    def test_unknown_version(self, split_pair, version):
        _, index = split_pair
        data = bytearray(serialize_index(index))
        data[4] = version
        with pytest.raises(MalformedInputError):
            deserialize_index(bytes(data))

    def test_flipped_payload_byte(self, split_pair):
        _, index = split_pair
        data = bytearray(serialize_index(index))
        rng = random.Random(5)
        for _ in range(20):
            at = rng.randrange(9, len(data))
            corrupted = bytearray(data)
            corrupted[at] ^= 0x01
            with pytest.raises(MalformedInputError):
                deserialize_index(bytes(corrupted))

    def test_truncated(self, split_pair):
        _, index = split_pair
        data = serialize_index(index)
        with pytest.raises(MalformedInputError):
            deserialize_index(data[:5])

    def test_garbage(self):
        with pytest.raises(MalformedInputError):
            deserialize_index(b"not an index")


def _resign(data: bytearray) -> bytes:
    """The envelope with its CRC recomputed over the (altered) payload."""
    data[5:9] = struct.pack("<I", zlib.crc32(bytes(data[9:])) & 0xFFFFFFFF)
    return bytes(data)


class TestDirectoryStructure:
    """Files with a valid CRC but a wrong structure are refused at load.
    Only linear files store a gram directory."""

    # Gram ids, by length and then by first row: "ac" (row 4), "ad" (row 5)
    # and "br" (rows 6 and 7).
    AC, AD, BR = 0, 1, 2

    @staticmethod
    def _linear():
        # grams "ac", "ad" and "br" (rows 1 and 4); BWT "ard$rcaaaabb"
        return LinearIndex.build(Corpus.from_bytes(b"abracadabra"), alpha=2, q=2)

    @staticmethod
    def _columns_at(index) -> int:
        # envelope, alpha, q, BWT blob, gram count; then the lengths,
        # firsts, counts and rows columns, 4 bytes an item
        return 9 + 4 + 4 + 4 + len(index.fm.l) + 4

    @classmethod
    def _item_at(cls, index, column: int, item: int) -> int:
        return cls._columns_at(index) + 4 * (column * len(index.directory) + item)

    def _refused(self, index, column: int, item: int, value: int, match=None):
        at = self._item_at(index, column, item)
        data = bytearray(serialize_index(index))
        data[at:at + 4] = struct.pack("<I", value)
        with pytest.raises(MalformedInputError, match=match):
            deserialize_index(_resign(data))

    def _directory_refused(self, index, lengths, firsts, counts, rows, match):
        # the file's alpha, q and BWT, then these columns in place of its own
        at = self._columns_at(index)
        data = bytearray(serialize_index(index)[:at - 4])
        data += struct.pack(f"<{1 + 3 * len(lengths) + len(rows)}I",
                            len(lengths), *lengths, *firsts, *counts, *rows)
        with pytest.raises(MalformedInputError, match=match):
            deserialize_index(_resign(data))

    def test_layout(self):
        # no corpus and no gram keys: the gram count, then four columns,
        # and each gram's rows follow those of the grams before it
        index = self._linear()
        data = serialize_index(index)
        at = self._columns_at(index)
        assert data[at - 4:at] == struct.pack("<I", 3)
        assert data[at:] == struct.pack("<13I", 2, 2, 2, 4, 5, 6, 1, 1, 2, 5, 2, 1, 4)
        assert data[9 + 4 + 4 + 4:9 + 4 + 4 + 4 + 12] == index.fm.l == b"ard\0rcaaaabb"
        assert index.directory.buffer == b"acadbr"
        assert dict(index.directory) == {b"ac": self.AC, b"ad": self.AD, b"br": self.BR}

    # Column order: lengths, firsts, counts, rows.
    @pytest.mark.parametrize("column, value", [
        (0, 1000),  # the key runs past the text
        (0, 0),     # empty gram
        (1, 12),    # first + count > n
    ])
    def test_gram_entry_out_of_range(self, column, value):
        self._refused(self._linear(), column, self.BR, value, "out of range")

    def test_gram_longer_than_alpha(self):
        # row 6 starts "bra$", but a phrase holds at most alpha (2) symbols
        self._refused(self._linear(), 0, self.BR, 3, "out of range")

    def test_gram_length_refused_before_reading_keys(self):
        # alpha 2**32 - 1 and a gram of 2**31 symbols: the length is refused
        # against the text before any pass reads a key symbol off the BWT
        index = self._linear()
        data = bytearray(serialize_index(index))
        data[9:13] = struct.pack("<I", 2**32 - 1)
        at = self._item_at(index, 0, self.BR)
        data[at:at + 4] = struct.pack("<I", 2**31)
        started = time.perf_counter()
        with pytest.raises(MalformedInputError, match="out of range"):
            deserialize_index(_resign(data))
        assert time.perf_counter() - started < 0.5

    def test_gram_lengths_sum_past_the_text(self):
        # each of the three grams 10 symbols long, which fits in the text,
        # but distinct phrases of one split of an 11-symbol text hold at
        # most 11 symbols between them
        index = self._linear()
        data = bytearray(serialize_index(index))
        data[9:13] = struct.pack("<I", 2**32 - 1)
        at = self._item_at(index, 0, 0)
        data[at:at + 12] = struct.pack("<3I", 10, 10, 10)
        with pytest.raises(MalformedInputError, match="out of range"):
            deserialize_index(_resign(data))

    def test_gram_key_holds_the_terminator(self):
        # "ac" (count 1) moved to row 1, "a$": its key, the first two
        # symbols of that row, holds the terminator
        self._refused(self._linear(), 1, self.AC, 1, "terminator")

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_first_row_moved(self, delta):
        # "br" starts rows 6 and 7; the key is read off the first row, so a
        # range one row off reads "ad" off row 5, which its last row 6 does
        # not start with, or keeps "br" and takes in row 8, which does not
        index = self._linear()
        self._refused(index, 1, self.BR, index.directory.firsts[self.BR] + delta, "rows differ")

    @pytest.mark.parametrize("item", [0, 1])
    def test_gram_end_rows_not_the_walks(self, item):
        # "br" starts rows 6 and 7, which lead two symbols on to its rows 1
        # and 4; a row between those keeps the rows increasing, but is not
        # where the walk from the first or the last row ends
        index = self._linear()
        rows, lo = index.directory.rows, index.directory.starts[self.BR]
        self._refused(index, 3, lo + item, (rows[lo] + rows[lo + 1]) // 2 + item, "rows differ")

    @pytest.mark.parametrize("kept", [0, 1], ids=["first-row", "last-row"])
    def test_gram_range_one_row_short(self, kept):
        # "br" keeps one of its two rows, 6 and 7, with the row it leads to
        # (1 or 4): the kept row starts with the key and leads to its row,
        # and only its neighbour, which starts with "br" too, shows that the
        # range is short
        built = self._linear()
        directory = built.directory
        assert directory.get(b"br") == self.BR and directory.firsts[self.BR] == 6
        rows = list(directory.rows)
        rows.pop(directory.starts[self.BR] + 1 - kept)
        self._directory_refused(built, directory.lengths.tolist(),
                                [*directory.firsts[:self.BR], 6 + kept], [1, 1, 1], rows,
                                "rows differ")

    def test_gram_range_one_row_long(self):
        # "br" (rows 6 and 7) takes in row 8, "ca...", and the row it leads
        # to, 9: the walks from rows 6 and 8 end at the gram's first and
        # last rows, and the neighbours 5 and 9 do not start with "br", so
        # only the last row's key shows that the range is long
        built = self._linear()
        directory = built.directory
        assert list(directory.rows) == [5, 2, 1, 4]
        self._directory_refused(built, directory.lengths.tolist(), list(directory.firsts),
                                [1, 1, 3], [5, 2, 1, 4, 9], "rows differ")

    # BWT byte 3 is its terminator: overwrite it, or add a second one
    @pytest.mark.parametrize("item, value", [(3, ord("a")), (0, 0)], ids=["none", "two"])
    def test_bwt_without_one_terminator(self, item, value):
        index = self._linear()
        data = bytearray(serialize_index(index))
        data[self._bwt_at(index) + item] = value
        with pytest.raises(MalformedInputError, match="exactly one terminator"):
            deserialize_index(_resign(data))

    def test_terminator_inside_corpus(self):
        index = SuperlinearIndex.build(Corpus.from_bytes(b"abracadabra"))
        # envelope, corpus blob length, then corpus byte 2
        at = 9 + 4 + 2
        data = bytearray(serialize_index(index))
        data[at] = 0
        with pytest.raises(MalformedInputError):
            deserialize_index(_resign(data))

    @settings(max_examples=60, deadline=None)
    @given(text=st.binary(max_size=80).map(lambda b: b.replace(b"\0", b"a")),
           q_max=st.sampled_from([1, 2, 8, 128]))
    def test_derived_gram_lengths(self, text, q_max):
        # a query splits its pattern into power-of-two chunks up to q_max,
        # so a built and a loaded directory list every one of them that
        # fits in the text
        index = SuperlinearIndex.build(Corpus.from_bytes(text), q_max=q_max)
        top = min(q_max, len(text))
        expected = [1 << i for i in range(top.bit_length())]
        for directory in (index.directory,
                          deserialize_index(serialize_index(index)).directory):
            assert sorted(set(directory.lengths.tolist())) == expected

    def test_q_max_past_the_text_loads(self):
        # the text holds 11 symbols, so 8 is the longest gram any q_max >= 8
        # lists, and the index's q_max; such a file answers as its build did
        index = SuperlinearIndex.build(Corpus.from_bytes(b"abracadabra"), q_max=64)
        assert max(index.directory.lengths) == 8
        loaded = deserialize_index(serialize_index(index))
        assert index.q_max == loaded.q_max == 8
        assert loaded.count(b"abracadabra") == 1

    def test_repeated_gram(self):
        # a fourth gram with "br"'s length, first row and rows
        built = self._linear()
        directory = built.directory
        rows = list(directory.rows)
        self._directory_refused(built, [2, 2, 2, 2], [*directory.firsts, 6], [1, 1, 2, 2],
                                rows + rows[-2:], "repeated gram")

    def test_row_past_the_end(self):
        # the one row of "ad", raised to n, still increases
        index = self._linear()
        self._refused(index, 3, index.directory.starts[self.AD], len(index.fm.l))

    def test_repeated_row_in_a_gram(self):
        index = self._linear()
        directory = index.directory
        g = directory.get(b"br")
        lo, hi = directory.starts[g], directory.starts[g + 1]
        assert hi - lo == 2
        self._refused(index, 3, lo + 1, index.directory.rows[lo])

    @pytest.mark.parametrize("count", [1, 3], ids=["short", "long"])
    def test_counts_do_not_sum_to_the_rows_length(self, count):
        # "br" has two rows: with one, a row is left over after the last
        # gram's; with three, the last gram's row runs past the payload
        self._refused(self._linear(), 2, self.BR, count, "trailing|truncated")

    def test_gram_without_rows(self):
        # "ac" gets no row and "ad" two, so the counts still sum to the
        # rows: every gram occurs
        index = self._linear()
        data = bytearray(serialize_index(index))
        at = self._item_at(index, 2, self.AC)
        data[at:at + 8] = struct.pack("<2I", 0, 2)
        with pytest.raises(MalformedInputError, match="out of range"):
            deserialize_index(_resign(data))

    @staticmethod
    def _bwt_at(index) -> int:
        # envelope, alpha, q, BWT blob length, then the BWT
        return 9 + 4 + 4 + 4

    @pytest.mark.parametrize("symbol", [b"r", b"z"])
    def test_bwt_symbol_counts_differ(self, symbol):
        # two BWT bytes become a symbol they were not: one the corpus holds,
        # or one it lacks.  With no corpus to compare, the symbol counts
        # move the rows that start each gram, and the gram check refuses it
        index = self._linear()
        at = self._bwt_at(index)
        data = bytearray(serialize_index(index))
        changed = [i for i, b in enumerate(index.fm.l) if b != symbol[0]][:2]
        for i in changed:
            data[at + i] = symbol[0]
        with pytest.raises(MalformedInputError, match="rows differ"):
            deserialize_index(_resign(data))

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_bwt_length_differs_from_corpus(self, delta):
        # a BWT a byte shorter or longer than the built corpus's: its rows
        # no longer start with the grams
        index = self._linear()
        at = self._bwt_at(index)
        n = len(index.fm.l)
        data = bytearray(serialize_index(index))
        bwt = data[at:at + n]
        bwt = bwt[:n - 1] if delta < 0 else bwt + b"a"
        data[at - 4:at + n] = struct.pack("<I", n + delta) + bwt
        with pytest.raises(MalformedInputError, match="rows differ"):
            deserialize_index(_resign(data))


class TestSuffixArrayCheck:
    """A superlinear file stores its corpus and q_max, and no suffix array
    to check: load sorts the corpus's suffixes as a build does, so a file
    that loads is the index a build over its corpus gives.  Load refuses a
    q_max that no build writes."""

    TEXT = b"abracadabra"

    @classmethod
    def _file(cls) -> tuple[SuperlinearIndex, bytearray]:
        index = SuperlinearIndex.build(Corpus.from_bytes(cls.TEXT), q_max=4)
        return index, bytearray(serialize_index(index))

    @staticmethod
    def _q_max_at(index) -> int:
        # envelope, corpus blob; then u32 q_max, the last field
        return 9 + 4 + index.corpus.n

    def test_stored_file_loads(self):
        index, data = self._file()
        at = self._q_max_at(index)
        assert len(data) == at + 4
        assert struct.unpack_from("<I", data, at) == (4,)
        loaded = deserialize_index(bytes(data))
        assert loaded.count(b"abra") == 2
        assert serialize_index(loaded) == data

    def test_format_9_file_refused(self):
        # format 9 stored the u32 suffix array after q_max
        index, data = self._file()
        data += struct.pack(f"<{index.corpus.n}I", *sorted(
            range(index.corpus.n), key=lambda i: index.corpus.data[i:]))
        data[4] = 9
        with pytest.raises(MalformedInputError, match="unsupported format version 9"):
            deserialize_index(_resign(data))
        data[4] = FORMAT_VERSION
        with pytest.raises(MalformedInputError, match="trailing bytes"):
            deserialize_index(_resign(data))

    def test_corpus_byte_changed(self):
        # "abracadabra" -> "abracadzbra": a re-signed changed corpus loads
        # as the index of the changed text
        _, data = self._file()
        data[9 + 4 + 7] = ord("z")
        index = deserialize_index(_resign(data))
        assert index.corpus.text == b"abracadzbra"
        for pattern in (b"a", b"abra", b"adz", b"dab", b"zbra", b"abracadzbra"):
            assert index.count(pattern) == naive_count(index.corpus, pattern)

    @pytest.mark.parametrize("q_max", [0, 3, 16])
    def test_bad_q_max(self, q_max):
        # 0 is only an empty text's; 3 is no power of two; 16 would claim
        # grams longer than the 11-symbol text
        index, data = self._file()
        at = self._q_max_at(index)
        data[at:at + 4] = struct.pack("<I", q_max)
        with pytest.raises(MalformedInputError, match="q_max"):
            deserialize_index(_resign(data))

    def test_empty_text(self):
        # an empty text's q_max is 0, and only 0
        data = bytearray(serialize_index(SuperlinearIndex.build(Corpus.from_bytes(b""))))
        assert deserialize_index(bytes(data)).q_max == 0
        at = 9 + 4 + 1
        data[at:at + 4] = struct.pack("<I", 1)
        with pytest.raises(MalformedInputError, match="q_max"):
            deserialize_index(_resign(data))


class TestSplitStructure:
    def _refused(self, data: bytes, match: str):
        with pytest.raises(MalformedInputError, match=match):
            deserialize_index(data)

    @pytest.mark.parametrize("compress", [False, True])
    def test_truncated_lists(self, compress):
        d = random_word_dictionary(20, seed=26)
        substitution = select_qgrams(d, budget=10) if compress else None
        data = serialize_index(SplitIndex.build(d, 2, substitution))
        groups = list(deserialize_index(data).table.items())
        # the group count, then each group's key, key count, keys, run
        # lengths and runs end the file
        columns_from = len(data) - sum(
            2 + 4 + len(b"".join(group.ids)) + 4 * len(group.ids) + len(group.runs)
            for _, group in groups)
        assert data[columns_from - 4:columns_from] == struct.pack("<I", len(groups))
        # a cut inside any group
        for end in range(columns_from, len(data)):
            self._refused(_resign(bytearray(data[:end])), "truncated")

    def test_k_zero(self):
        data = bytearray(serialize_index(SplitIndex.build(Dictionary([]), 1)))
        data[9] = 0
        self._refused(_resign(data), "k must be at least 1")

    @pytest.mark.parametrize("flag", [2, 255])
    def test_coded_flag_neither_0_nor_1(self, flag):
        # the flag byte follows k; a coded file with flag 2 would otherwise
        # load as coded
        d = random_word_dictionary(20, seed=26)
        data = bytearray(serialize_index(SplitIndex.build(d, 1, select_qgrams(d, budget=10))))
        assert data[9:11] == b"\x01\x01"
        data[10] = flag
        self._refused(_resign(data), "coded flag")

    # Over "ab" and "cd" at k = 1: the envelope, k, no substitution table,
    # two groups, then group (2, 0): its key, two keys "ac", run lengths 1
    # and 1, runs "bd"; group (2, 1) follows.
    _TWO_WORDS = 9 + 1 + 1 + 4

    def _two_words(self) -> bytearray:
        data = bytearray(serialize_index(SplitIndex.build(Dictionary([b"ab", b"cd"]), 1)))
        at = self._TWO_WORDS
        assert data[at - 4:at + 20] == (b"\x02\x00\x00\x00" + b"\x02\x00\x02\x00\x00\x00ac"
                                        + b"\x01\x00\x00\x00" * 2 + b"bd\x02\x01")
        return data

    def test_repeated_key(self):
        # make key "c" another "a"
        data = self._two_words()
        data[self._TWO_WORDS + 7] = ord("a")
        self._refused(_resign(data), "repeated piece")

    def test_repeated_group(self):
        # make group (2, 1) another (2, 0)
        data = self._two_words()
        data[self._TWO_WORDS + 19] = 0
        self._refused(_resign(data), "repeated group")

    def test_zero_byte_in_a_key(self):
        # fixed-width keys are read as numpy strings, which drop trailing
        # zero bytes; no word byte is 0
        data = self._two_words()
        data[self._TWO_WORDS + 7] = 0
        self._refused(_resign(data), "zero byte")

    @pytest.mark.parametrize("run", [b"", b"x", b"xyz"], ids=["empty", "short", "long"])
    def test_run_not_whole_entries_refused(self, run):
        # a run of "abcd"'s leading piece "ab" holds entries of width 2
        index = SplitIndex.build(Dictionary([b"abcd"]), 1)
        index.table.put(b"\x04\x00", PieceRuns(np.frombuffer(b"ab", np.uint8).reshape(1, 2),
                                                 [len(run)], run))
        self._refused(serialize_index(index), "positive multiple")

    @pytest.mark.parametrize("coded", [False, True])
    def test_entry_overruns_its_group(self, coded):
        # a byte more at the end of one run: the last entry overruns it
        d = random_word_dictionary(50, seed=26)
        substitution = select_qgrams(d, budget=8, lengths=(2,)) if coded else None
        index = SplitIndex.build(d, 1, substitution)
        key, group = next(iter(index.table.items()))
        runs = [run for _, run in group.items()]
        runs[-1] += b"a"
        keys = np.frombuffer(b"".join(group.ids), np.uint8).reshape(len(runs), -1)
        index.table.put(key, PieceRuns(keys, list(map(len, runs)), b"".join(runs)))
        self._refused(serialize_index(index), "positive multiple")


@cache
def _small_split_file(k: int, coded: bool):
    d = random_word_dictionary(40, seed=30 + k)
    substitution = select_qgrams(d, budget=8, lengths=(2,)) if coded else None
    rng = random.Random(k)
    queries = []
    for w in d.words[:20]:
        q = bytearray(w)
        q[rng.randrange(len(q))] = rng.choice(b"abcdefghijklmnopqrstuvwxyz")
        queries.append(bytes(q))
    return serialize_index(SplitIndex.build(d, k, substitution)), queries


@given(k=st.integers(1, 3), coded=st.booleans(), where=st.integers(min_value=0),
       flip=st.integers(1, 255))
@settings(max_examples=400, deadline=None)
def test_flipped_split_byte_is_refused_or_harmless(k, coded, where, flip):
    data, queries = _small_split_file(k, coded)
    corrupted = bytearray(data)
    corrupted[9 + where % (len(data) - 9)] ^= flip
    try:
        index = deserialize_index(_resign(corrupted))
        words = index.reconstruct_words()
    except MalformedInputError:
        return
    # A file that loads and reconstructs answers as a scan of its words.
    oracle = NaiveHammingSearcher(set(words))
    for q in queries:
        assert index.query(q) == oracle.search(q, index.k)


@cache
def _small_fm_file(kind: str):
    if kind == "superlinear":
        corpus = Corpus.from_bytes(english_like_text(300, seed=40))
        index = SuperlinearIndex.build(corpus, q_max=16)
    else:
        corpus = Corpus.from_bytes(dna_like_text(300, seed=41))
        index = LinearIndex.build(corpus, alpha=3, q=4)
    rng = random.Random(42)
    patterns = []
    for _ in range(20):
        m = rng.randint(1, 24)
        s = rng.randrange(corpus.n - m)
        patterns.append(corpus.text[s:s + m])
    return serialize_index(index), patterns


@given(kind=st.sampled_from(["superlinear", "linear"]), where=st.integers(min_value=0),
       flip=st.integers(1, 255))
@settings(max_examples=400, deadline=None)
def test_flipped_fm_byte_is_refused_or_harmless(kind, where, flip):
    # A superlinear file that loads counts exactly over the corpus it
    # stores, since load builds the index from that corpus; a linear one can
    # still miscount after a flip in its rows or BWT (README), so it need
    # only raise no other exception.
    data, patterns = _small_fm_file(kind)
    corrupted = bytearray(data)
    corrupted[9 + where % (len(data) - 9)] ^= flip
    try:
        index = deserialize_index(_resign(corrupted))
        counts = [index.count(pattern) for pattern in patterns]
    except MalformedInputError:
        return
    if kind == "superlinear":
        assert counts == [naive_count(index.corpus, pattern) for pattern in patterns]


@pytest.mark.parametrize("flip", [0x01, 0x02, 0x10, 0x80, 0xFF])
def test_flipped_linear_key_or_first_row_is_refused_or_exact(flip):
    # Every byte of the small linear file's alpha and q, gram count,
    # `lengths`, `firsts` and `counts` columns, flipped and re-signed: the
    # file is refused, or it loads and counts every pattern as a scan of the
    # text its BWT holds.  Load reads each key off the BWT from its first
    # row and checks it against the gram's last row and both neighbours, so
    # a moved range or a changed length does not load; the counts must
    # frame the rows to the end of the payload.  Another alpha or q picks
    # other phrases, and one the directory does not list takes character
    # steps.  The longer sampled patterns hold whole windows at a flipped
    # alpha or q.
    data, patterns = _small_fm_file("linear")
    index = deserialize_index(data)
    patterns = patterns + sample_patterns(bwt_inverse(index.fm.l).text, 200, VERIFY_LENGTHS)
    # envelope; alpha and q; BWT blob; then the gram count, `lengths`,
    # `firsts` and `counts`
    count_at = 9 + 4 + 4 + 4 + len(index.fm.l)
    flipped = [*range(9, 9 + 8), *range(count_at, count_at + 4 + 12 * len(index.directory))]
    for at in flipped:
        corrupted = bytearray(data)
        corrupted[at] ^= flip
        try:
            clone = deserialize_index(_resign(corrupted))
        except MalformedInputError:
            continue
        text = bwt_inverse(clone.fm.l).text
        assert [clone.count(p) for p in patterns] == [naive_count(text, p) for p in patterns]


@pytest.mark.parametrize("build", [
    lambda corpus: SuperlinearIndex.build(corpus, q_max=16),
    lambda corpus: LinearIndex.build(corpus, alpha=3, q=4),
    lambda corpus: LinearIndex.build(corpus, alpha=8, q=3),
], ids=["superlinear", "linear-alpha-3", "linear-alpha-8"])
def test_gram_ids_by_length_then_first_row(build):
    # Both FM kinds number their grams in the order the suffix array gives
    # them, by length and then by first row, in a build and in a load.
    index = build(Corpus.from_bytes(english_like_text(5000, seed=43)))
    for directory in (index.directory, deserialize_index(serialize_index(index)).directory):
        lengths, firsts = (np.asarray(c, np.int64) for c in (directory.lengths, directory.firsts))
        assert len(set(lengths.tolist())) > 1
        assert (np.diff(lengths * 2**32 + firsts) > 0).all()
        assert list(directory.values()) == list(range(len(directory)))


def test_permuted_linear_grams_load_and_count():
    # Load does not check the gram order: a linear file with its grams
    # shuffled and re-signed loads with the ids shuffled alike, and counts
    # every pattern as a scan of the text does.
    corpus = Corpus.from_bytes(dna_like_text(3000, seed=44))
    index = LinearIndex.build(corpus, alpha=3, q=4)
    directory = index.directory
    order = np.random.default_rng(45).permutation(len(directory))
    starts, rows = np.asarray(directory.starts, np.int64), np.asarray(directory.rows)
    # envelope, alpha, q, BWT blob and gram count; then the four columns
    at = 9 + 4 + 4 + 4 + len(index.fm.l) + 4
    data = bytearray(serialize_index(index))
    data[at:] = np.concatenate([
        directory.lengths[order], np.asarray(directory.firsts)[order], np.diff(starts)[order],
        *(rows[starts[g]:starts[g + 1]] for g in order)]).astype("<u4").tobytes()
    loaded = deserialize_index(_resign(data))
    keys = list(directory)
    assert list(loaded.directory) == [keys[g] for g in order] != keys
    patterns = sample_patterns(corpus.text, 300, VERIFY_LENGTHS, seed=46)
    assert [loaded.count(p) for p in patterns] == [naive_count(corpus.text, p) for p in patterns]


def test_one_bwt_walk_per_linear_build_and_load(monkeypatch):
    # Build and load read the gram keys and check the gram rows in one
    # walk; the calls are counted through every module's name for it
    walks = []
    walk = suffixbwt.row_prefixes

    def counted(*args):
        walks.append(args)
        return walk(*args)

    for module in (suffixbwt, fmgram, envelope):
        monkeypatch.setattr(module, "row_prefixes", counted, raising=False)
    index = LinearIndex.build(Corpus.from_bytes(dna_like_text(2000, seed=24)), alpha=3, q=4)
    assert len(walks) == 1
    deserialize_index(serialize_index(index))
    assert len(walks) == 2


@pytest.mark.parametrize("size", [2000, 2001, 2002, 2003])
def test_loaded_linear_rows_are_a_copy(size):
    # Load checks the rows as a view into the file bytes, aligned or not
    # (the BWT's length moves their offset), and the directory keeps a copy
    # of its own, so no loaded index holds a view of the file.
    index = LinearIndex.build(Corpus.from_bytes(dna_like_text(size, seed=25)), alpha=3, q=4)
    loaded = deserialize_index(serialize_index(index))
    rows = loaded.directory.rows.obj
    assert rows.flags.owndata and rows.flags.aligned and rows.dtype == np.uint32
    assert list(loaded.directory.rows) == list(index.directory.rows)


def _directory_digest(directory) -> str:
    """SHA-256 of a gram directory's key buffer and its `lengths`,
    `firsts`, `starts` and `rows` columns as u32s."""
    digest = hashlib.sha256(directory.buffer)
    for column in (directory.lengths, directory.firsts, directory.starts, directory.rows):
        digest.update(np.asarray(column, dtype="<u4").tobytes())
    return digest.hexdigest()


def test_linear_file_digest():
    # Golden digest of a linear index file (format 15: the format 14 file
    # with its grams permuted into length, then first-row order, so the
    # length did not change; the format 14 file is the format 13 file with
    # only the version byte changed).  The format 13 file is the format
    # 12 file without the key blob (85 bytes and its u32 length), the row count
    # and the last `starts` entry, with `counts` in place of `starts`:
    # 291,163 bytes became 291,066.  The directory it builds and loads, key
    # buffer included, is the format 12 build's, whose 31 multi-symbol
    # grams, first rows and row lists equal those of the format 3 file.
    corpus = Corpus.from_bytes(dna_like_text(64 * 1024, seed=7))
    index = LinearIndex.build(corpus, alpha=3, q=4)
    data = serialize_index(index)
    for directory in (index.directory, deserialize_index(data).directory):
        assert _directory_digest(directory) == (
            "786c131186d68bb7edd860fb837e6bf97153b5b106455c24338a1533eedffb7b")
    assert len(data) == 291_066
    assert hashlib.sha256(data).hexdigest() == (
        "0d5bb4d201920448acbecf36f16f81eaf8fc9c50b4064e97fc8da3978c377196")


def test_linear_file_digest_above_alpha_8():
    # Golden digest of a linear file at alpha 12 and q 3 (format 15: the
    # format 14 file with its grams permuted into length, then first-row
    # order; the format 14 file is the format 13 file with only the version
    # byte changed), whose 5,409 grams keep the format 12 build's keys,
    # first rows and row lists.  Those were taken when alpha above 8 found
    # its distinct phrases by slicing and below by packed words: the one
    # suffix-array build writes the same bytes for both.
    corpus = Corpus.from_bytes(dna_like_text(64 * 1024, seed=7))
    index = LinearIndex.build(corpus, alpha=12, q=3)
    data = serialize_index(index)
    for directory in (index.directory, deserialize_index(data).directory):
        assert _directory_digest(directory) == (
            "b97be4f84aeaa4a9f34be99a32598bc03dd5c0029d19fb8994aadb7cc54314e9")
    assert len(data) == 467_870
    assert hashlib.sha256(data).hexdigest() == (
        "f3b0f583498834582cc9ea5fb5d0957dc9502233d94dad0eaf1427f2b8bc2a8f")


def test_superlinear_file_digest():
    # Golden digest of a superlinear index file (format 15, the format 10
    # to 14 file with only the version byte changed): the corpus blob and
    # u32 q_max (128) of the format 9 file, without the suffix array that
    # followed them.  The directory its load derives equals the one
    # the format 8 file stored.
    corpus = Corpus.from_bytes(english_like_text(8192, seed=7))
    data = serialize_index(SuperlinearIndex.build(corpus))
    assert len(data) == 9 + 4 + corpus.n + 4
    assert hashlib.sha256(data).hexdigest() == (
        "396eb53d071b2cfeaa44710442117410976de3fd10f6f70184d5a61677768d38")


def test_split_file_digest():
    # Golden digests of split index files (format 15, the format 14 files
    # with only the version byte changed): k = 2 over 2,000 generated
    # words, plain and coded with a 100-code substitution table, one group
    # per (m, role) with one fixed-width run per key.  Each format 14 file
    # is the format 13 file (the format 11 and 12 files with only the version
    # byte changed) with each group's keys and runs in key byte order
    # rather than first-seen order, so the lengths did not change.
    d = random_word_dictionary(2000, seed=7)
    plain = serialize_index(SplitIndex.build(d, 2))
    coded = serialize_index(SplitIndex.build(d, 2, select_qgrams(d, budget=100)))
    assert (len(plain), len(coded)) == (67_303, 63_288)
    assert hashlib.sha256(plain).hexdigest() == (
        "1d8f7b6967e3908fd5f5d1e9b5481d0871f90d14d3702f394654110b57d19da8")
    assert hashlib.sha256(coded).hexdigest() == (
        "449aa2b929e4d089e3ff913facfe16a66783db1646eb385ffbd99375f79c114e")
