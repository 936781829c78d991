import hashlib
import random
import struct
import sys
import zlib
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from textindex.envelope import (FORMAT_VERSION, deserialize_index, load_index,
                                save_index, serialize_index)
from textindex.errors import MalformedInputError
from textindex.fmgram import GramDirectory, LinearIndex, SuperlinearIndex
from textindex.harness import (NaiveHammingSearcher, dna_like_text,
                               english_like_text, random_word_dictionary)
from textindex.splitindex import Dictionary, SplitIndex, select_qgrams, split_word
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
        assert list(clone.table.items()) == list(index.table.items())

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
    """Files with a valid CRC but a wrong structure are refused at load."""

    @staticmethod
    def _columns_at(index) -> int:
        # envelope, corpus blob, gram count, row count; then the offsets,
        # lengths, firsts, starts and rows columns, 4 bytes an item
        return 9 + 4 + index.corpus.n + 4 + 4

    @classmethod
    def _item_at(cls, index, column: int, item: int) -> int:
        # `starts`, column 3, has one item more than there are grams
        before = column * len(index.directory) + (column == 4)
        return cls._columns_at(index) + 4 * (before + item)

    def _refused(self, index, column: int, item: int, value: int, match=None):
        at = self._item_at(index, column, item)
        data = bytearray(serialize_index(index))
        data[at:at + 4] = struct.pack("<I", value)
        with pytest.raises(MalformedInputError, match=match):
            deserialize_index(_resign(data))

    # Column order: offsets, lengths, firsts, starts, rows.
    @pytest.mark.parametrize("column, value", [
        (0, 1000),  # the gram runs past the text; it loaded as key b""
        (0, 11),    # the gram covers the terminator
        (1, 0),     # empty gram
        (2, 12),    # first + count > n
    ])
    def test_gram_entry_out_of_range(self, column, value):
        index = SuperlinearIndex.build(Corpus.from_bytes(b"abracadabra"))
        self._refused(index, column, 0, value)

    def test_terminator_inside_corpus(self):
        index = SuperlinearIndex.build(Corpus.from_bytes(b"abracadabra"))
        # envelope, corpus blob length, then corpus byte 2
        at = 9 + 4 + 2
        data = bytearray(serialize_index(index))
        data[at] = 0
        with pytest.raises(MalformedInputError):
            deserialize_index(_resign(data))

    def test_gram_length_not_a_power_of_two(self):
        # a 2-gram becomes a 3-gram that lies inside the text and repeats no
        # gram, so only the length check refuses it: 3-symbol chunks are
        # never looked up
        index = SuperlinearIndex.build(Corpus.from_bytes(b"abracadabra"), q_max=8)
        directory = index.directory
        g = next(g for g in range(len(directory))
                 if directory.lengths[g] == 2 and directory.offsets[g] + 3 <= 11)
        self._refused(index, 1, g, 3, match="gram lengths")

    @staticmethod
    def _keeping(index, keep) -> bytes:
        """The file of `index` with only its grams of the lengths in `keep`:
        the lengths column then lacks the others."""
        directory = index.directory
        kept = [g for g in range(len(directory)) if directory.lengths[g] in keep]
        rows = [np.asarray(directory.rows)[directory.starts[g]:directory.starts[g + 1]]
                for g in kept]
        directory = GramDirectory(
            index.corpus.data, directory.offsets[kept], directory.lengths[kept],
            [directory.firsts[g] for g in kept], np.cumsum([0, *map(len, rows)]),
            np.concatenate(rows) if rows else [])
        return serialize_index(SuperlinearIndex(index.corpus, directory))

    @pytest.mark.parametrize("keep", [
        (1, 4, 8),  # 2 is missing: 2-symbol chunks count 0
        (2, 4, 8),  # 1 is missing: odd-length patterns count 0
        (),         # no grams left in a nonempty text: every pattern counts 0
    ], ids=["no-2", "no-1", "none"])
    def test_gram_length_missing(self, keep):
        index = SuperlinearIndex.build(Corpus.from_bytes(b"abracadabra"), q_max=8)
        with pytest.raises(MalformedInputError, match="gram lengths"):
            deserialize_index(self._keeping(index, keep))

    def test_q_max_past_the_text_loads(self):
        # the text holds 11 symbols, so 8 is the longest gram any q_max >= 8
        # lists, and the index's q_max; such a file answers as its build did
        index = SuperlinearIndex.build(Corpus.from_bytes(b"abracadabra"), q_max=64)
        assert max(index.directory.lengths) == 8
        loaded = deserialize_index(serialize_index(index))
        assert index.q_max == loaded.q_max == 8
        assert loaded.count(b"abracadabra") == 1

    def test_repeated_gram(self):
        index = SuperlinearIndex.build(Corpus.from_bytes(b"abracadabra"))
        data = bytearray(serialize_index(index))
        # the second gram's key (offset, length) becomes the first's
        for column in (0, 1):
            first = self._item_at(index, column, 0)
            data[first + 4:first + 8] = data[first:first + 4]
        with pytest.raises(MalformedInputError):
            deserialize_index(_resign(data))

    def test_row_past_the_end(self):
        # the last row of the last gram, raised to n, still increases
        index = SuperlinearIndex.build(Corpus.from_bytes(b"abracadabra"))
        self._refused(index, 4, len(index.directory.rows) - 1, index.corpus.n)

    def test_repeated_row_in_a_gram(self):
        index = SuperlinearIndex.build(Corpus.from_bytes(b"abracadabra"))
        directory = index.directory
        g = directory.get(b"a")
        lo, hi = directory.starts[g], directory.starts[g + 1]
        assert hi - lo == 5
        self._refused(index, 4, lo + 1, index.directory.rows[lo])

    def test_starts_do_not_end_at_the_rows_length(self):
        index = SuperlinearIndex.build(Corpus.from_bytes(b"abracadabra"))
        self._refused(index, 3, len(index.directory), len(index.directory.rows) - 1)

    @staticmethod
    def _bwt_at(index) -> int:
        # envelope, alpha, q, corpus blob, BWT blob length, then the BWT
        return 9 + 4 + 4 + 4 + index.corpus.n + 4

    @pytest.mark.parametrize("symbol", [b"r", b"z"])
    def test_bwt_symbol_counts_differ(self, symbol):
        # two BWT bytes become a symbol they were not: one the corpus holds,
        # or one it lacks
        index = LinearIndex.build(Corpus.from_bytes(b"abracadabra"), alpha=2, q=2)
        at = self._bwt_at(index)
        data = bytearray(serialize_index(index))
        changed = [i for i, b in enumerate(index.fm.l) if b != symbol[0]][:2]
        for i in changed:
            data[at + i] = symbol[0]
        with pytest.raises(MalformedInputError, match="symbol counts"):
            deserialize_index(_resign(data))

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_bwt_length_differs_from_corpus(self, delta):
        index = LinearIndex.build(Corpus.from_bytes(b"abracadabra"), alpha=2, q=2)
        at = self._bwt_at(index)
        n = index.corpus.n
        data = bytearray(serialize_index(index))
        bwt = data[at:at + n]
        bwt = bwt[:n - 1] if delta < 0 else bwt + b"a"
        data[at - 4:at + n] = struct.pack("<I", n + delta) + bwt
        with pytest.raises(MalformedInputError, match="BWT length"):
            deserialize_index(_resign(data))


class TestSplitStructure:
    def _refused(self, data: bytes):
        with pytest.raises(MalformedInputError):
            deserialize_index(data)

    @pytest.mark.parametrize("compress", [False, True])
    def test_truncated_lists(self, compress):
        d = random_word_dictionary(20, seed=26)
        substitution = select_qgrams(d, budget=10) if compress else None
        data = serialize_index(SplitIndex.build(d, 2, substitution))
        keys = [key for key, _ in deserialize_index(data).table.items()]
        lists = [blob for _, blob in deserialize_index(data).table.items()]
        # the key count, then the columns of key lengths, keys, list lengths
        # and lists end the file
        columns_from = len(data) - (len(keys) + sum(map(len, keys))
                                    + 4 * len(lists) + sum(map(len, lists)))
        assert data[columns_from - 4:columns_from] == struct.pack("<I", len(keys))
        # a cut inside any key length, key, list length or list
        for end in range(columns_from, len(data)):
            with pytest.raises(MalformedInputError, match="truncated"):
                deserialize_index(_resign(bytearray(data[:end])))

    def test_k_zero(self):
        data = bytearray(serialize_index(SplitIndex.build(Dictionary([]), 1)))
        data[9] = 0
        self._refused(_resign(data))

    def test_empty_key(self):
        index = SplitIndex.build(Dictionary([b"ab"]), 1)
        index.table.put(b"", b"\x01x\x00")
        self._refused(serialize_index(index))

    def test_repeated_key(self):
        index = SplitIndex.build(Dictionary([b"ab", b"cd"]), 1)
        data = bytearray(serialize_index(index))
        # envelope, k, no substitution table, key count, four 1-byte key
        # lengths, then the keys "abcd": make key "c" another "a"
        keys_at = 9 + 1 + 1 + 4 + 4
        assert data[keys_at - 4:keys_at + 4] == b"\x01\x01\x01\x01abcd"
        data[keys_at + 2] = ord("a")
        self._refused(_resign(data))

    @pytest.mark.parametrize("k", [1, 2])
    def test_separator_count(self, k):
        index = SplitIndex.build(Dictionary([b"abcd", b"bcde"]), k)
        key, blob = next(iter(index.table.items()))
        index.table.put(key, blob + b"\x00")
        self._refused(serialize_index(index))

    @pytest.mark.parametrize("k", [1, 2])
    def test_missing_separator(self, k):
        index = SplitIndex.build(Dictionary([b"abcd", b"bcde"]), k)
        key, blob = next(iter(index.table.items()))
        index.table.put(key, blob.replace(b"\x00", b"", 1))
        self._refused(serialize_index(index))

    @pytest.mark.parametrize("coded", [False, True])
    def test_entry_overruns_its_group(self, coded):
        # a counter with nothing after it at the very end of a list: the
        # file loads, and the walk and the reconstruction refuse it
        d = random_word_dictionary(50, seed=26)
        substitution = select_qgrams(d, budget=8, lengths=(2,)) if coded else None
        index = SplitIndex.build(d, 1, substitution)
        word = d.words[0]
        key = split_word(word, 1)[1]
        index.table.put(key, index.table.get(key) + b"\x01")
        clone = deserialize_index(serialize_index(index))
        with pytest.raises(MalformedInputError):
            clone.query(word)
        with pytest.raises(MalformedInputError):
            clone.reconstruct_words()


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
    data, patterns = _small_fm_file(kind)
    corrupted = bytearray(data)
    corrupted[9 + where % (len(data) - 9)] ^= flip
    try:
        index = deserialize_index(_resign(corrupted))
        for pattern in patterns:
            index.count(pattern)
    except MalformedInputError:
        pass


def test_linear_file_digest():
    # Golden digest of a linear index file (format 8): its 31 multi-symbol
    # grams, first rows and row lists equal those of the format 3 file,
    # which also listed the 4 single-symbol phrases.  It equals the format 7
    # file with the version byte changed, since format 8 changed only the
    # superlinear payload, and the format 5 file with the directory's load
    # factor, hash name and bucket count cut out.
    corpus = Corpus.from_bytes(dna_like_text(64 * 1024, seed=7))
    data = serialize_index(LinearIndex.build(corpus, alpha=3, q=4))
    assert hashlib.sha256(data).hexdigest() == (
        "8c7721a2a038db892761c13828d3bcc22442e8299e685cacaf2d9fa2de267f7f")


def test_superlinear_file_digest():
    # Golden digest of a superlinear index file (format 8), whose directory
    # equals that of the per-row build it replaced.  It equals the format 7
    # file with the version byte changed and the u32 q_max (bytes 9:13) cut
    # out, so its CRC changed too; the format 7 file equals the format 5
    # file with the directory's load factor, hash name and bucket count cut
    # out.
    corpus = Corpus.from_bytes(english_like_text(8192, seed=7))
    data = serialize_index(SuperlinearIndex.build(corpus))
    assert hashlib.sha256(data).hexdigest() == (
        "8d91e31473bc844b7cf254b321974483c7278cdf36f3044ee2a721eae330dbc5")
