"""Binary index files: a tagged envelope around a structure-specific payload.

Layout: 4-byte magic (per structure kind), 1-byte format version, 4-byte
CRC32 of the payload, payload.  All integers are little-endian fixed width,
byte sequences are length-prefixed and the u32 arrays of a gram directory
follow their counts, so a file is bit-identical across runs given the same
build inputs.  Unknown magic, unknown version and checksum mismatches are
rejected before any payload parsing, and the payload is parsed in place in
the file's bytes, not copied out first.

FM files store only what queries read.  A superlinear file is `q_max`, the
corpus and the gram directory.  A linear file is alpha, q, the corpus, the
n-byte BWT and the directory of its multi-symbol phrases; load rebuilds the
count table and rank samples from the BWT and refuses one whose symbol
counts differ from the corpus's.  Format 5 orders each split role group by
missing length, which the split walk relies on; its FM payloads equal
format 4's.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .errors import MalformedInputError
from .hashes import get_hash
from .hashmap import ChainedHashMap
from .splitindex import BuildStats, SplitIndex, SplitIndexConfig, SubstitutionTable
from .suffixbwt import FmIndex, RankIndex, build_count_table
# Not called here; kept importable under this module's name because
# perfbench/tracer.py wraps `envelope.bwt_forward`.
from .suffixbwt import bwt_forward  # noqa: F401
from .fmgram import GramDirectory, LinearIndex, SuperlinearIndex
from .textcore import Corpus

MAGIC_SPLIT = b"SPLX"
MAGIC_SUPERLINEAR = b"FMSX"
MAGIC_LINEAR = b"FMLX"
FORMAT_VERSION = 5

_MAGICS = (MAGIC_SPLIT, MAGIC_SUPERLINEAR, MAGIC_LINEAR)
# Magic, version byte and CRC32 come before the payload.
_HEADER = 9
_U32 = struct.Struct("<I")


class _Writer:
    def __init__(self):
        self.parts = []

    def u8(self, v): self.parts.append(struct.pack("<B", v))
    def u32(self, v): self.parts.append(struct.pack("<I", v))
    def f64(self, v): self.parts.append(struct.pack("<d", v))
    def u32s(self, v): self.parts.append(np.asarray(v, dtype="<u4").tobytes())

    def blob(self, data: bytes):
        self.u32(len(data))
        self.parts.append(bytes(data))

    def short_blob(self, data: bytes):
        self.u8(len(data))
        self.parts.append(bytes(data))

    def getvalue(self) -> bytes:
        return b"".join(self.parts)


class _Reader:
    """Parses `data` from offset `at` on; byte fields are `bytes` slices."""

    def __init__(self, data: bytes, at: int):
        self.data = data
        self.at = at

    def _take(self, size: int) -> bytes:
        if self.at + size > len(self.data):
            raise MalformedInputError("truncated index payload")
        out = self.data[self.at:self.at + size]
        self.at += size
        return out

    def u8(self): return struct.unpack("<B", self._take(1))[0]
    def u32(self): return struct.unpack("<I", self._take(4))[0]
    def f64(self): return struct.unpack("<d", self._take(8))[0]
    def blob(self): return self._take(self.u32())
    def short_blob(self): return self._take(self.u8())

    def u32s(self, count):
        """`count` u32s, as a view into the file bytes rather than a copy."""
        if self.at + 4 * count > len(self.data):
            raise MalformedInputError("truncated index payload")
        self.at += 4 * count
        return np.frombuffer(self.data, dtype="<u4", count=count, offset=self.at - 4 * count)

    def done(self) -> bool:
        return self.at == len(self.data)


def _read_hash_name(r: _Reader) -> str:
    raw = r.short_blob()
    try:
        name = raw.decode()
        get_hash(name)
    except ValueError:  # UnicodeDecodeError included
        raise MalformedInputError(f"unknown hash function {raw!r}") from None
    return name


def _wrap(magic: bytes, payload: bytes) -> bytes:
    return magic + struct.pack("<B", FORMAT_VERSION) + struct.pack(
        "<I", zlib.crc32(payload) & 0xFFFFFFFF) + payload


def _unwrap(data: bytes) -> bytes:
    """The magic of a file whose header and payload checksum are sound."""
    if len(data) < _HEADER:
        raise MalformedInputError("file too short to be an index envelope")
    magic, version = data[:4], data[4]
    if magic not in _MAGICS:
        raise MalformedInputError(f"unknown index magic {magic!r}")
    if version != FORMAT_VERSION:
        raise MalformedInputError(f"unsupported format version {version}")
    (crc,) = struct.unpack_from("<I", data, 5)
    with memoryview(data) as view:
        if zlib.crc32(view[_HEADER:]) & 0xFFFFFFFF != crc:
            raise MalformedInputError("payload checksum mismatch")
    return magic


# ---------------------------------------------------------------------------
# split index
# ---------------------------------------------------------------------------

def _split_payload(index: SplitIndex) -> bytes:
    w = _Writer()
    w.u8(index.k)
    sub = index.config.substitution
    w.u8(1 if sub is not None else 0)
    w.f64(index.config.max_load_factor)
    w.short_blob(index.config.hash_name.encode())
    if sub is not None:
        w.u8(len(sub.pairs))
        for gram, code in sub.pairs:
            w.short_blob(gram)
            w.u8(code)
    w.u32(index.stats.words_indexed)
    w.u32(index.stats.words_skipped)
    w.u32(index.stats.entries)
    w.u32(index.table.bucket_count)
    w.u32(len(index.table))
    for key, blob in index.table.items():
        w.short_blob(key)
        w.blob(blob)
    return w.getvalue()


def _load_split(r: _Reader) -> SplitIndex:
    k = r.u8()
    if k < 1:
        raise MalformedInputError("split index k must be at least 1")
    compressed = r.u8()
    max_lf = r.f64()
    hash_name = _read_hash_name(r)
    substitution = None
    if compressed:
        pairs = []
        for _ in range(r.u8()):
            gram = r.short_blob()
            pairs.append((gram, r.u8()))
        try:
            substitution = SubstitutionTable(pairs)
        except ValueError as exc:
            raise MalformedInputError(f"bad substitution table: {exc}") from None
    stats = BuildStats(words_indexed=r.u32(), words_skipped=r.u32(),
                       entries=r.u32())
    bucket_count = r.u32()
    entry_count = r.u32()
    if not max_lf > 0 or bucket_count < 1:
        raise MalformedInputError("bad load factor or bucket count")
    table = ChainedHashMap(hash_name, max_lf, initial_buckets=bucket_count)
    # Each list is a 1-byte key length, the key, a u32 list length and the
    # list.  They are read here rather than through `_Reader`, whose calls
    # per field cost more than the data for tens of thousands of lists.
    data, at, end = r.data, r.at, len(r.data)
    for _ in range(entry_count):
        if at >= end:
            raise MalformedInputError("truncated index payload")
        key_end = at + 1 + data[at]
        if key_end + 4 > end:
            raise MalformedInputError("truncated index payload")
        list_start = key_end + 4
        list_end = list_start + _U32.unpack_from(data, key_end)[0]
        if list_end > end:
            raise MalformedInputError("truncated index payload")
        key = data[at + 1:key_end]
        blob = data[list_start:list_end]
        at = list_end
        # One zero byte between consecutive role groups, and no other: the
        # list walk relies on it to find its group without parsing entries.
        if not key or blob.count(0) != k:
            raise MalformedInputError("malformed split list")
        table.put(key, blob)
    r.at = at
    if len(table) != entry_count:
        raise MalformedInputError("repeated key in split index")
    if not r.done():
        raise MalformedInputError("trailing bytes after split index payload")
    config = SplitIndexConfig(hash_name=hash_name, max_load_factor=max_lf,
                              substitution=substitution)
    return SplitIndex(k, table, config, stats)


# ---------------------------------------------------------------------------
# gram-augmented FM indexes
# ---------------------------------------------------------------------------

def _read_corpus(r: _Reader) -> Corpus:
    try:
        return Corpus(r.blob())
    except ValueError as exc:  # no terminator at the end, or one before it
        raise MalformedInputError(f"bad corpus: {exc}") from None


def _read_fm_substrate(r: _Reader) -> FmIndex:
    corpus = _read_corpus(r)
    l = r.blob()
    if len(l) != corpus.n:
        raise MalformedInputError("BWT length does not match the corpus")
    # With the corpus's symbol counts in the BWT, ranks never pass the count
    # table's ranges, so every backward step stays inside the n rows.  The
    # corpus's counts are read off its count table.
    table = build_count_table(corpus)
    corpus_counts = np.zeros(256, dtype=np.int64)
    corpus_counts[list(table)] = np.diff([*table.values(), corpus.n])
    if not np.array_equal(np.bincount(np.frombuffer(l, dtype=np.uint8), minlength=256),
                          corpus_counts):
        raise MalformedInputError("BWT symbol counts differ from the corpus's")
    return FmIndex(corpus, l, table, RankIndex(l))


def _directory_payload(w: _Writer, directory: GramDirectory) -> None:
    w.f64(directory.max_load_factor)
    w.short_blob(directory.hash_name.encode())
    w.u32(directory.bucket_count)
    w.u32(len(directory.offsets))
    w.u32(len(directory.rows))
    for column in (directory.offsets, directory.lengths, directory.firsts,
                   directory.starts, directory.rows):
        w.u32s(column)


def _check_directory(n: int, offsets, lengths, firsts, starts, rows) -> None:
    """Refuse a directory whose grams or rows fall outside the n rows and
    the text, or whose row runs are not strictly increasing."""
    starts = starts.astype(np.int64)
    counts = np.diff(starts)
    if starts[0] != 0 or starts[-1] != len(rows) or (counts < 0).any():
        raise MalformedInputError("gram row starts do not frame the rows")
    # A gram lies inside the text (the terminator is never part of one)
    # and its row range inside the n rows.
    ends = offsets.astype(np.int64) + lengths
    if ((lengths == 0) | (ends > n - 1) | (firsts.astype(np.int64) + counts > n)).any():
        raise MalformedInputError("gram directory entry out of range")
    if len(rows) and rows.max() >= n:
        raise MalformedInputError("gram row out of range")
    # Rows must rise inside each gram, not from one gram to the next.
    falls = rows[1:] <= rows[:-1]
    inner = starts[1:-1]
    falls[inner[(inner > 0) & (inner < len(rows))] - 1] = False
    if falls.any():
        raise MalformedInputError("gram rows not strictly increasing")


def _read_directory(r: _Reader, buffer: bytes) -> GramDirectory:
    max_lf = r.f64()
    hash_name = _read_hash_name(r)
    bucket_count = r.u32()
    grams = r.u32()
    row_count = r.u32()
    if not max_lf > 0 or bucket_count < 1:
        raise MalformedInputError("bad load factor or bucket count")
    offsets, lengths, firsts = (r.u32s(grams) for _ in range(3))
    starts = r.u32s(grams + 1)
    # An aligned copy: vectorised checks and the directory's memoryview
    # need one, and the payload may place the rows at any offset.
    rows = r.u32s(row_count).astype(np.uint32)
    _check_directory(len(buffer), offsets, lengths, firsts, starts, rows)
    directory = GramDirectory(buffer, offsets, lengths, firsts, starts, rows,
                              hash_name, max_lf, initial_buckets=bucket_count)
    if len(directory) != grams:
        raise MalformedInputError("repeated gram in directory")
    return directory


def _superlinear_payload(index: SuperlinearIndex) -> bytes:
    w = _Writer()
    w.u32(index.q_max)
    w.blob(index.corpus.data)
    _directory_payload(w, index.directory)
    return w.getvalue()


def _load_superlinear(r: _Reader) -> SuperlinearIndex:
    q_max = r.u32()
    corpus = _read_corpus(r)
    directory = _read_directory(r, corpus.data)
    if not r.done():
        raise MalformedInputError("trailing bytes after index payload")
    return SuperlinearIndex(corpus, q_max, directory)


def _linear_payload(index: LinearIndex) -> bytes:
    w = _Writer()
    w.u32(index.alpha)
    w.u32(index.q)
    w.blob(index.corpus.data)
    w.blob(index.fm.l)
    _directory_payload(w, index.directory)
    return w.getvalue()


def _load_linear(r: _Reader) -> LinearIndex:
    alpha = r.u32()
    q = r.u32()
    if alpha < 1 or q < 1:
        raise MalformedInputError("minimizer alpha and q must be positive")
    fm = _read_fm_substrate(r)
    directory = _read_directory(r, fm.corpus.data)
    if not r.done():
        raise MalformedInputError("trailing bytes after index payload")
    return LinearIndex(fm, alpha, q, directory)


# ---------------------------------------------------------------------------
# public interface
# ---------------------------------------------------------------------------

def serialize_index(index) -> bytes:
    if isinstance(index, SplitIndex):
        return _wrap(MAGIC_SPLIT, _split_payload(index))
    if isinstance(index, SuperlinearIndex):
        return _wrap(MAGIC_SUPERLINEAR, _superlinear_payload(index))
    if isinstance(index, LinearIndex):
        return _wrap(MAGIC_LINEAR, _linear_payload(index))
    raise TypeError(f"cannot serialize {type(index).__name__}")


def deserialize_index(data: bytes):
    magic = _unwrap(data)
    r = _Reader(data, _HEADER)
    if magic == MAGIC_SPLIT:
        return _load_split(r)
    if magic == MAGIC_SUPERLINEAR:
        return _load_superlinear(r)
    return _load_linear(r)


def save_index(index, path) -> None:
    with open(path, "wb") as handle:
        handle.write(serialize_index(index))


def load_index(path):
    with open(path, "rb") as handle:
        return deserialize_index(handle.read())
