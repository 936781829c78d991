"""Binary index files: a tagged envelope around a structure-specific payload.

Layout: 4-byte magic (per structure kind), 1-byte format version, 4-byte
CRC32 of the payload, payload.  All integers are little-endian fixed width
and byte sequences are length-prefixed, so a file is bit-identical across
runs given the same build inputs.  Unknown magic, unknown version and
checksum mismatches are rejected before any payload parsing.
"""

from __future__ import annotations

import struct
import sys
import zlib
from array import array

import numpy as np

from .errors import MalformedInputError
from .hashmap import ChainedHashMap
from .splitindex import BuildStats, SplitIndex, SplitIndexConfig, SubstitutionTable
from .suffixbwt import FmIndex, RankIndex, build_count_table, bwt_forward
from .fmgram import GramDirectory, LinearIndex, SuperlinearIndex
from .textcore import Corpus

MAGIC_SPLIT = b"SPLX"
MAGIC_SUPERLINEAR = b"FMSX"
MAGIC_LINEAR = b"FMLX"
FORMAT_VERSION = 1

_MAGICS = (MAGIC_SPLIT, MAGIC_SUPERLINEAR, MAGIC_LINEAR)


class _Writer:
    def __init__(self):
        self.parts = []

    def u8(self, v): self.parts.append(struct.pack("<B", v))
    def u16(self, v): self.parts.append(struct.pack("<H", v))
    def u32(self, v): self.parts.append(struct.pack("<I", v))
    def f64(self, v): self.parts.append(struct.pack("<d", v))

    def blob(self, data: bytes):
        self.u32(len(data))
        self.parts.append(bytes(data))

    def short_blob(self, data: bytes):
        self.u8(len(data))
        self.parts.append(bytes(data))

    def getvalue(self) -> bytes:
        return b"".join(self.parts)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.at = 0

    def _take(self, size: int) -> bytes:
        if self.at + size > len(self.data):
            raise MalformedInputError("truncated index payload")
        out = self.data[self.at:self.at + size]
        self.at += size
        return out

    def u8(self): return struct.unpack("<B", self._take(1))[0]
    def u16(self): return struct.unpack("<H", self._take(2))[0]
    def u32(self): return struct.unpack("<I", self._take(4))[0]
    def f64(self): return struct.unpack("<d", self._take(8))[0]
    def blob(self): return self._take(self.u32())
    def short_blob(self): return self._take(self.u8())
    def raw(self, size: int): return self._take(size)

    def done(self) -> bool:
        return self.at == len(self.data)


def _wrap(magic: bytes, payload: bytes) -> bytes:
    return magic + struct.pack("<B", FORMAT_VERSION) + struct.pack(
        "<I", zlib.crc32(payload) & 0xFFFFFFFF) + payload


def _unwrap(data: bytes) -> tuple[bytes, bytes]:
    if len(data) < 9:
        raise MalformedInputError("file too short to be an index envelope")
    magic, version = data[:4], data[4]
    if magic not in _MAGICS:
        raise MalformedInputError(f"unknown index magic {magic!r}")
    if version != FORMAT_VERSION:
        raise MalformedInputError(f"unsupported format version {version}")
    (crc,) = struct.unpack("<I", data[5:9])
    payload = data[9:]
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise MalformedInputError("payload checksum mismatch")
    return magic, payload


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


def _load_split(payload: bytes) -> SplitIndex:
    r = _Reader(payload)
    k = r.u8()
    compressed = r.u8()
    max_lf = r.f64()
    hash_name = r.short_blob().decode()
    substitution = None
    if compressed:
        pairs = []
        for _ in range(r.u8()):
            gram = r.short_blob()
            pairs.append((gram, r.u8()))
        substitution = SubstitutionTable(pairs)
    stats = BuildStats(words_indexed=r.u32(), words_skipped=r.u32(),
                       entries=r.u32())
    bucket_count = r.u32()
    entry_count = r.u32()
    table = ChainedHashMap(hash_name, max_lf, initial_buckets=bucket_count)
    for _ in range(entry_count):
        key = r.short_blob()
        table.put(key, r.blob())
    if not r.done():
        raise MalformedInputError("trailing bytes after split index payload")
    config = SplitIndexConfig(hash_name=hash_name, max_load_factor=max_lf,
                              substitution=substitution)
    return SplitIndex(k, table, config, stats)


# ---------------------------------------------------------------------------
# gram-augmented FM indexes
# ---------------------------------------------------------------------------

def _fm_substrate_payload(w: _Writer, fm: FmIndex) -> None:
    w.blob(fm.corpus.data)
    w.blob(np.asarray(fm.sa, dtype="<u4").tobytes())


def _read_fm_substrate(r: _Reader) -> FmIndex:
    corpus = Corpus(r.blob())
    sa = np.frombuffer(r.blob(), dtype="<u4").astype(np.int64)
    if len(sa) != corpus.n:
        raise MalformedInputError("suffix array length does not match corpus")
    l = bwt_forward(corpus, sa)
    return FmIndex(corpus, sa, l, build_count_table(corpus), RankIndex(l))


# Per directory entry: key offset, key length, first row, row count.
_ENTRY_HEADER = struct.Struct("<4I")


def _directory_payload(w: _Writer, directory: GramDirectory) -> None:
    w.f64(directory.max_load_factor)
    w.short_blob(directory.hash_name.encode())
    w.u32(directory.bucket_count)
    w.u32(len(directory))
    swap = sys.byteorder == "big"
    for key, entry in directory.items():
        rows = entry.rows
        if swap:
            rows = array("I", rows)
            rows.byteswap()
        w.parts.append(_ENTRY_HEADER.pack(entry.offset, len(key), entry.first, len(rows)))
        w.parts.append(rows.tobytes())


def _read_directory(r: _Reader, buffer: bytes) -> GramDirectory:
    max_lf = r.f64()
    hash_name = r.short_blob().decode()
    bucket_count = r.u32()
    entry_count = r.u32()
    directory = GramDirectory(buffer, hash_name, max_lf, initial_buckets=bucket_count)
    for _ in range(entry_count):
        offset, length, first, count = _ENTRY_HEADER.unpack(r.raw(_ENTRY_HEADER.size))
        rows = array("I")
        rows.frombytes(r.raw(4 * count))
        if sys.byteorder == "big":
            rows.byteswap()
        entry = directory.entry_for(offset, length)
        entry.first = first
        entry.rows = rows
    return directory


def _superlinear_payload(index: SuperlinearIndex) -> bytes:
    w = _Writer()
    w.u32(index.q_max)
    _fm_substrate_payload(w, index.fm)
    _directory_payload(w, index.directory)
    return w.getvalue()


def _load_superlinear(payload: bytes) -> SuperlinearIndex:
    r = _Reader(payload)
    q_max = r.u32()
    fm = _read_fm_substrate(r)
    directory = _read_directory(r, fm.corpus.data)
    if not r.done():
        raise MalformedInputError("trailing bytes after index payload")
    return SuperlinearIndex(fm, q_max, directory)


def _linear_payload(index: LinearIndex) -> bytes:
    w = _Writer()
    w.u32(index.alpha)
    w.u32(index.q)
    _fm_substrate_payload(w, index.fm)
    _directory_payload(w, index.directory)
    return w.getvalue()


def _load_linear(payload: bytes) -> LinearIndex:
    r = _Reader(payload)
    alpha = r.u32()
    q = r.u32()
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
    magic, payload = _unwrap(data)
    if magic == MAGIC_SPLIT:
        return _load_split(payload)
    if magic == MAGIC_SUPERLINEAR:
        return _load_superlinear(payload)
    return _load_linear(payload)


def save_index(index, path) -> None:
    with open(path, "wb") as handle:
        handle.write(serialize_index(index))


def load_index(path):
    with open(path, "rb") as handle:
        return deserialize_index(handle.read())
