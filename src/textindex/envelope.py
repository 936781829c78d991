"""Binary index files: a tagged envelope around a structure-specific payload.

Layout: 4-byte magic (per structure kind), 1-byte format version, 4-byte
CRC32 of the payload, payload.  All integers are little-endian fixed width,
byte sequences are length-prefixed and arrays follow their counts, so a
file is bit-identical across runs given the same build inputs.  Unknown
magic, unknown version and checksum mismatches are rejected before any
payload parsing, and the payload is parsed in place in the file's bytes,
not copied out first; nothing loaded keeps a view of them.

A superlinear file is the corpus and u32 `q_max`; load sorts the corpus's
suffixes and derives the gram directory as the build does, so a file that
loads is the index a build over its corpus gives.  A linear file is alpha,
q, the n-byte BWT and what the BWT cannot give of the directory of its
multi-symbol phrases: the u32 gram count and four u32 columns, `lengths`,
`firsts`, `counts` and `rows`, the grams by length and then by first row
(an order that load does not check), each gram's rows after those of the
grams before it.  It holds no corpus and no gram keys: load only parses it
for `LinearIndex.from_bwt`, the build's constructor too, which builds the
FM index from the BWT alone, reads the keys off it and checks every gram's
rows in one walk, and keys each gram to its id in bulk.  A split file is
k, the substitution table if any, the u32 group count and, for each (m,
role) group: m and the role (u8 each), the u32 key count, the keys (each
as long as piece `role` of an m-symbol word; a build writes them in byte
order, which load does not check), the u32 run lengths and the runs.  Load
hands those columns to `PieceRuns`, the build's constructor too, which
keys each piece to its id in bulk and frames the runs with a cumulative
sum over one bytes object, and checks the run lengths in bulk.  No file
holds a hash-map setting or build statistics: the reported bucket layout
is fixed by class constants and follows from the entry count.  CHANGES.md
records how each format version differs from the one before.

Load refuses, with `MalformedInputError`: a truncated payload or trailing
bytes; a superlinear corpus whose terminator is missing or not only at its
end, or whose `q_max` is not a power of two up to n - 1 (0 for an empty
text); a split file with k below 1, a coded flag other than 0 or 1, a bad
substitution table, a group whose role is above k or whose m is at most k,
a repeated group, a repeated key within a group, or a run whose length
(decoded, if coded) is not a positive multiple of its width m - len(key),
or that holds byte 0, an unknown code or, if plain, a byte of 128 or
more.  `LinearIndex.from_bwt` refuses, with the same error, a linear file
with alpha or q below 1, or whose BWT does not hold exactly one
terminator; and a linear directory whose grams are empty,
longer than alpha or than n - 1 (alone or together), hold the terminator
or repeat, whose count is 0 or whose first row plus count passes n, whose
rows reach n or do not rise inside a gram, or whose grams do not start
exactly the rows from `firsts[g]` to `firsts[g] + count - 1` of the BWT or
do not lead from the first and last of them to the gram's first and last
rows.  A linear file that loads can still miscount: nothing short of
rebuilding checks the rows between a gram's first and last, or that the
BWT is some text's (`suffixbwt.bwt_inverse`, O(n) Python steps); not its
alpha and q, since a phrase the directory lacks takes character steps.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .errors import MalformedInputError
from .hashmap import ChainedHashMap
from .splitindex import PieceRuns, SplitIndex, SubstitutionTable, piece_bounds
# Not called here; kept importable under this module's name because
# perfbench/tracer.py wraps `envelope.bwt_forward`.
from .suffixbwt import bwt_forward  # noqa: F401
from .fmgram import LinearIndex, SuperlinearIndex
from .textcore import Corpus

MAGIC_SPLIT = b"SPLX"
MAGIC_SUPERLINEAR = b"FMSX"
MAGIC_LINEAR = b"FMLX"
FORMAT_VERSION = 15

_MAGICS = (MAGIC_SPLIT, MAGIC_SUPERLINEAR, MAGIC_LINEAR)
# Magic, version byte and CRC32 come before the payload.
_HEADER = 9


class _Writer:
    def __init__(self):
        self.parts = []

    def u8(self, v): self.parts.append(struct.pack("<B", v))
    def u32(self, v): self.parts.append(struct.pack("<I", v))
    def u32s(self, v): self.parts.append(np.asarray(v, dtype="<u4").tobytes())
    def raw(self, data: bytes): self.parts.append(bytes(data))

    def blob(self, data: bytes):
        self.u32(len(data))
        self.raw(data)

    def short_blob(self, data: bytes):
        self.u8(len(data))
        self.raw(data)

    def getvalue(self) -> bytes:
        return b"".join(self.parts)


class _Reader:
    """Parses `data` from offset `at` on; byte fields are `bytes` slices."""

    def __init__(self, data: bytes, at: int):
        self.data = data
        self.at = at

    def span(self, size: int) -> int:
        """Offset of the next `size` bytes, which the reader moves past."""
        if self.at + size > len(self.data):
            raise MalformedInputError("truncated index payload")
        self.at += size
        return self.at - size

    def take(self, size: int) -> bytes:
        at = self.span(size)
        return self.data[at:at + size]

    def u8(self): return struct.unpack("<B", self.take(1))[0]
    def u32(self): return struct.unpack("<I", self.take(4))[0]
    def blob(self): return self.take(self.u32())
    def short_blob(self): return self.take(self.u8())

    def u8s(self, count):
        """`count` u8s, as a view into the file bytes rather than a copy."""
        return np.frombuffer(self.data, dtype=np.uint8, count=count, offset=self.span(count))

    def u32s(self, count):
        """`count` u32s, as a view into the file bytes rather than a copy."""
        return np.frombuffer(self.data, dtype="<u4", count=count, offset=self.span(4 * count))

    def done(self) -> bool:
        return self.at == len(self.data)


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
    sub = index.substitution
    w.u8(1 if sub is not None else 0)
    if sub is not None:
        w.u8(len(sub.pairs))
        for gram, code in sub.pairs:
            w.short_blob(gram)
            w.u8(code)
    w.u32(len(index.table))
    for key, group in index.table.items():
        w.raw(key)
        w.u32(len(group.ids))
        w.raw(b"".join(group.ids))
        w.u32s(np.diff(group.starts))
        w.raw(group.runs)
    return w.getvalue()


def _load_split(r: _Reader) -> SplitIndex:
    k = r.u8()
    if k < 1:
        raise MalformedInputError("split index k must be at least 1")
    compressed = r.u8()
    if compressed > 1:
        raise MalformedInputError("split index coded flag must be 0 or 1")
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
    bounds = piece_bounds(k)
    table = ChainedHashMap()
    groups = r.u32()
    for _ in range(groups):
        # A group: its key (m, role), the key count, the fixed-width keys,
        # the u32 run lengths and the runs.
        m, role = key = r.take(2)
        if role > k or bounds[m] is None:
            raise MalformedInputError(f"split group m={m}, role={role} does not fit k={k}")
        split_at, end_at, _ = bounds[m][role]
        size = end_at - split_at
        count = r.u32()
        keys = r.u8s(count * size)
        # Word bytes are nonzero, and `PieceRuns` reads keys whole only
        # when they hold none.
        if not keys.all():
            raise MalformedInputError("a split key holds a zero byte")
        lengths = r.u32s(count)
        group = PieceRuns(keys.reshape(count, size), lengths,
                          r.take(int(lengths.sum(dtype=np.int64))))
        if len(group.ids) != count:
            raise MalformedInputError("repeated piece in a split group")
        # The query's mismatch test counts on decoded runs holding word
        # bytes only, 1..127: a plain run holds nothing else, and a coded
        # one only those and its table's codes (checked below).
        if b"\0" in group.runs or substitution is None and not group.runs.isascii():
            raise MalformedInputError("a split run holds a byte that no word holds")
        if substitution is not None:
            # Decoded run lengths: cumulative decoded widths of the bytes,
            # taken at the run starts.
            widths = substitution.decoded_width[np.frombuffer(group.runs, np.uint8)]
            if not widths.all():
                raise MalformedInputError("unknown substitution code in a split run")
            ends = np.concatenate([[0], np.cumsum(widths)])
            lengths = np.diff(ends[np.asarray(group.starts)])
        if ((lengths == 0) | (lengths % (m - size) != 0)).any():
            raise MalformedInputError("a split run is not a positive multiple of its width")
        table.put(key, group)
    if len(table) != groups:
        raise MalformedInputError("repeated group in split index")
    if not r.done():
        raise MalformedInputError("trailing bytes after split index payload")
    return SplitIndex(k, table, substitution)


# ---------------------------------------------------------------------------
# gram-augmented FM indexes
# ---------------------------------------------------------------------------

def _read_corpus(r: _Reader) -> Corpus:
    try:
        return Corpus(r.blob())
    except ValueError as exc:  # no terminator at the end, or one before it
        raise MalformedInputError(f"bad corpus: {exc}") from None


def _superlinear_payload(index: SuperlinearIndex) -> bytes:
    w = _Writer()
    w.blob(index.corpus.data)
    w.u32(index.q_max)
    return w.getvalue()


def _load_superlinear(r: _Reader) -> SuperlinearIndex:
    corpus = _read_corpus(r)
    q_max = r.u32()
    if not r.done():
        raise MalformedInputError("trailing bytes after index payload")
    # The longest gram listed: a power of two that fits in the text, or 0
    # for an empty one.
    if q_max & (q_max - 1) or q_max > corpus.n - 1 or q_max == 0 < corpus.n - 1:
        raise MalformedInputError(f"superlinear q_max {q_max} does not fit the text")
    return SuperlinearIndex(corpus, q_max)


def _linear_payload(index: LinearIndex) -> bytes:
    w = _Writer()
    w.u32(index.alpha)
    w.u32(index.q)
    w.blob(index.fm.l)
    directory = index.directory
    w.u32(len(directory.lengths))
    for column in (directory.lengths, directory.firsts, np.diff(directory.starts), directory.rows):
        w.u32s(column)
    return w.getvalue()


def _load_linear(r: _Reader) -> LinearIndex:
    alpha, q = r.u32(), r.u32()
    l = r.blob()
    grams = r.u32()
    lengths, firsts, counts = r.u32s(grams), r.u32s(grams), r.u32s(grams)
    # A view into the payload, at any alignment: `GramDirectory` copies it
    # once Ψ is freed, so that the copy reuses Ψ's memory.
    rows = r.u32s(counts.sum(dtype=np.int64))
    if not r.done():
        raise MalformedInputError("trailing bytes after index payload")
    return LinearIndex.from_bwt(l, alpha, q, lengths, firsts, counts, rows)


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
