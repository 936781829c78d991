"""Non-cryptographic string hash functions for bucket-layout reports.

All functions take bytes and return an unsigned 32-bit integer.
`hashmap.bucket_report` looks them up by name through `get_hash`, so the
chain statistics of different functions can be compared without touching
index code.
"""

import zlib

_M32 = 0xFFFFFFFF

_XXP1 = 2654435761
_XXP2 = 2246822519
_XXP3 = 3266489917
_XXP4 = 668265263
_XXP5 = 374761393


def _rotl(x, r):
    return ((x << r) | (x >> (32 - r))) & _M32


def xxhash32(data: bytes, seed: int = 0) -> int:
    n = len(data)
    i = 0
    if n >= 16:
        v1 = (seed + _XXP1 + _XXP2) & _M32
        v2 = (seed + _XXP2) & _M32
        v3 = seed & _M32
        v4 = (seed - _XXP1) & _M32
        while i <= n - 16:
            v1 = (_rotl((v1 + int.from_bytes(data[i:i + 4], "little") * _XXP2) & _M32, 13) * _XXP1) & _M32
            v2 = (_rotl((v2 + int.from_bytes(data[i + 4:i + 8], "little") * _XXP2) & _M32, 13) * _XXP1) & _M32
            v3 = (_rotl((v3 + int.from_bytes(data[i + 8:i + 12], "little") * _XXP2) & _M32, 13) * _XXP1) & _M32
            v4 = (_rotl((v4 + int.from_bytes(data[i + 12:i + 16], "little") * _XXP2) & _M32, 13) * _XXP1) & _M32
            i += 16
        h = (_rotl(v1, 1) + _rotl(v2, 7) + _rotl(v3, 12) + _rotl(v4, 18)) & _M32
    else:
        h = (seed + _XXP5) & _M32
    h = (h + n) & _M32
    while i + 4 <= n:
        h = (h + int.from_bytes(data[i:i + 4], "little") * _XXP3) & _M32
        h = (_rotl(h, 17) * _XXP4) & _M32
        i += 4
    while i < n:
        h = (h + data[i] * _XXP5) & _M32
        h = (_rotl(h, 11) * _XXP1) & _M32
        i += 1
    h ^= h >> 15
    h = (h * _XXP2) & _M32
    h ^= h >> 13
    h = (h * _XXP3) & _M32
    h ^= h >> 16
    return h


def murmur3_32(data: bytes, seed: int = 0) -> int:
    c1 = 0xCC9E2D51
    c2 = 0x1B873593
    h = seed & _M32
    n = len(data)
    i = 0
    while i + 4 <= n:
        k = int.from_bytes(data[i:i + 4], "little")
        k = (k * c1) & _M32
        k = _rotl(k, 15)
        k = (k * c2) & _M32
        h ^= k
        h = _rotl(h, 13)
        h = (h * 5 + 0xE6546B64) & _M32
        i += 4
    k = 0
    tail = data[i:]
    if len(tail) >= 3:
        k ^= tail[2] << 16
    if len(tail) >= 2:
        k ^= tail[1] << 8
    if len(tail) >= 1:
        k ^= tail[0]
        k = (k * c1) & _M32
        k = _rotl(k, 15)
        k = (k * c2) & _M32
        h ^= k
    h ^= n
    h ^= h >> 16
    h = (h * 0x85EBCA6B) & _M32
    h ^= h >> 13
    h = (h * 0xC2B2AE35) & _M32
    h ^= h >> 16
    return h


def fnv1_32(data: bytes) -> int:
    h = 0x811C9DC5
    for b in data:
        h = (h * 0x01000193) & _M32
        h ^= b
    return h


def fnv1a_32(data: bytes) -> int:
    h = 0x811C9DC5
    for b in data:
        h ^= b
        h = (h * 0x01000193) & _M32
    return h


def sdbm(data: bytes) -> int:
    h = 0
    for b in data:
        h = (b + (h << 6) + (h << 16) - h) & _M32
    return h


def djb2(data: bytes) -> int:
    h = 5381
    for b in data:
        h = (h * 33 + b) & _M32
    return h


def crc32(data: bytes) -> int:
    # zlib's C implementation; useful when hashing dominates build time.
    return zlib.crc32(data) & _M32


HASH_FUNCTIONS = {
    "xxhash32": xxhash32,
    "murmur3": murmur3_32,
    "fnv1": fnv1_32,
    "fnv1a": fnv1a_32,
    "sdbm": sdbm,
    "djb2": djb2,
    "crc32": crc32,
}

DEFAULT_HASH = "xxhash32"


def get_hash(name: str):
    try:
        return HASH_FUNCTIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown hash function {name!r}; available: {', '.join(sorted(HASH_FUNCTIONS))}"
        ) from None
