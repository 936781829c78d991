"""xxhash32, the hash that `ChainedHashMap.stats()` chains keys by.

It takes bytes and returns an unsigned 32-bit integer.  No build, load or
query path hashes; only the chain report calls it.
"""

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


# Kept only as a name: traced benchmark runs wrap each value of this dict.
HASH_FUNCTIONS = {"xxhash32": xxhash32}
