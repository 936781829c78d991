"""Hash functions by name, kept only because traced benchmark runs wrap each
value of `HASH_FUNCTIONS`.

No build, load or query path hashes.  `ChainedHashMap.stats()` calls
`zlib.crc32` itself, not through this dict.
"""

import zlib

HASH_FUNCTIONS = {"crc32": zlib.crc32}
