"""String indexes for exact and approximate search.

The package provides two full-text index variants that extend the FM index
with q-gram occurrence lists, a piece-keyed dictionary index answering
Hamming-distance queries with up to k mismatches, fixed-width string
sketches for constant-time comparison screening, brute-force oracles, and a
CLI workbench for building, querying, verifying and benchmarking all of it.
"""

from .errors import MalformedInputError, UnsupportedPatternError
from .textcore import Corpus, FrequencyTable, entropy, minimizers, phrases, printable
from .suffixbwt import (FmIndex, RankIndex, build_count_table, build_suffix_array,
                        bwt_forward, bwt_inverse)
from .fmgram import LinearIndex, SuperlinearIndex, list_rank
from .splitindex import (Dictionary, SplitIndex, SubstitutionTable,
                         decode_word, encode_word, select_qgrams, split_word)
from .sketches import (Sketch, SketchConfig, build_sketch, filtered_compare,
                       hamming_lower_bound, sketch_distance)
from .envelope import deserialize_index, load_index, save_index, serialize_index

__version__ = "0.1.0"

__all__ = [
    "Corpus", "Dictionary", "FmIndex", "FrequencyTable", "LinearIndex",
    "MalformedInputError", "RankIndex", "Sketch", "SketchConfig", "SplitIndex",
    "SubstitutionTable", "SuperlinearIndex",
    "UnsupportedPatternError", "build_count_table", "build_sketch",
    "build_suffix_array", "bwt_forward", "bwt_inverse",
    "decode_word", "deserialize_index",
    "encode_word", "entropy", "filtered_compare",
    "hamming_lower_bound", "list_rank", "load_index", "minimizers", "phrases",
    "printable", "save_index", "select_qgrams", "serialize_index",
    "sketch_distance", "split_word",
]
