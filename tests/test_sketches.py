import itertools
import random

import pytest

from textindex.harness import hamming_distance
from textindex.sketches import (COUNT, OCCURRENCE, SketchConfig, build_sketch,
                                filtered_compare, hamming_lower_bound,
                                sketch_distance)


class TestConfig:
    def test_occurrence_slot_count(self):
        with pytest.raises(ValueError):
            SketchConfig(mode=OCCURRENCE, grams=tuple(b"abc"), width=1)

    def test_count_slot_count(self):
        cfg = SketchConfig(mode=COUNT, grams=tuple(b"acgt"), width=1)
        assert len(cfg.grams) == 4

    def test_policies(self):
        common = SketchConfig.from_policy("most-common", width=2)
        assert bytes(common.grams) == b"etaoinshrdlcumwf"
        rare = SketchConfig.from_policy("least-common", width=1)
        assert bytes(rare.grams) == b"pbvkjxqz"
        mixed = SketchConfig.from_policy("mixed", width=1)
        assert bytes(mixed.grams) == b"etao" + b"jxqz"

    @pytest.mark.parametrize("policy", ["most-common", "least-common", "mixed"])
    def test_zero_width_tracks_no_letters(self, policy):
        assert SketchConfig.from_policy(policy, width=0).grams == ()

    @pytest.mark.parametrize("policy, first", [
        ("most-common", b"etao"), ("least-common", b"jxqz"), ("mixed", b"etqz")])
    def test_policy_letter_counts(self, policy, first):
        # one slot per tracked letter: 8 a byte in occurrence mode, 4 in count mode
        assert bytes(SketchConfig.from_policy(policy, mode=COUNT, width=1).grams) == first
        for mode, width, slots in [(OCCURRENCE, 1, 8), (OCCURRENCE, 3, 24), (COUNT, 6, 24)]:
            grams = SketchConfig.from_policy(policy, mode=mode, width=width).grams
            assert len(grams) == slots and set(grams) <= set(b"abcdefghijklmnopqrstuvwxyz")

    @pytest.mark.parametrize("policy", ["most-common", "least-common", "mixed"])
    @pytest.mark.parametrize("mode, width", [(OCCURRENCE, -1), (COUNT, 7), (OCCURRENCE, 4)],
                             ids=["-8", "28", "32"])
    def test_more_letters_than_the_alphabet_refused(self, policy, mode, width):
        with pytest.raises(ValueError, match="outside 0..26"):
            SketchConfig.from_policy(policy, mode=mode, width=width)

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown policy"):
            SketchConfig.from_policy("alphabetical")
        # named before the letter count is checked
        with pytest.raises(ValueError, match="unknown policy"):
            SketchConfig.from_policy("alphabetical", width=4)

    def test_fields_hashed_once(self):
        # every `build_sketch` cache lookup hashes the config; the grams
        # tuple is hashed when the config is made, never again
        class Grams(tuple):
            hashed = 0

            def __hash__(self):
                Grams.hashed += 1
                return tuple.__hash__(self)

        cfg = SketchConfig(mode=OCCURRENCE, grams=Grams(b"etaoinsh"), width=1)
        for word in (b"one", b"two", b"one"):
            build_sketch(word, cfg)
        assert hash(cfg) == hash(cfg) and Grams.hashed == 1
        same = SketchConfig(mode=OCCURRENCE, grams=tuple(b"etaoinsh"), width=1)
        assert same == cfg and hash(same) == hash(cfg)
        assert {cfg: 1}[same] == 1


class TestBuildSketch:
    def test_worked_example(self):
        cfg = SketchConfig.from_policy("most-common", mode=OCCURRENCE, width=1)
        assert bytes(cfg.grams) == b"etaoinsh"
        assert build_sketch(b"instance", cfg).bitstring() == "11101110"

    def test_empty_word(self):
        cfg = SketchConfig.from_policy("most-common", width=2)
        assert build_sketch(b"", cfg).bits == 0

    def test_count_saturation(self):
        cfg = SketchConfig(mode=COUNT, grams=tuple(b"abnx"), width=1)
        sketch = build_sketch(b"banana", cfg)
        # a appears 3 times (saturated), b once, n twice, x never
        assert sketch.bits & 0b11 == 3
        assert (sketch.bits >> 2) & 0b11 == 1
        assert (sketch.bits >> 4) & 0b11 == 2
        assert (sketch.bits >> 6) & 0b11 == 0

    def test_count_saturates_above_three(self):
        cfg = SketchConfig(mode=COUNT, grams=tuple(b"abnx"), width=1)
        assert build_sketch(b"aaaaaaa", cfg).bits & 0b11 == 3

    def test_deterministic(self):
        cfg = SketchConfig.from_policy("most-common", width=2)
        assert build_sketch(b"instance", cfg) == build_sketch(b"instance", cfg)


class TestSketchDistance:
    def test_identical(self):
        cfg = SketchConfig.from_policy("most-common", width=2)
        s = build_sketch(b"word", cfg)
        assert sketch_distance(s, s) == 0

    def test_run_ran(self):
        cfg = SketchConfig.from_letters(b"aurnetos", mode=OCCURRENCE, width=1)
        d = sketch_distance(build_sketch(b"run", cfg), build_sketch(b"ran", cfg))
        assert d == 2
        assert hamming_lower_bound(d) == 1

    def test_config_mismatch_rejected(self):
        c1 = SketchConfig.from_policy("most-common", width=1)
        c2 = SketchConfig.from_policy("least-common", width=1)
        with pytest.raises(ValueError):
            sketch_distance(build_sketch(b"a", c1), build_sketch(b"a", c2))

    def test_matches_bit_loop(self):
        rng = random.Random(3)
        cfg = SketchConfig.from_policy("mixed", width=2)
        for _ in range(500):
            w1 = bytes(rng.choice(b"abcdefghijklmnopqrstuvwxyz") for _ in range(8))
            w2 = bytes(rng.choice(b"abcdefghijklmnopqrstuvwxyz") for _ in range(8))
            s1, s2 = build_sketch(w1, cfg), build_sketch(w2, cfg)
            x = s1.bits ^ s2.bits
            assert sketch_distance(s1, s2) == bin(x).count("1")


class TestLowerBound:
    def test_zero(self):
        assert hamming_lower_bound(0) == 0

    def test_ceiling(self):
        assert [hamming_lower_bound(v) for v in range(6)] == [0, 1, 1, 2, 2, 3]

    def test_past_512(self):
        # differences of sketches wider than 64 bytes have no upper limit
        assert hamming_lower_bound(600) == 300
        assert hamming_lower_bound(601) == 301

    def test_negative_refused(self):
        with pytest.raises(ValueError):
            hamming_lower_bound(-1)


class TestFilteredCompare:
    def test_equal_words(self):
        cfg = SketchConfig.from_policy("most-common", width=2)
        assert filtered_compare(b"same", b"same", 0, cfg)

    def test_unequal_lengths_rejected(self):
        cfg = SketchConfig.from_policy("most-common", width=2)
        with pytest.raises(ValueError):
            filtered_compare(b"ab", b"abc", 1, cfg)

    def test_count_mode_saturation_still_verifies(self):
        # counts 3 vs 1 differ by one bit though the true gap is 2; the
        # filter must fall through to verification and agree with the loop
        cfg = SketchConfig(mode=COUNT, grams=tuple(b"abnx"), width=1)
        w1, w2 = b"aaab", b"abbb"
        assert filtered_compare(w1, w2, 2, cfg) == (hamming_distance(w1, w2) <= 2)
        assert filtered_compare(w1, w2, 1, cfg) == (hamming_distance(w1, w2) <= 1)

    def test_any_bytes_match_the_hamming_distance(self):
        # tracked letters that the words never hold, so no sketch rejects
        # and every answer comes from the mismatch count; bytes 0 and 255
        # and leading mismatches included
        cfg = SketchConfig.from_policy("least-common", width=1)
        rng = random.Random(255)
        for length in range(0, 24):
            for _ in range(40):
                w1 = bytes(rng.choice(b"\x00\x01\x80\xff") for _ in range(length))
                w2 = bytes(rng.choice((w1[i], rng.choice(b"\x00\x01\x80\xff")))
                           for i in range(length))
                h = hamming_distance(w1, w2)
                for k in range(length + 1):
                    assert filtered_compare(w1, w2, k, cfg) == (h <= k)

    def test_count_mode_rejects_only_at_k0(self):
        cfg = SketchConfig(mode=COUNT, grams=tuple(b"abnx"), width=1)
        assert not filtered_compare(b"aaaa", b"abab", 0, cfg)
        assert filtered_compare(b"aaaa", b"aaaa", 0, cfg)

    def test_exhaustive_small_alphabet(self):
        sigma = b"acgt"
        filler = bytes(range(1, 13))
        cfg = SketchConfig.from_letters(sigma + filler, mode=OCCURRENCE, width=2)
        words = [bytes(w) for L in range(0, 5)
                 for w in itertools.product(sigma, repeat=L)]
        by_length = {}
        for w in words:
            by_length.setdefault(len(w), []).append(w)
        for group in by_length.values():
            for i, w1 in enumerate(group):
                for w2 in group[i:]:
                    h = hamming_distance(w1, w2)
                    d = sketch_distance(build_sketch(w1, cfg), build_sketch(w2, cfg))
                    assert hamming_lower_bound(d) <= h
                    for k in (0, 1, 2):
                        assert filtered_compare(w1, w2, k, cfg) == (h <= k)

    def test_randomized_english(self):
        rng = random.Random(9)
        cfg = SketchConfig.from_policy("most-common", width=2)
        letters = b"abcdefghijklmnopqrstuvwxyz"
        rejected = total = 0
        for _ in range(20_000):
            length = rng.randint(3, 12)
            w1 = bytes(rng.choice(letters) for _ in range(length))
            if rng.random() < 0.5:
                w2 = bytearray(w1)
                for _ in range(rng.randint(1, 3)):
                    w2[rng.randrange(length)] = rng.choice(letters)
                w2 = bytes(w2)
            else:
                w2 = bytes(rng.choice(letters) for _ in range(length))
            h = hamming_distance(w1, w2)
            d = sketch_distance(build_sketch(w1, cfg), build_sketch(w2, cfg))
            assert hamming_lower_bound(d) <= h
            total += 1
            if hamming_lower_bound(d) > 1:
                rejected += 1
            for k in (1, 2):
                assert filtered_compare(w1, w2, k, cfg) == (h <= k)
        # effectiveness is configuration-dependent; just report the rate
        print(f"\nsketch rejection rate at k=1: {rejected / total:.3f}")
