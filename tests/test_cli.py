import os
import struct
import zlib

import pytest

from textindex import cli
from textindex.cli import main
from textindex.envelope import FORMAT_VERSION, deserialize_index, serialize_index
from textindex.errors import MalformedInputError
from textindex.fmgram import LinearIndex
from textindex.harness import dna_like_text, english_like_text, random_word_dictionary
from textindex.textcore import Corpus


@pytest.fixture()
def dict_file(tmp_path):
    d = random_word_dictionary(200, seed=31)
    path = tmp_path / "words.txt"
    path.write_bytes(b"\n".join(d.words) + b"\n")
    return path


@pytest.fixture()
def corpus_file(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_bytes(english_like_text(3000, seed=32))
    return path


class TestBuildCommand:
    def test_split_build(self, tmp_path, dict_file, capsys):
        out = tmp_path / "split.idx"
        assert main(["build", "--type", "split", "--k", "1",
                     "--input", str(dict_file), "--out", str(out)]) == 0
        assert out.exists()
        printed = capsys.readouterr().out
        assert "split index" in printed and "load-factor" in printed

    @pytest.mark.parametrize("flags", [[], ["--compress"]], ids=["plain", "coded"])
    @pytest.mark.parametrize("k, counts", [(1, "words=5 skipped=2 entries=10"),
                                           (2, "words=4 skipped=3 entries=12"),
                                           (3, "words=4 skipped=3 entries=16")])
    def test_split_build_counts(self, tmp_path, capsys, k, counts, flags):
        # Seven distinct words load; those of k symbols or fewer are
        # skipped, and each other one is listed once per piece.
        source = tmp_path / "words.txt"
        source.write_bytes(b"table\ncable\nab\na\ntable\n\nbad word\nleft\nx\ntablet\nab\n")
        out = tmp_path / "split.idx"
        assert main(["build", "--type", "split", "--k", str(k), *flags,
                     "--input", str(source), "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == [f"split index: k={k} {counts}",
                             "rejected lines: overlong=0 bad-bytes=1 empty=1"]
        loaded = deserialize_index(out.read_bytes())
        assert len(loaded.reconstruct_words()) == int(counts.rsplit("=", 1)[1])

    def test_k_zero_rejected(self, tmp_path, dict_file):
        out = tmp_path / "split.idx"
        assert main(["build", "--type", "split", "--k", "0",
                     "--input", str(dict_file), "--out", str(out)]) == 2

    def test_fm_super_qmax_one(self, tmp_path, corpus_file, capsys):
        out = tmp_path / "fm.idx"
        assert main(["build", "--type", "fm-super", "--qmax", "1",
                     "--input", str(corpus_file), "--out", str(out)]) == 0

    def test_fm_super_empty_text(self, tmp_path, capsys):
        source = tmp_path / "empty.txt"
        source.write_bytes(b"")
        out = tmp_path / "fm.idx"
        assert main(["build", "--type", "fm-super", "--input", str(source),
                     "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "n=1 q_max=0 grams=0\n" in printed
        assert "load-factor=0.000 buckets=64\n" in printed

    def test_fm_super_bad_qmax(self, tmp_path, corpus_file):
        out = tmp_path / "fm.idx"
        assert main(["build", "--type", "fm-super", "--qmax", "3",
                     "--input", str(corpus_file), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("bad", [
        ["--qmax", "6"], ["--qmax", "0"], ["--qmax=-4"],
        ["--alpha", "0"], ["--q", "0"], ["--q=-1"],
    ])
    def test_bad_fm_values_are_usage_errors(self, tmp_path, corpus_file, capsys, bad):
        # refused before the corpus is read or sorted, with one line
        out = tmp_path / "fm.idx"
        for kind in ("fm-super", "fm-linear"):
            assert main(["build", "--type", kind, "--input", str(corpus_file),
                         "--out", str(out), *bad]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error:") and captured.err.count("\n") == 1
            assert not out.exists()

    def test_k_past_one_byte_rejected(self, tmp_path, dict_file, capsys):
        # a usage error, as --k 0 is, before the dictionary is read
        out = tmp_path / "split.idx"
        for k in ("256", "300"):
            assert main(["build", "--type", "split", "--k", k,
                         "--input", str(dict_file), "--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: --k must be at most 255 for the split index\n"
            assert not out.exists()

    def test_k_255_builds(self, tmp_path, capsys):
        # the largest k; a word holds at most 255 symbols, so none is split
        source = tmp_path / "long.txt"
        source.write_bytes(b"a" * 255 + b"\n")
        out = tmp_path / "split.idx"
        assert main(["build", "--type", "split", "--k", "255",
                     "--input", str(source), "--out", str(out)]) == 0
        assert "k=255 words=0 skipped=1 entries=0\n" in capsys.readouterr().out

    def test_missing_input(self, tmp_path):
        assert main(["build", "--type", "split", "--input",
                     str(tmp_path / "nope.txt"), "--out", str(tmp_path / "o")]) == 1

    def test_deterministic_output(self, tmp_path, dict_file):
        out1 = tmp_path / "a.idx"
        out2 = tmp_path / "b.idx"
        main(["build", "--type", "split", "--input", str(dict_file), "--out", str(out1)])
        main(["build", "--type", "split", "--input", str(dict_file), "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["build", "--type", "bogus", "--input", "x", "--out", "y"])
        assert exc.value.code == 2


class TestQueryCommand:
    def test_fm_count(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_bytes(b"banana")
        out = tmp_path / "fm.idx"
        main(["build", "--type", "fm-super", "--qmax", "4",
              "--input", str(corpus), "--out", str(out)])
        capsys.readouterr()
        assert main(["query", "--index", str(out), "--pattern", "ana",
                     "--op", "count"]) == 0
        assert capsys.readouterr().out == "2\n"

    def test_split_words(self, tmp_path, capsys):
        words = tmp_path / "w.txt"
        words.write_bytes(b"table\nleft\ntablet\n")
        out = tmp_path / "s.idx"
        main(["build", "--type", "split", "--k", "1",
              "--input", str(words), "--out", str(out)])
        capsys.readouterr()
        assert main(["query", "--index", str(out), "--pattern", "tacle"]) == 0
        assert capsys.readouterr().out == "table\n"
        assert main(["query", "--index", str(out), "--pattern", "tacle",
                     "--op", "count"]) == 0
        assert capsys.readouterr().out == "1\n"
        assert main(["query", "--index", str(out), "--pattern", "zzzzz",
                     "--op", "match"]) == 0
        assert capsys.readouterr().out == "0\n"

    def test_short_split_pattern_errors(self, tmp_path, capsys):
        words = tmp_path / "w.txt"
        words.write_bytes(b"table\n")
        out = tmp_path / "s.idx"
        main(["build", "--type", "split", "--k", "1",
              "--input", str(words), "--out", str(out)])
        capsys.readouterr()
        assert main(["query", "--index", str(out), "--pattern", "a"]) == 1
        assert capsys.readouterr().out.startswith("error:")

    def test_batch_line_framing(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_bytes(b"banana")
        out = tmp_path / "fm.idx"
        main(["build", "--type", "fm-super", "--qmax", "4",
              "--input", str(corpus), "--out", str(out)])
        queries = tmp_path / "q.txt"
        queries.write_bytes(b"ana\nna\nzz\n")
        capsys.readouterr()
        assert main(["query", "--index", str(out), "--queries", str(queries)]) == 0
        assert capsys.readouterr().out == "2\n2\n0\n"

    def test_linear_short_pattern_falls_back(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_bytes(b"banana banana band")
        out = tmp_path / "fml.idx"
        main(["build", "--type", "fm-linear", "--alpha", "3", "--q", "4",
              "--input", str(corpus), "--out", str(out)])
        capsys.readouterr()
        # below the minimizer window, so counted by character steps alone
        assert main(["query", "--index", str(out), "--pattern", "ana"]) == 0
        assert capsys.readouterr().out == "4\n"  # two occurrences in each banana

    def test_words_op_rejected_for_fm(self, tmp_path, corpus_file):
        out = tmp_path / "fm.idx"
        main(["build", "--type", "fm-super", "--qmax", "4",
              "--input", str(corpus_file), "--out", str(out)])
        with pytest.raises(SystemExit) as exc:
            main(["query", "--index", str(out), "--pattern", "ab", "--op", "words"])
        assert exc.value.code == 2

    def test_pattern_and_queries_conflict(self, tmp_path, corpus_file):
        out = tmp_path / "fm.idx"
        main(["build", "--type", "fm-super", "--qmax", "4",
              "--input", str(corpus_file), "--out", str(out)])
        with pytest.raises(SystemExit) as exc:
            main(["query", "--index", str(out)])
        assert exc.value.code == 2


class TestVerifyCommand:
    @pytest.mark.parametrize("build_args", [
        ["--type", "split", "--k", "1"],
        ["--type", "split", "--k", "2", "--compress"],
        ["--type", "fm-super", "--qmax", "8"],
        ["--type", "fm-linear", "--alpha", "3", "--q", "4"],
    ])
    def test_healthy_build_verifies(self, tmp_path, dict_file, corpus_file,
                                    capsys, build_args):
        out = tmp_path / "index.idx"
        source = dict_file if build_args[1] == "split" else corpus_file
        assert main(["build", *build_args, "--input", str(source),
                     "--out", str(out)]) == 0
        if build_args[1] != "split":
            # the file's byte count is printed next to the size model
            assert f" file={os.path.getsize(out)} bytes " in capsys.readouterr().out
        capsys.readouterr()
        assert main(["verify", "--index", str(out), "--random", "300",
                     "--seed", "7"]) == 0
        assert "0 discrepancies" in capsys.readouterr().out

    @pytest.mark.parametrize("build_args", [
        ["--type", "fm-super", "--qmax", "8"],
        ["--type", "fm-linear", "--alpha", "3", "--q", "4"],
    ])
    def test_random_reaches_long_patterns(self, tmp_path, capsys, monkeypatch,
                                          build_args):
        # on a text of 200 bytes, the sampled lengths reach 55 and beyond,
        # and 233, longer than the text, is dropped
        source = tmp_path / "corpus.txt"
        source.write_bytes(english_like_text(200, seed=33))
        out = tmp_path / "index.idx"
        assert main(["build", *build_args, "--input", str(source), "--out", str(out)]) == 0
        sample, sampled = cli.sample_patterns, []

        def spy(*args, **kwargs):
            patterns = sample(*args, **kwargs)
            sampled.extend(patterns)
            return patterns

        monkeypatch.setattr(cli, "sample_patterns", spy)
        capsys.readouterr()
        assert main(["verify", "--index", str(out), "--random", "200", "--seed", "7"]) == 0
        assert "0 discrepancies over 200 queries" in capsys.readouterr().out
        lengths = {len(pattern) for pattern in sampled}
        # a linear index (alpha 3, q 4) also samples one window, 6 symbols,
        # and one more
        edges = {6, 7} if build_args[1] == "fm-linear" else set()
        assert max(lengths) >= 55 and edges <= lengths
        assert lengths <= (set(cli.VERIFY_LENGTHS) | edges) - {233}

    def test_verify_deterministic(self, tmp_path, dict_file, capsys):
        out = tmp_path / "s.idx"
        main(["build", "--type", "split", "--input", str(dict_file), "--out", str(out)])
        capsys.readouterr()
        main(["verify", "--index", str(out), "--random", "500", "--seed", "7"])
        first = capsys.readouterr().out
        main(["verify", "--index", str(out), "--random", "500", "--seed", "7"])
        assert capsys.readouterr().out == first

    def test_random_on_one_symbol_words(self, tmp_path, capsys):
        # no symbol is left to substitute, so the queries are the words
        source = tmp_path / "words.txt"
        source.write_bytes(b"aaa\naaaa\n")
        out = tmp_path / "s.idx"
        assert main(["build", "--type", "split", "--input", str(source),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["verify", "--index", str(out), "--random", "5"]) == 0
        assert "0 discrepancies over 5 queries" in capsys.readouterr().out

    @pytest.mark.parametrize("text", [b""])
    def test_random_on_tiny_corpus_is_refused(self, tmp_path, capsys, text):
        # Every sampled length (1 and up) is longer than the empty text.
        source = tmp_path / "tiny.txt"
        source.write_bytes(text)
        out = tmp_path / "tiny.idx"
        assert main(["build", "--type", "fm-super", "--input", str(source),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["verify", "--index", str(out), "--random", "5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("build_args", [
        ["--type", "fm-super"],
        ["--type", "fm-linear", "--alpha", "1", "--q", "1"],
    ])
    def test_random_on_one_symbol_text_verifies(self, tmp_path, capsys, build_args):
        # the sampled lengths start at 1, which fits a text of one symbol
        source = tmp_path / "one.txt"
        source.write_bytes(b"a")
        out = tmp_path / "one.idx"
        assert main(["build", *build_args, "--input", str(source), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["verify", "--index", str(out), "--random", "5"]) == 0
        assert "0 discrepancies over 5 queries" in capsys.readouterr().out

    @pytest.mark.parametrize("random", ["0", "-2"])
    @pytest.mark.parametrize("kind", ["split", "fm-super", "fm-linear"])
    def test_random_below_one_is_a_usage_error(self, tmp_path, dict_file, corpus_file,
                                               capsys, kind, random):
        # a verify that would check nothing is refused before the file is read
        out = tmp_path / "index.idx"
        source = dict_file if kind == "split" else corpus_file
        assert main(["build", "--type", kind, "--input", str(source), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["verify", "--index", str(out), "--random", random]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --random must be at least 1\n"

    @pytest.mark.parametrize("kind", ["split", "fm-super", "fm-linear"])
    def test_empty_queries_file_is_a_failure(self, tmp_path, dict_file, corpus_file,
                                             capsys, kind):
        # a verify that checked no query fails, with one line that says so
        out = tmp_path / "index.idx"
        source = dict_file if kind == "split" else corpus_file
        assert main(["build", "--type", kind, "--input", str(source), "--out", str(out)]) == 0
        queries = tmp_path / "queries.txt"
        queries.write_bytes(b"\n\n")
        capsys.readouterr()
        assert main(["verify", "--index", str(out), "--queries", str(queries)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no query to check\n"

    def test_split_patterns_below_k_plus_one_are_a_failure(self, tmp_path, dict_file,
                                                           capsys):
        # a split index takes patterns of k + 1 symbols and more
        out = tmp_path / "index.idx"
        assert main(["build", "--type", "split", "--k", "2", "--input", str(dict_file),
                     "--out", str(out)]) == 0
        queries = tmp_path / "queries.txt"
        queries.write_bytes(b"ab\nx\nxy->xyz\n")
        capsys.readouterr()
        assert main(["verify", "--index", str(out), "--queries", str(queries)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no query with at least 3 symbols to check\n"

    def test_corrupted_file_rejected(self, tmp_path, dict_file, capsys):
        out = tmp_path / "s.idx"
        main(["build", "--type", "split", "--input", str(dict_file), "--out", str(out)])
        data = bytearray(out.read_bytes())
        data[len(data) // 2] ^= 0x01
        out.write_bytes(bytes(data))
        capsys.readouterr()
        assert main(["verify", "--index", str(out), "--random", "10"]) == 1
        assert "error" in capsys.readouterr().err

    def test_linear_bwt_of_no_text_is_one_error(self, tmp_path, capsys):
        # two neighbouring BWT bytes swapped, in a re-signed file that still
        # loads: the LF mapping is no longer one cycle, so no text comes
        # back for the oracle
        index = LinearIndex.build(Corpus.from_bytes(dna_like_text(500, seed=35)), 3, 4)
        data, l = serialize_index(index), index.fm.l
        # envelope, alpha, q, BWT blob length; then the BWT
        at = 9 + 4 + 4 + 4
        for i in range(len(l) - 1):
            if l[i] == l[i + 1]:
                continue
            swapped = bytearray(data)
            swapped[at + i], swapped[at + i + 1] = l[i + 1], l[i]
            swapped[5:9] = struct.pack("<I", zlib.crc32(swapped[9:]))
            try:
                deserialize_index(bytes(swapped))
            except MalformedInputError:
                continue
            break
        else:
            pytest.fail("no file with two BWT bytes swapped loads")
        out = tmp_path / "linear.idx"
        out.write_bytes(bytes(swapped))
        capsys.readouterr()
        assert main(["verify", "--index", str(out), "--random", "10"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: BWT string's LF mapping is not one cycle through its rows\n")

    def test_previous_format_version_rejected(self, tmp_path, dict_file, capsys):
        out = tmp_path / "s.idx"
        main(["build", "--type", "split", "--input", str(dict_file), "--out", str(out)])
        data = bytearray(out.read_bytes())
        data[4] = FORMAT_VERSION - 1
        out.write_bytes(bytes(data))
        capsys.readouterr()
        assert main(["query", "--index", str(out), "--pattern", "word"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: unsupported format version {FORMAT_VERSION - 1}\n"


def test_unexpected_error_is_one_line(tmp_path, capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("internal fault")

    monkeypatch.setattr(cli, "_cmd_stats", broken)
    path = tmp_path / "data.txt"
    path.write_bytes(b"abab")
    assert main(["stats", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unexpected RuntimeError: internal fault\n"


class TestStatsCommand:
    def test_single_symbol(self, tmp_path, capsys):
        path = tmp_path / "data.txt"
        path.write_bytes(b"aaaa")
        assert main(["stats", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert "entropy\t0.000000" in out

    def test_two_symbols(self, tmp_path, capsys):
        path = tmp_path / "data.txt"
        path.write_bytes(b"abab")
        main(["stats", "--input", str(path)])
        assert "entropy\t1.000000" in capsys.readouterr().out

    def test_english_below_log2_26(self, tmp_path, capsys):
        import math
        path = tmp_path / "data.txt"
        path.write_bytes(english_like_text(20_000, seed=33))
        main(["stats", "--input", str(path)])
        line = [l for l in capsys.readouterr().out.splitlines()
                if l.startswith("entropy")][0]
        assert float(line.split("\t")[1]) < math.log2(26)


class TestBenchCommand:
    def test_csv_shape(self, tmp_path, dict_file, capsys):
        assert main(["bench", "--type", "split", "--input", str(dict_file),
                     "--k", "1,2", "--random", "30", "--repeats", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("structure,params,dataset,index_bytes")
        assert len(lines) == 3
        assert lines[1].startswith("split,")

    def test_one_symbol_words(self, tmp_path, capsys):
        # noisy queries over a one-symbol alphabet are the words themselves
        source = tmp_path / "words.txt"
        source.write_bytes(b"aaa\naaaa\n")
        assert main(["bench", "--type", "split", "--input", str(source),
                     "--random", "5", "--repeats", "1"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2

    def test_header_matches_help(self, dict_file, capsys):
        with pytest.raises(SystemExit):
            main(["bench", "--help"])
        listed = capsys.readouterr().out.split("CSV columns: ", 1)[1].split(".\n", 1)[0]
        assert main(["bench", "--type", "split", "--input", str(dict_file),
                     "--random", "5", "--repeats", "1"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header.split(",") == listed.split(", ")

    @pytest.mark.parametrize("bad", [
        ["--repeats", "0"], ["--repeats", "-2"], ["--random", "-1"],
        ["--lengths", "0"], ["--lengths=-3"], ["--lengths", "8,x"], ["--lengths", ""],
        ["--k", "0"], ["--k", "1,-1"], ["--k", "two"],
        ["--qmax", "3"], ["--qmax", "0"], ["--alpha", "0"], ["--q", "0"],
    ])
    def test_bad_values_are_usage_errors(self, dict_file, corpus_file, capsys, bad):
        for kind, source in (("split", dict_file), ("fm-linear", corpus_file)):
            assert main(["bench", "--type", kind, "--input", str(source),
                         "--random", "5", "--repeats", "1", *bad]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("k", ["256", "1,256"])
    def test_split_k_past_one_byte_is_a_usage_error(self, dict_file, capsys, k):
        assert main(["bench", "--type", "split", "--input", str(dict_file),
                     "--random", "5", "--repeats", "1", "--k", k]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --k must be at most 255 for the split index\n"
