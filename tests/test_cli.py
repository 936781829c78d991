import pytest

from textindex import cli
from textindex.cli import main
from textindex.harness import english_like_text, random_word_dictionary


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

    def test_k_zero_rejected(self, tmp_path, dict_file):
        out = tmp_path / "split.idx"
        assert main(["build", "--type", "split", "--k", "0",
                     "--input", str(dict_file), "--out", str(out)]) == 2

    def test_fm_super_qmax_one(self, tmp_path, corpus_file, capsys):
        out = tmp_path / "fm.idx"
        assert main(["build", "--type", "fm-super", "--qmax", "1",
                     "--input", str(corpus_file), "--out", str(out)]) == 0

    def test_fm_super_bad_qmax(self, tmp_path, corpus_file):
        out = tmp_path / "fm.idx"
        assert main(["build", "--type", "fm-super", "--qmax", "3",
                     "--input", str(corpus_file), "--out", str(out)]) == 1

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
        # below the minimizer window; answered by the character-level substrate
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
        capsys.readouterr()
        assert main(["verify", "--index", str(out), "--random", "300",
                     "--seed", "7"]) == 0
        assert "0 discrepancies" in capsys.readouterr().out

    def test_verify_deterministic(self, tmp_path, dict_file, capsys):
        out = tmp_path / "s.idx"
        main(["build", "--type", "split", "--input", str(dict_file), "--out", str(out)])
        capsys.readouterr()
        main(["verify", "--index", str(out), "--random", "500", "--seed", "7"])
        first = capsys.readouterr().out
        main(["verify", "--index", str(out), "--random", "500", "--seed", "7"])
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("text", [b"", b"a"])
    def test_random_on_tiny_corpus_is_refused(self, tmp_path, capsys, text):
        # Every sampled length (2 and up) is longer than the corpus.
        source = tmp_path / "tiny.txt"
        source.write_bytes(text)
        out = tmp_path / "tiny.idx"
        assert main(["build", "--type", "fm-super", "--input", str(source),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["verify", "--index", str(out), "--random", "5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_corrupted_file_rejected(self, tmp_path, dict_file, capsys):
        out = tmp_path / "s.idx"
        main(["build", "--type", "split", "--input", str(dict_file), "--out", str(out)])
        data = bytearray(out.read_bytes())
        data[len(data) // 2] ^= 0x01
        out.write_bytes(bytes(data))
        capsys.readouterr()
        assert main(["verify", "--index", str(out), "--random", "10"]) == 1
        assert "error" in capsys.readouterr().err


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
