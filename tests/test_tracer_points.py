"""The benchmark's tracer (perfbench/tracer.py) wraps package functions by
name.  Installing it here makes a renamed or moved wrap point fail the test
suite, not only a traced benchmark run."""

import importlib.util
from pathlib import Path

from textindex import envelope
from textindex.fmgram import GramDirectory, LinearIndex, SuperlinearIndex
from textindex.hashmap import ChainedHashMap
from textindex.splitindex import Dictionary, SplitIndex
from textindex.textcore import Corpus

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrap_point_installs_and_uninstalls():
    originals = (vars(GramDirectory)["get"], vars(GramDirectory)["entry_for"],
                 vars(ChainedHashMap)["get"], vars(ChainedHashMap)["put"])
    tracer = load_tracer_module().Tracer()
    tracer.install()
    try:
        index = SuperlinearIndex.build(Corpus.from_bytes(b"banana"), q_max=4)
        assert index.count(b"ana") == 2
        split = SplitIndex.build(Dictionary([b"table", b"left", b"tablet"]), 1)
        assert split.query(b"tacle") == {b"table"}
    finally:
        tracer.uninstall()
    # The lookups and stores the indexes make go through the wrapped names.
    # A split query reads its groups from a list per word length, so no
    # package code calls `ChainedHashMap.get`: its wrap point installs, but
    # counts nothing.
    for layer in ("fmgram.entry_for", "fmgram.get", "hashmap.put"):
        assert tracer.total(layer, field=0) > 0, layer
    assert (vars(GramDirectory)["get"], vars(GramDirectory)["entry_for"],
            vars(ChainedHashMap)["get"], vars(ChainedHashMap)["put"]) == originals


def test_superlinear_load_sorts_suffixes_through_the_wrap_point():
    # a load sorts the corpus's suffixes as a build does; traced runs time
    # that apart from the rest of `envelope.deserialize`
    data = envelope.serialize_index(SuperlinearIndex.build(Corpus.from_bytes(b"banana"), q_max=4))
    tracer = load_tracer_module().Tracer()
    tracer.install()
    try:
        with tracer.span("load"):
            # looked up through the module, where the tracer wraps it
            assert envelope.deserialize_index(data).count(b"ana") == 2
    finally:
        tracer.uninstall()
    assert tracer.total("suffixbwt.sa", field=0, phase="load",
                        owner="envelope.deserialize") == 1


def test_linear_build_and_load_pass_the_bwt_wrap_points():
    # a linear build sorts the suffixes, writes the BWT and builds the LF
    # mapping and count table through the wrapped names, and a load builds
    # the last two again from the stored BWT
    corpus = Corpus.from_bytes(b"mississippi" * 4)
    tracer = load_tracer_module().Tracer()
    tracer.install()
    try:
        with tracer.span("setup"):
            data = envelope.serialize_index(LinearIndex.build(corpus, alpha=2, q=2))
        with tracer.span("load"):
            assert envelope.deserialize_index(data).count(b"ssi") == 8
    finally:
        tracer.uninstall()
    for layer in ("suffixbwt.sa", "suffixbwt.bwt", "suffixbwt.rank_build"):
        assert tracer.total(layer, field=0, phase="setup", owner="fmgram.build") == 1, layer
    assert tracer.total("suffixbwt.rank_build", field=0, phase="load",
                        owner="envelope.deserialize") == 1


def test_linear_build_selects_minimizers_and_phrases_once():
    # the build's minimizer and phrase stages are each one call through the
    # wrapped names, timed under the build
    corpus = Corpus.from_bytes(b"mississippi" * 4)
    tracer = load_tracer_module().Tracer()
    tracer.install()
    try:
        with tracer.span("setup"):
            assert LinearIndex.build(corpus, alpha=2, q=2).count(b"ssi") == 8
    finally:
        tracer.uninstall()
    for layer in ("textcore.minimizers", "textcore.phrases"):
        assert tracer.total(layer, field=0) == 1, layer
        assert tracer.total(layer, field=0, phase="setup", owner="fmgram.build") == 1, layer
