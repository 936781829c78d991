"""The benchmark's tracer (perfbench/tracer.py) wraps package functions by
name.  Installing it here makes a renamed or moved wrap point fail the test
suite, not only a traced benchmark run."""

import importlib.util
from pathlib import Path

from textindex.fmgram import GramDirectory, SuperlinearIndex
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
    # The lookups the indexes make go through the wrapped names.
    for layer in ("fmgram.entry_for", "fmgram.get", "hashmap.put", "hashmap.get"):
        assert tracer.total(layer, field=0) > 0, layer
    assert (vars(GramDirectory)["get"], vars(GramDirectory)["entry_for"],
            vars(ChainedHashMap)["get"], vars(ChainedHashMap)["put"]) == originals
