"""The checkout-comparison driver, `scripts/checkouts.py`, run through a
small script whose worker's result comes from a module in each --src."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

FAKE = '''"""A fake comparison script."""

from checkouts import compare, first, table

CELLS = ["small", "large"]


def worker(args):
    from fake import DIGEST, FORMAT

    result = {"digest": f"{DIGEST}-{args.cell}-{args.size}"}
    if FORMAT is not None:
        result["format"] = FORMAT
    return result


if __name__ == "__main__":
    args, runs = compare(__doc__, CELLS, worker, size=3)
    table("cell", CELLS, args, runs, [("digest", first("digest"))])
'''


def run(tmp_path, *checkouts, src=None):
    """Write a checkout src directory per (digest, format) pair and run the
    fake script over them, or over `src` when given."""
    script = tmp_path / "fake_bench.py"
    script.write_text(FAKE)
    names = []
    for i, (digest, version) in enumerate(checkouts):
        names.append(f"src{i}")
        (tmp_path / names[-1]).mkdir()
        (tmp_path / names[-1] / "fake.py").write_text(f"DIGEST = {digest!r}\nFORMAT = {version!r}\n")
    command = [sys.executable, str(script), "--rounds", "2", "--size", "5"]
    for name in src or names:
        command += ["--src", name]
    env = {**os.environ, "PYTHONPATH": str(SCRIPTS)}
    return subprocess.run(command, cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=60)


def test_equal_digests_print_a_column_per_checkout(tmp_path):
    done = run(tmp_path, ("a", 1), ("a", 1))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "| cell | digest src0 | digest src1 |",
        "|---|---|---|",
        "| small | a-small-5 | a-small-5 |",
        "| large | a-large-5 | a-large-5 |",
    ]


@pytest.mark.parametrize("version", [1, None])
def test_different_digests_of_one_format_refused(tmp_path, version):
    done = run(tmp_path, ("a", version), ("b", version))
    assert done.returncode != 0
    assert done.stderr.startswith("small: ")
    assert done.stdout == ""


def test_different_formats_may_differ(tmp_path):
    done = run(tmp_path, ("a", 1), ("b", 2))
    assert done.returncode == 0, done.stderr


def test_repeated_src_refused(tmp_path):
    done = run(tmp_path, ("a", 1), src=["src0", "src0"])
    assert done.returncode == 2
    assert "each --src may be given once" in done.stderr


def test_src_that_is_no_directory_refused(tmp_path):
    done = run(tmp_path, ("a", 1), src=["src0", "missing"])
    assert done.returncode == 2
    assert done.stderr.splitlines()[-1].endswith("error: --src missing is not a directory")
    assert done.stdout == ""


def test_failed_cell_names_cell_and_checkout(tmp_path):
    # an empty directory holds no `fake` module, so its first cell fails
    (tmp_path / "empty").mkdir()
    done = run(tmp_path, ("a", 1), src=["src0", "empty"])
    assert done.returncode == 1
    assert done.stderr.splitlines() == [
        "small: the checkout empty failed: ModuleNotFoundError: No module named 'fake'"]
    assert done.stdout == ""
