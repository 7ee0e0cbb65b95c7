"""The report corpus, replayed as one ``weldlab batch`` child process.

``tests/corpus/`` holds the files, exit codes, stdout and stderr of its
command lines, each run as its own process (``tests/make_corpus.py``).
One batch of the same lines, run as ``python -m weldlab.cli`` in the
environment the maker gives its children, must give every byte back: no
report moved, and a batch line does what its own process does. The child
sets its BLAS thread count as every command-line process does, so the
thread count of this process does not enter. Every command but ``batch``
starts one of the lines.
"""

import json
import subprocess
import sys

import pytest

from make_corpus import CORPUS, SRC, child_env, command_lines, versions
from weldlab import cli


def test_corpus_replays_byte_for_byte(tmp_path):
    expected = json.loads((CORPUS / "expected.json").read_text())
    made = {key: expected[key] for key in ("numpy", "blas")}
    if made != versions():
        pytest.fail(f"the corpus was made with {made} and runs with "
                    f"{versions()}; remake it with tests/make_corpus.py")
    lines = expected["lines"]
    done = subprocess.run([sys.executable, "-m", "weldlab.cli", "batch",
                           str(CORPUS / "lines.txt")], cwd=tmp_path,
                          env=child_env(SRC), capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == max(line["exit"] for line in lines)
    assert done.stdout == "".join(line["stdout"] for line in lines)
    assert done.stderr == "".join(f"{line['stderr']}line {line['line']}: "
                                  f"exit {line['exit']}\n" for line in lines)
    names = [name for line in lines for name in line["files"]]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
    moved = [name for name in names if (tmp_path / name).read_bytes()
             != (CORPUS / "files" / name).read_bytes()]
    assert moved == []


def test_every_command_is_in_the_corpus():
    # batch runs the corpus, so every other command must be one of its
    # lines: a new command cannot skip the byte-for-byte replay
    started = {argv[0] for _, argv in command_lines()}
    assert sorted(set(cli._COMMANDS) - {"batch"} - started) == []
