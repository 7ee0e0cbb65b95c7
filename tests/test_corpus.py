"""The report corpus, replayed as one ``weldlab batch`` in this process.

``tests/corpus/`` holds the files, exit codes, stdout and stderr of its
command lines, each run as its own process (``tests/make_corpus.py``).
One batch of the same lines must give every byte back: no report moved,
and a batch line does what its own process does.
"""

import ctypes
import json
from pathlib import Path

import numpy as np
import pytest

from make_corpus import CORPUS, versions
from weldlab import cli


def _openblas_threads():
    """The get and set calls of the OpenBLAS thread count that numpy
    loads, or None when there are none."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get = getattr(handle, f"{prefix}get_num_threads{suffix}", None)
                put = getattr(handle, f"{prefix}set_num_threads{suffix}", None)
                if get and put:
                    get.restype, put.argtypes = ctypes.c_int, [ctypes.c_int]
                    return get, put
    return None


@pytest.fixture
def one_blas_thread():
    """BLAS on one thread, as in a command-line process: a product's last
    digit can depend on the thread count (grunsky's relation residuals
    do), and this process loaded numpy before the command line could set
    it."""
    calls = _openblas_threads()
    if calls is None:
        yield
        return
    get, put = calls
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def test_corpus_replays_byte_for_byte(tmp_path, monkeypatch, capsys,
                                      one_blas_thread):
    expected = json.loads((CORPUS / "expected.json").read_text())
    made = {key: expected[key] for key in ("numpy", "blas")}
    if made != versions():
        pytest.fail(f"the corpus was made with {made} and runs with "
                    f"{versions()}; remake it with tests/make_corpus.py")
    lines = expected["lines"]
    monkeypatch.delenv("WELDLAB_OUTDIR", raising=False)
    monkeypatch.chdir(tmp_path)
    code = cli.main(["batch", str(CORPUS / "lines.txt")])
    out, err = capsys.readouterr()
    assert code == max(line["exit"] for line in lines)
    assert out == "".join(line["stdout"] for line in lines)
    assert err == "".join(f"{line['stderr']}line {line['line']}: exit "
                          f"{line['exit']}\n" for line in lines)
    names = [name for line in lines for name in line["files"]]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
    moved = [name for name in names if (tmp_path / name).read_bytes()
             != (CORPUS / "files" / name).read_bytes()]
    assert moved == []
