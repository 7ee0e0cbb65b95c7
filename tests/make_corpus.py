"""Regenerate the report corpus under ``tests/corpus/``.

Each command line of ``tests/corpus/lines.txt`` runs as its own
``python -m weldlab.cli`` process in an empty directory. Every file it
writes is copied to ``tests/corpus/files/``; its exit code, stdout and
stderr go to ``tests/corpus/expected.json``, whose header names the numpy
and BLAS versions the corpus was made with. ``tests/test_corpus.py``
replays the lines as one ``weldlab batch`` child and compares everything
byte for byte. Every child runs in the environment ``child_env`` gives,
so BLAS runs on the thread count the command line sets, whatever this
shell exports: a product's last digit can depend on it.

    python tests/make_corpus.py [--src DIR]

``--src`` is the directory that holds the ``weldlab`` package to run
(default: the ``src`` beside this ``tests``), so a corpus can be made from
another commit's checkout. A change that moves a corpus file lists each
file and the digits that moved.
"""

import argparse
import json
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

CORPUS = Path(__file__).resolve().parent / "corpus"
SRC = CORPUS.parent.parent / "src"


def command_lines() -> list:
    """``(line number, argv)`` of each command line of ``lines.txt``, read
    as ``weldlab batch`` reads it."""
    raw = (CORPUS / "lines.txt").read_text().splitlines()
    return [(n, argv) for n, argv in
            enumerate((shlex.split(line, comments=True) for line in raw), 1)
            if argv]


def versions() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def child_env(src) -> dict:
    """The environment of a command-line child: this one without
    ``WELDLAB_OUTDIR`` and ``OPENBLAS_NUM_THREADS``, and with ``src`` first
    on ``PYTHONPATH``."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("WELDLAB_OUTDIR", "OPENBLAS_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p)
    return env


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=str(SRC),
                    help="directory holding the weldlab package to run")
    args = ap.parse_args(argv)
    env = child_env(args.src)
    files = CORPUS / "files"
    shutil.rmtree(files, ignore_errors=True)
    files.mkdir()
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for n, line in command_lines():
            work = Path(tmp, str(n))
            work.mkdir()
            done = subprocess.run([sys.executable, "-m", "weldlab.cli", *line],
                                  cwd=work, env=env, capture_output=True,
                                  text=True, timeout=600)
            written = sorted(p.name for p in work.iterdir())
            for name in written:
                if (files / name).exists():
                    sys.exit(f"line {n} writes {name}, as an earlier line did")
                shutil.copyfile(work / name, files / name)
            lines.append({"line": n, "exit": done.returncode,
                          "stdout": done.stdout, "stderr": done.stderr,
                          "files": written})
            print(f"line {n}: exit {done.returncode}, {len(written)} files")
    doc = {**versions(), "lines": lines}
    (CORPUS / "expected.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
