"""Command lines drawn from the flag table, run in process through
``cli._batch_line``: every line must end in the command line's contract.

The contract: the exit code is 0 (success), 1 (a tolerance check failed),
2 (invalid input) or 3 (numerical failure); stderr holds no traceback; and
the report of an exit-0 or exit-1 line parses, holds only finite numbers,
and has every potential s2 <= 1e-12 and every action S1 >= -1e-12.

Each flag of a ``cli._COMMANDS`` row draws its value from a pool of valid
values (c <= 0.6, eps <= 0.9, N <= 128, grids from 2x2 to 64x128, L <= 3)
or, one time in ten, of invalid ones (nan, inf, negatives, non-numbers,
empty and unordered lists, N = 4096000, a choice no row lists); a flag
with no pool fails the first test, so a new flag cannot go unfuzzed.
``fuchsian --L`` draws no valid value in 4..7, which take up to 6.5 s and
672 MB; L = 8, predicted to need about 4.7 GB, is refused before any
element is composed, so it is in the invalid pool. Pairs of the catalog
are cached across lines, as in a ``batch`` run, and the draws are
derandomized, so every run takes the same lines and about the same time
(about 2 s).
"""

import contextlib
import io
import json
import math
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from weldlab import cli, maps

# the parameter flags each family reads, from the rows of ``maps.FAMILIES``,
# which decide them; a line gives the others only by a rare flip, which the
# catalog refuses
READS = {family: tuple(f"--{name}" for name in names)
         for family, (names, _) in maps.FAMILIES.items()}
PARAMS = {flag for flags in READS.values() for flag in flags}

NOT_NUMBERS = ["nan", "inf", "-inf", "-0.3", "x", ""]


def _orders(ns):
    return ",".join(map(str, sorted(ns)))


VALID = {
    "--tol": st.sampled_from(["1e-12", "1e-6", "1e-3", "1"]),
    "--c": st.sampled_from(["0.05", "0.1", "0.3", "0.5", "0.6"]),
    "--eps": st.sampled_from(["0", "0.05", "0.3", "0.6", "0.9"]),
    "--k": st.sampled_from(["1", "2", "3", "5"]),
    "--N": st.lists(st.integers(1, 128), min_size=1, max_size=3,
                    unique=True).map(_orders),
    "--grid": st.tuples(st.sampled_from([2, 8, 13, 32, 64]),
                        st.sampled_from([2, 16, 50, 64, 128])).map(
        "{0[0]}x{0[1]}".format),
    "--L": st.integers(0, 3).map(str),
    "--s2": st.sampled_from(["0", "1e-12", "0.1", "3"]),
    "--genus": st.integers(2, 4).map(str),
}
INVALID = {
    "--tol": st.sampled_from(NOT_NUMBERS),
    "--c": st.sampled_from(NOT_NUMBERS + ["0", "1", "1.5"]),
    "--eps": st.sampled_from(NOT_NUMBERS + ["1"]),
    "--k": st.sampled_from(NOT_NUMBERS + ["0", "-2", "2.5"]),
    "--N": st.sampled_from(["", "8,4", "4,4", "0", "-3", "x", "8,,16",
                            "nan", "4096000"]),
    "--grid": st.sampled_from(["", "x", "8", "64x", "-4x8", "0x0", "nanx8"]),
    "--L": st.sampled_from(["-1", "8", "9", "x", "", "2.5", "nan"]),
    "--s2": st.sampled_from(NOT_NUMBERS),
    "--genus": st.sampled_from(["0", "1", "-2", "x", "2.5"]),
}
# drawn whether or not the row makes them required: a missing --grid would
# take the 256x512 default, past the pool
ALWAYS = ("--family", "--grid", "--s2")
COMMANDS = [name for name in cli._COMMANDS if name != "batch"]


def _flags():
    return {names[0]: keywords for name in COMMANDS
            for names, keywords in cli._COMMANDS[name][2]}


def test_every_flag_has_a_pool():
    for name, keywords in _flags().items():
        drawn = ("choices" in keywords or keywords.get("action") == "store_true"
                 or name in ("--out", "--config"))
        assert drawn or (name in VALID and name in INVALID), name


def draw_line(draw, command):
    """A command line of ``command``: each flag of its row given or not,
    with a value from its pool; one value in ten is invalid, and a
    parameter the family does not read, or a missing config file, comes
    only by a rare flip."""
    family = None
    argv = [command]
    for names, keywords in cli._COMMANDS[command][2]:
        name = names[0]
        flip = draw(st.integers(0, 19)) == 19
        if name in PARAMS:
            given = (name in READS.get(family, ())) != flip
        elif name in ALWAYS:
            given = not flip
        elif name in ("--out", "--config"):
            given = name == "--config" and flip
        else:
            given = draw(st.booleans())
        if not given:
            continue
        if keywords.get("action") == "store_true":
            argv.append(name)
            continue
        invalid = draw(st.integers(0, 9)) == 9
        if name == "--config":
            value = "missing.cfg"
        elif "choices" in keywords:
            value = "nope" if invalid else draw(st.sampled_from(
                list(keywords["choices"])))
        else:
            value = draw(INVALID[name] if invalid else VALID[name])
        if name == "--family":
            family = value
        argv.append(f"{name}={value}")
    return argv


def _numbers(doc):
    if isinstance(doc, dict):
        for value in doc.values():
            yield from _numbers(value)
    elif isinstance(doc, list):
        for value in doc:
            yield from _numbers(value)
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        yield doc


@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=25, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_line_ends_in_its_contract(tmp_path_factory, command, data):
    argv = draw_line(data.draw, command)
    out = tmp_path_factory.mktemp("line") / "report.json"
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = cli._batch_line([*argv, f"--out={out}"])
    line = " ".join(argv)
    assert code in (0, 1, 2, 3), line
    assert "Traceback" not in err.getvalue(), line
    if code in (0, 1):
        doc = json.loads(out.read_text())
        assert all(math.isfinite(x) for x in _numbers(doc)), line
        for key, value in doc.items():
            if re.match(r"(?i)s2_(univ|pair|inverted)", key):
                assert value <= 1e-12, (line, key, value)
            if key == "S1":
                assert value >= -1e-12, (line, value)
