import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import weldlab
from weldlab import cli


ELLIPSE01 = ("--family", "ellipse", "--c", "0.1")
BUMP = ("--family", "fourier_bump", "--eps", "0.05", "--k", "2")
SHARED = ("--config", "--out", "--verbose")
# a block of N = 4096000 would need 122 TiB for its generating array alone
UNALLOCATABLE = ("logdet", "--family", "ellipse", "--c", "0.3", "--route", "b4",
                 "--N", "4096000")
# a line the block builders accept, run with the log patched to fail as an
# allocation numpy cannot make does
OUT_OF_MEMORY = ("logdet", "--family", "ellipse", "--c", "0.3", "--route", "b4",
                 "--N", "8")


@pytest.fixture
def log_out_of_memory(monkeypatch):
    from weldlab import grunsky

    def unallocatable(held):
        raise MemoryError("Unable to allocate 122. TiB for an array with "
                          "shape (4096001, 4096001) and data type float64")

    monkeypatch.setattr(grunsky, "_log_bivariate", unallocatable)


def run(argv):
    return cli.main(argv)


def refused_by_argparse(argv, capsys) -> str:
    """The stderr of ``argv``, which argparse refuses: it prints the
    command's usage and its error, and exits 2."""
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


class TestCommands:
    def test_scl_basepoint(self, tmp_path):
        out = tmp_path / "scl.json"
        code = run(["scl", "--s2", "0", "--genus", "2", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["S_cl"] == pytest.approx(16 * np.pi, abs=1e-12)
        assert doc["slack"] == 0.0
        assert doc["is_fuchsian_point"] is True
        assert "conventions" in doc

    def test_logdet_identity(self, tmp_path):
        out = tmp_path / "ld.json"
        code = run(["logdet", "--family", "identity", "--N", "16",
                    "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert abs(doc["s2_univ"]) <= 1e-14

    def test_identity_command_ellipse(self, tmp_path):
        out = tmp_path / "id.json"
        code = run(["identity", "--family", "ellipse", "--c", "0.3",
                    "--N", "16,32,64", "--grid", "128x256", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["residual_identity_relative"] <= 1e-3

    def test_identity_check_failure_exit_code(self, tmp_path):
        out = tmp_path / "id.json"
        code = run(["identity", "--family", "ellipse", "--c", "0.3",
                    "--N", "16,32,64", "--grid", "64x128",
                    "--tol", "1e-12", "--out", str(out)])
        assert code == 1

    def test_pair_export(self, tmp_path):
        out = tmp_path / "pair.json"
        code = run(["pair", "--family", "fourier_bump", "--eps", "0.05",
                    "--k", "2", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["family_tag"] == "fourier_bump"

    @pytest.mark.parametrize("argv", [["--family", "identity"], ELLIPSE01,
                                      ["--family", "ellipse", "--c", "0.5"],
                                      BUMP])
    def test_pair_report_is_like_every_report(self, tmp_path, argv):
        # the conventions block and the final newline of _write_report, in
        # the json layout, though the coefficients are rendered apart
        out = tmp_path / "pair.json"
        assert run(["pair", *argv, "--out", str(out)]) == 0
        text = out.read_text()
        doc = json.loads(text)
        assert doc["conventions"] == cli.CONVENTIONS
        assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("c", [0.1, 0.3])
    def test_pair_report_round_trip_bit_exact(self, tmp_path, c):
        from weldlab import maps as mp
        out = tmp_path / "pair.json"
        assert run(["pair", "--family", "ellipse", "--c", str(c),
                    "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        pair = mp.catalog("ellipse", c=c)
        for key, series in (("taylor", pair.interior),
                            ("laurent", pair.exterior)):
            back = np.array([complex(re, im)
                             for re, im in doc[f"{key}_coeffs"]])
            assert np.array_equal(back, series.coeffs)
            assert doc[f"{key}_resolved"] == series.resolved
        assert complex(*doc["g_prime_at_infinity"]) == pair.g_prime_at_infinity
        assert doc["M"] == pair.sample_count
        assert doc["residuals"] == pair.residuals

    @pytest.mark.parametrize("argv", [
        ["pair"],
        ["grunsky", "--N", "8"],
        ["logdet", "--N", "8"],
        ["s1", "--grid", "16x32"],
        ["identity", "--N", "8", "--grid", "16x32"],
        ["invert", "--N", "8"],
    ], ids=lambda argv: argv[0])
    def test_report_head_is_the_parsed_flags(self, tmp_path, argv):
        # the family and its parameters come from the flags, not the pair;
        # --k is parsed as an integer and written as one
        out = tmp_path / "report.json"
        assert run([*argv, *BUMP, "--out", str(out)]) in (0, 1)
        text = out.read_text()
        doc = json.loads(text)
        assert doc["family_tag" if argv[0] == "pair" else "family"] == "fourier_bump"
        assert doc["params"] == {"eps": 0.05, "k": 2}
        assert '"k": 2\n' in text

    def test_grunsky_command(self, tmp_path):
        out = tmp_path / "g.json"
        code = run(["grunsky", "--family", "identity", "--N", "16",
                    "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert max(doc["relation_residuals"]) <= 1e-12

    def test_dump_matrices_beside_the_report(self, tmp_path, monkeypatch):
        # each block's CSV takes the report's path without its extension,
        # under --out as under the default name
        from weldlab import grunsky as gk
        from weldlab import maps as mp
        # at N = 8 the relation residuals miss the default --tol
        argv = ["grunsky", "--family", "ellipse", "--c", "0.3", "--N", "8",
                "--dump-matrices", "--tol", "1"]
        given, default = tmp_path / "given", tmp_path / "default"
        given.mkdir()
        default.mkdir()
        monkeypatch.setenv("WELDLAB_OUTDIR", str(default))
        assert run(argv + ["--out", str(given / "rep.json")]) == 0
        assert run(argv) == 0
        pair = mp.catalog("ellipse", c=0.3)
        b2, b3 = gk.build_b2_b3(pair.interior, pair.exterior, 8)
        blocks = {"b1": gk.build_b1(pair.interior, 8), "b2": b2, "b3": b3,
                  "b4": gk.build_b4(pair.exterior, 8)}
        for folder, stem in ((given, "rep"), (default, "grunsky_ellipse_N8")):
            csvs = {f"{stem}_{name}.csv" for name in blocks}
            assert {p.name for p in folder.iterdir()} == csvs | {f"{stem}.json"}
            for name, block in blocks.items():
                cells = np.loadtxt(folder / f"{stem}_{name}.csv",
                                   delimiter=",", skiprows=1, ndmin=2)
                if np.iscomplexobj(block):
                    cells = cells[:, 0::2] + 1j * cells[:, 1::2]
                assert np.array_equal(cells, block)

    def test_invert_command(self, tmp_path):
        out = tmp_path / "inv.json"
        code = run(["invert", "--family", "ellipse", "--c", "0.1",
                    "--N", "64", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["symmetry_gap"] <= 1e-6

    def test_unknown_family_exit_2(self, tmp_path, capsys):
        code = run(["identity", "--family", "ellipse", "--out",
                    str(tmp_path / "x.json")])
        assert code == 2  # missing --c
        err = capsys.readouterr().err
        assert "usage" in err

    @pytest.mark.parametrize("argv", [
        ["identity", "--family", "ellipse", "--N", "16"],
        ["scl", "--s2", "0", "--config", "missing.cfg"],
        ["batch", "missing.txt"],
    ], ids=["missing-param", "missing-config", "missing-file"])
    def test_invalid_input_prints_the_command_usage(self, tmp_path, capsys,
                                                    monkeypatch, argv):
        # the failing command's flags, not the list of every command
        monkeypatch.chdir(tmp_path)
        assert run(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("error: ")
        assert err[1].startswith(f"usage: weldlab {argv[0]} [-h] ")
        assert not any("{pair," in line for line in err)

    def test_small_grid_prints_the_usage_then_argparse_error(
            self, tmp_path, capsys, monkeypatch):
        # a value argparse converts is refused as --k x is: the failing
        # command's usage first, then its error naming the flag
        monkeypatch.chdir(tmp_path)
        err = refused_by_argparse(["s1", "--family", "ellipse", "--c", "0.3",
                                   "--grid", "4x8"], capsys).splitlines()
        assert err[0].startswith("usage: weldlab s1 [-h] ")
        assert err[-1] == ("weldlab s1: error: argument --grid: '4x8' gives a "
                           "1x2 grid in its 3-level ladder; each needs at "
                           "least 2x4")
        assert not any("{pair," in line for line in err)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, message", [
        (["pair", "--family", "ellipse"], "ellipse needs parameter 'c'"),
        (["identity", "--family", "fourier_bump", "--eps", "0.05"],
         "fourier_bump needs parameter 'k'"),
        (["logdet", "--family", "fourier_bump"],
         "fourier_bump needs parameter 'eps', 'k'"),
        # a family flag the family does not read is refused, not dropped
        (["pair", "--family", "identity", "--c", "0.3"],
         "identity takes no parameter 'c'"),
        (["logdet", "--family", "ellipse", "--c", "0.3", "--eps", "0.1",
          "--N", "8"], "ellipse takes no parameter 'eps'"),
    ], ids=["missing-c", "missing-k", "missing-both", "identity-c",
            "ellipse-eps"])
    def test_catalog_decides_the_family_parameters(self, tmp_path, capsys,
                                                   argv, message):
        out = tmp_path / "x.json"
        assert run(argv + ["--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert err[0] == f"error: {message}"
        assert err[1].startswith(f"usage: weldlab {argv[0]} [-h] ")

    def test_invalid_flag_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["identity", "--family", "nosuch"])
        assert exc.value.code == 2

    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for command in ("pair", "grunsky", "logdet", "s1", "identity",
                        "invert", "fuchsian", "scl", "batch"):
            assert command in out
        assert "sweep" not in out

    @pytest.mark.parametrize("command, flags", [
        ("pair", SHARED + ("--family", "--c", "--eps", "--k")),
        ("grunsky", SHARED + ("--tol", "--family", "--c", "--eps", "--k",
                              "--N", "--dump-matrices")),
        ("logdet", SHARED + ("--family", "--c", "--eps", "--k", "--N",
                             "--route")),
        ("s1", SHARED + ("--family", "--c", "--eps", "--k", "--grid")),
        ("identity", SHARED + ("--tol", "--family", "--c", "--eps", "--k",
                               "--N", "--grid")),
        ("invert", SHARED + ("--tol", "--family", "--c", "--eps", "--k",
                             "--N")),
        ("fuchsian", SHARED + ("--L",)),
        ("scl", SHARED + ("--s2", "--genus")),
        ("batch", ("--verbose",)),
    ])
    def test_command_help_lists_its_own_flags(self, command, flags, capsys):
        # the parser builds the flags of the command it is given alone
        with pytest.raises(SystemExit) as exc:
            run([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        listed = set(re.findall(r"(?<![\w-])--[\w-]+", out))
        assert listed == {"--help", *flags}

    def test_unknown_family_names_the_choices(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["pair", "--family", "nope"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --family: invalid choice: 'nope'" in err
        for family in ("identity", "ellipse", "fourier_bump"):
            assert family in err

    @pytest.mark.parametrize("argv", [
        ["fuchsian", "--tol", "1e-30"],
        ["scl", "--s2", "0", "--tol", "1e-30"],
        ["logdet", "--family", "identity", "--tol", "1e-30"],
        ["logdet", "--family", "identity", "--grid", "1x1"],
        ["s1", "--family", "identity", "--tol", "1e-30"],
        ["s1", "--family", "identity", "--N", "7"],
        ["pair", "--family", "identity", "--N", "x"],
        ["pair", "--family", "identity", "--grid", "y"],
        ["pair", "--family", "identity", "--tol", "0"],
        ["grunsky", "--family", "identity", "--grid", "zz"],
        ["invert", "--family", "identity", "--grid", "zz"],
        ["fuchsian", "--family", "identity"],
        ["scl", "--s2", "0", "--N", "8"],
        ["s1", "--family", "identity", "--route", "b1"],
        # the Theodorsen continuation chooses its own sample count
        ["pair", "--family", "identity", "--M", "1024"],
        # batch takes FILE and --verbose alone
        ["batch", "lines.txt", "--config", "x.cfg"],
    ])
    def test_flag_the_command_does_not_take_exit_2(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--out", str(tmp_path / "x")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["scl", "--s2", "nan"],
        ["scl", "--s2", "inf"],
        ["identity", "--family", "identity", "--tol", "nan"],
        ["grunsky", "--family", "identity", "--tol", "nan"],
        ["invert", "--family", "identity", "--tol", "nan"],
    ])
    def test_non_finite_value_exit_2(self, tmp_path, argv):
        # nan would fail every tolerance check, and json writes it as NaN
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--out", str(tmp_path / "x")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["logdet", "--family", "identity", "--N", "1x6"],
        ["identity", "--family", "identity", "--grid", "64"],
        ["grunsky", "--family", "identity", "--N", "8,,16"],
        ["invert", "--family", "identity", "--N", "1.5"],
        ["s1", "--family", "identity", "--grid", "64x128x2"],
        ["logdet", "--family", "identity", "--N", ""],
        ["grunsky", "--family", "identity", "--N", "8;16"],
    ])
    def test_malformed_list_flag_exit_2(self, tmp_path, argv, capsys):
        out = tmp_path / "x"
        err = refused_by_argparse(argv + ["--out", str(out)], capsys)
        flag, text = argv[-2:]
        sep = "," if flag == "--N" else "x"
        assert err.endswith(f"error: argument {flag}: {text!r} is not "
                            f"{sep!r}-separated int values\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["logdet", "--family", "identity", "--N", "1_6"],
         "argument --N: '1_6' is not ','-separated int values"),
        (["logdet", "--family", "identity", "--N", "+8"],
         "argument --N: '+8' is not ','-separated int values"),
        (["logdet", "--family", "identity", "--N", " 8, 16"],
         "argument --N: ' 8, 16' is not ','-separated int values"),
        (["s1", "--family", "identity", "--grid", "64x+128"],
         "argument --grid: '64x+128' is not 'x'-separated int values"),
        (["fuchsian", "--L", "0_2"], "argument --L: invalid int value: '0_2'"),
        (["pair", "--family", "fourier_bump", "--eps", "0.1", "--k", " 3"],
         "argument --k: invalid int value: ' 3'"),
        (["scl", "--s2", "0", "--genus", "+2"],
         "argument --genus: invalid int value: '+2'"),
    ], ids=["N-underscore", "N-plus", "N-blanks", "grid-plus", "L-underscore",
            "k-blank", "genus-plus"])
    def test_integer_flag_is_digits_only(self, tmp_path, argv, message, capsys):
        # int() also reads a sign, underscores and blanks; an integer flag
        # takes digits alone, and argparse refuses the rest
        out = tmp_path / "x"
        err = refused_by_argparse(argv + ["--out", str(out)], capsys)
        assert err.startswith(f"usage: weldlab {argv[0]} [-h] ")
        assert err.endswith(f"weldlab {argv[0]}: error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["logdet", "grunsky", "invert"])
    def test_negative_order_exit_2(self, tmp_path, command, capsys):
        out = tmp_path / "x"
        err = refused_by_argparse([command, "--family", "identity", "--N=-4",
                                   "--out", str(out)], capsys)
        assert "argument --N: '-4' must be strictly increasing orders " \
            "N >= 1" in err
        assert not out.exists()

    @pytest.mark.parametrize("orders", ["64,32", "32,32"])
    @pytest.mark.parametrize("argv", [
        ["logdet", "--family", "ellipse", "--c", "0.5"],
        ["grunsky", "--family", "ellipse", "--c", "0.5"],
        ["invert", "--family", "ellipse", "--c", "0.5"],
        ["identity", "--family", "ellipse", "--c", "0.5"],
    ])
    def test_unordered_orders_exit_2_before_any_pair(self, tmp_path, argv,
                                                     orders, monkeypatch,
                                                     capsys):
        # a block is built to max(N) and the report reads every order, so
        # the list is checked before the costly pair
        def no_pair(*args, **kwargs):
            raise AssertionError("a pair was built for an invalid --N")

        monkeypatch.setattr("weldlab.maps.catalog", no_pair)
        out = tmp_path / "x"
        err = refused_by_argparse(argv + ["--N", orders, "--out", str(out)],
                                  capsys)
        assert f"argument --N: '{orders}' must be strictly increasing" in err
        assert not out.exists()

    def test_empty_relation_block_exit_2(self, tmp_path, capsys):
        # N = 1 measures the relations on a 0 x 0 block
        code = run(["grunsky", "--family", "identity", "--N", "1",
                    "--out", str(tmp_path / "g.json")])
        assert code == 2
        assert "N >= 2" in capsys.readouterr().err

    def test_grid_ladder_halves_without_clamps(self, tmp_path):
        out = tmp_path / "id.json"
        code = run(["identity", "--family", "identity", "--grid", "16x32",
                    "--N", "8,16", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["grids"] == [[4, 8], [8, 16], [16, 32]]
        assert doc["S1"] == 0.0

    @pytest.mark.parametrize("command", ["s1", "identity"])
    def test_grid_ladder_too_small_exit_2(self, tmp_path, command, capsys):
        out = tmp_path / "x"
        err = refused_by_argparse([command, *ELLIPSE01, "--grid", "2x4",
                                   "--out", str(out)], capsys)
        assert "argument --grid: '2x4' gives a 0x1 grid" in err
        assert not out.exists()

    def test_non_finite_report_exit_3_and_no_file(self, tmp_path, capsys):
        # S_cl = -12 pi s2_dg overflows; json has no -Infinity
        out = tmp_path / "scl.json"
        assert run(["scl", "--s2", "1e308", "--out", str(out)]) == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert "numerical failure" in err and str(out) in err

    def test_non_finite_pair_report_exit_3_and_no_file(self, tmp_path,
                                                       capsys, monkeypatch):
        # the pair report goes through the writer of every report
        from weldlab import maps as mp
        build = mp.catalog
        monkeypatch.setattr(mp, "catalog", lambda *a, **k: dataclasses.replace(
            build(*a, **k), residuals={"boundary": float("nan")}))
        out = tmp_path / "pair.json"
        assert run(["pair", *ELLIPSE01, "--out", str(out)]) == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert "numerical failure" in err and str(out) in err

    def test_map_past_its_reach_exit_3(self, tmp_path, capsys):
        # c = 0.6: the iteration converges, but 16384 samples do not
        # resolve the interior map, so the boundary check refuses the pair
        code = run(["logdet", "--route", "b1", "--family", "ellipse",
                    "--c", "0.6", "--N", "64", "--out", str(tmp_path / "x")])
        assert code == 3
        assert "boundary traces disagree" in capsys.readouterr().err

    @pytest.mark.parametrize("c", [0.8, 0.9])
    def test_b4_route_past_the_interior_map_reach(self, tmp_path, c):
        # the b4 route reads the closed form z + c/z alone, so the interior
        # map that cannot be resolved past c = 0.55 is never solved
        out = tmp_path / "b4.json"
        assert run(["logdet", "--route", "b4", "--family", "ellipse",
                    "--c", str(c), "--N", "64,128,256", "--out", str(out)]) == 0
        closed = math.fsum(np.log1p(-c ** (2.0 * np.arange(1, 400))))
        assert abs(json.loads(out.read_text())["s2_univ"] - closed) <= 1e-13

    def test_b1_route_past_the_reflected_solve(self, tmp_path, capsys):
        # bump (0.7, 2): the reflected domain's map cannot be resolved, and
        # the b1 route, which reads the interior map alone, never solves it
        bump = ["--family", "fourier_bump", "--eps", "0.7", "--k", "2",
                "--N", "64,128,256,512"]
        out = tmp_path / "b1.json"
        assert run(["logdet", "--route", "b1", *bump, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["report"]["residual_tail"] <= 1e-13
        assert run(["logdet", "--route", "b4", *bump,
                    "--out", str(tmp_path / "b4.json")]) == 3
        assert "reflected coefficients" in capsys.readouterr().err

    def test_b1_route_refuses_an_interior_map_off_its_curve(self, tmp_path,
                                                            capsys):
        # bump (0.9, 2): the interior solve settles on a map whose trace
        # winds the wrong way, and its boundary check refuses it
        code = run(["logdet", "--route", "b1", "--family", "fourier_bump",
                    "--eps", "0.9", "--k", "2", "--out", str(tmp_path / "x")])
        assert code == 3
        assert ("the interior boundary trace winds -1 times"
                in capsys.readouterr().err)

    def test_bump_the_iteration_cannot_solve_exit_3(self, tmp_path, capsys):
        # bump (0.9, 2) is refused by its construction, not by a bound
        out = tmp_path / "pair.json"
        code = run(["pair", "--family", "fourier_bump", "--eps", "0.9",
                    "--k", "2", "--out", str(out)])
        assert code == 3 and not out.exists()
        assert "did not converge" in capsys.readouterr().err

    def test_numerical_failure_exit_3(self, tmp_path, capsys):
        # extreme eccentricity: the iteration cannot settle
        code = run(["s1", "--family", "ellipse", "--c", "0.995",
                    "--out", str(tmp_path / "x.json")])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_unallocatable_block_refused_exit_2(self, tmp_path, capsys):
        # refused before any array of the block is made, with the size
        out = tmp_path / "x.json"
        assert run([*UNALLOCATABLE, "--out", str(out)]) == 2
        assert not out.exists()
        error, *usage = capsys.readouterr().err.splitlines()
        assert re.fullmatch(r"error: a block of N = 4096000 rows and 4096000 "
                            r"columns needs an estimated \d+ bytes, over the "
                            r"cap of \d+", error)
        assert usage[0].startswith("usage: weldlab logdet")

    def test_out_of_memory_exit_3(self, tmp_path, capsys, log_out_of_memory):
        # a MemoryError that no size check foresaw is still one line
        out = tmp_path / "x.json"
        assert run([*OUT_OF_MEMORY, "--out", str(out)]) == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: Unable to allocate")
        assert err.count("\n") == 1


class TestDeterminism:
    def test_reports_byte_identical(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            assert run(["identity", "--family", "ellipse", "--c", "0.1",
                        "--N", "16,32", "--grid", "64x128",
                        "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_fuchsian_enumerates_once(self, tmp_path, monkeypatch):
        # the enumeration serves only the report's element count; the domain
        # and the area integral read the eight side pairings
        from weldlab import fuchsian as fx
        enumerate_elements = fx.enumerate_elements
        lengths = []

        def counted(group, max_word_length):
            lengths.append(max_word_length)
            return enumerate_elements(group, max_word_length)

        monkeypatch.setattr(fx, "enumerate_elements", counted)
        assert run(["fuchsian", "--L", "2",
                    "--out", str(tmp_path / "f.json")]) == 0
        assert lengths == [2]

    def test_fuchsian_integrates_each_resolution_once(self, tmp_path,
                                                       monkeypatch):
        # the area and the trace sums' terms read four node counts per
        # side sector, each integrated once for all three sums
        from weldlab import fuchsian as fx
        domain_area_integral = fx.domain_area_integral
        resolutions = []

        def counted(group, nodes=64):
            resolutions.append(nodes)
            return domain_area_integral(group, nodes)

        monkeypatch.setattr(fx, "domain_area_integral", counted)
        out = tmp_path / "f.json"
        assert run(["fuchsian", "--L", "2", "--out", str(out)]) == 0
        assert sorted(resolutions) == [64, 72, 80, 88]
        assert json.loads(out.read_text())["bergman_automorphy_residual"] <= 1e-12

    @pytest.mark.parametrize("coarse", [{64, 72, 80, 88}, {72, 80, 88}],
                             ids=["area", "trace-terms"])
    def test_fuchsian_verdict_fails_on_a_coarse_rule(self, tmp_path,
                                                     monkeypatch, coarse):
        # 16 nodes per side sector put an integral 1.0e-5 off genus - 1:
        # the area itself, or the trace terms and with them the trace sums
        from weldlab import fuchsian as fx
        domain_area_integral = fx.domain_area_integral
        monkeypatch.setattr(fx, "domain_area_integral",
                            lambda group, nodes=64: domain_area_integral(
                                group, 16 if nodes in coarse else nodes))
        out = tmp_path / "f.json"
        assert run(["fuchsian", "--L", "2", "--out", str(out)]) == 1
        doc = json.loads(out.read_text())
        worst = max(abs(doc["area_integral"]["value"] - 1.0),
                    *map(abs, doc["alternating_trace_sums"].values()))
        assert 1e-6 < worst < 1e-4

    @pytest.mark.parametrize("argv, stages", [
        (["logdet", "--N", "8,16", *ELLIPSE01],
         ("catalog", "blocks", "determinant")),
        (["grunsky", "--N", "16", *ELLIPSE01], ("catalog", "blocks", "relations")),
        # each route of the potential times its own block and determinant
        (["invert", "--N", "16", *ELLIPSE01],
         ("catalog", "reflection") + ("blocks", "determinant") * 3),
        (["identity", "--N", "8,16", "--grid", "16x32", *ELLIPSE01],
         ("catalog", "quadrature") + ("blocks", "determinant") * 2),
        (["s1", "--grid", "16x32", *ELLIPSE01], ("catalog", "quadrature")),
        (["pair", *ELLIPSE01], ("catalog",)),
    ])
    def test_verbose_stage_timings_stay_out_of_the_report(self, tmp_path,
                                                          capsys, argv, stages):
        plain, verbose = tmp_path / "plain.out", tmp_path / "verbose.out"
        code = run(argv + ["--out", str(plain)])
        assert capsys.readouterr().err == ""
        assert run(argv + ["--out", str(verbose), "--verbose"]) == code
        lines = capsys.readouterr().err.splitlines()
        timed = [line.split(":")[0] for line in lines if line.endswith(" s")]
        assert timed == [f"{argv[0]} {name}" for name in stages]
        assert f"wrote {verbose}" in lines
        assert plain.read_bytes() == verbose.read_bytes()

    @pytest.mark.parametrize("argv", [
        ["pair", "--family", "identity"],
        ["grunsky", "--family", "identity", "--N", "8"],
        ["logdet", "--family", "identity", "--N", "8"],
        ["s1", "--family", "identity", "--grid", "16x32"],
        ["identity", "--family", "identity", "--N", "8", "--grid", "16x32"],
        ["invert", "--family", "identity", "--N", "8"],
        ["fuchsian", "--L", "1"],
        ["scl", "--s2", "0"],
    ])
    def test_verbose_names_versions_and_blas_threads(self, tmp_path, capsys,
                                                     monkeypatch, argv):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        assert run(argv + ["--out", str(tmp_path / "x"), "-v"]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert lines[0] == (f"weldlab {weldlab.__version__}, numpy "
                            f"{np.__version__}, OPENBLAS_NUM_THREADS=3")
        assert not any(line.startswith("weldlab ") for line in lines[1:])

    def test_fuchsian_report_deterministic(self, tmp_path):
        a = tmp_path / "fa.json"
        b = tmp_path / "fb.json"
        for out in (a, b):
            assert run(["fuchsian", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()
        doc = json.loads(a.read_text())
        assert doc["relation_residual"] <= 1e-10
        assert abs(doc["area_integral"]["value"] - 1.0) <= 1e-4


class TestConfigFile:
    def test_config_values_and_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# identity check\nfamily = ellipse\nc = 0.1\n"
                       "N = 16,32\ngrid = 64x128\n")
        out = tmp_path / "out.json"
        code = run(["identity", "--family", "ellipse", "--config", str(cfg),
                    "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["params"]["c"] == 0.1
        # an explicit flag passed to main() wins over the config value
        out = tmp_path / "flag.json"
        code = run(["identity", "--family", "ellipse", "--config", str(cfg),
                    "--c", "0.3", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["params"]["c"] == 0.3
        code = run(["identity", "--family", "ellipse", "--config", str(cfg),
                    "--c=0.3", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["params"]["c"] == 0.3

    def test_short_flag_beats_config(self, tmp_path, capsys):
        cfg = tmp_path / "quiet.cfg"
        cfg.write_text("verbose = false\n")
        out = tmp_path / "scl.json"
        code = run(["scl", "--s2", "0.1", "-v", "--config", str(cfg),
                    "--out", str(out)])
        assert code == 0
        assert f"wrote {out}" in capsys.readouterr().err

    def test_config_key_of_a_flag_the_command_does_not_take(self, tmp_path,
                                                            capsys):
        cfg = tmp_path / "pair.cfg"
        cfg.write_text("tol = 0\n")
        code = run(["pair", "--family", "identity", "--config", str(cfg),
                    "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert "unknown config key: tol" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        # the subparsers' own dest: it would run logdet on identity's flags
        ("command = logdet\n", "unknown config key: command"),
        ("verbose = maybe\n", "verbose = 'maybe' is not one of"),
    ])
    def test_config_key_outside_the_flags_exit_2(self, tmp_path, capsys,
                                                 text, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        out = tmp_path / "id.json"
        code = run(["identity", "--family", "identity", "--N", "8",
                    "--grid", "16x32", "--config", str(cfg), "--out", str(out)])
        assert code == 2 and not out.exists()
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("config, flags", [
        ("s2 = 0.5\n", ["scl", "--s2", "0.5"]),
        ("family = ellipse\nc = 0.1\n",
         ["pair", "--family", "ellipse", "--c", "0.1"]),
    ], ids=["scl", "pair"])
    def test_config_supplies_a_required_flag(self, tmp_path, config, flags):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        by_config, by_flags = tmp_path / "config.json", tmp_path / "flags.json"
        assert run([flags[0], "--config", str(cfg),
                    "--out", str(by_config)]) == 0
        assert run(flags + ["--out", str(by_flags)]) == 0
        assert by_config.read_bytes() == by_flags.read_bytes()

    def test_config_value_outside_the_choices_is_argparse_error(
            self, tmp_path, capsys):
        # the file's --family=nope is checked as the command line's is
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("family = nope\n")
        out = tmp_path / "id.json"
        err = refused_by_argparse(
            ["identity", "--family", "identity", "--N", "8", "--grid", "16x32",
             "--config", str(cfg), "--out", str(out)], capsys)
        assert not out.exists()
        assert "weldlab identity: error: argument --family: invalid choice: " \
            "'nope'" in err

    def test_usage_shows_a_required_flag_the_config_gave(self, tmp_path,
                                                        capsys):
        # the usage printed after an error is the one without a config
        cfg = tmp_path / "f.cfg"
        cfg.write_text("family = ellipse\n")
        assert run(["identity", "--config", str(cfg)]) == 2
        by_config = capsys.readouterr().err
        assert run(["identity", "--family", "ellipse"]) == 2
        assert by_config == capsys.readouterr().err
        assert by_config.startswith("error: ellipse needs parameter 'c'\n")
        assert "[--tol TOL] --family {identity,ellipse,fourier_bump}\n" \
            in by_config

    def test_config_value_is_checked_under_an_explicit_flag(self, tmp_path,
                                                            capsys):
        # argparse converts the config's value before the flag replaces it
        cfg = tmp_path / "k.cfg"
        cfg.write_text("k = x\n")
        out = tmp_path / "x.json"
        with pytest.raises(SystemExit) as exc:
            run(["pair", "--family", "fourier_bump", "--eps", "0.05",
                 "--config", str(cfg), "--k", "2", "--out", str(out)])
        assert exc.value.code == 2 and not out.exists()
        assert capsys.readouterr().err.endswith(
            "weldlab pair: error: argument --k: invalid int value: 'x'\n")

    def test_every_value_of_a_repeated_key_is_checked(self, tmp_path, capsys):
        # the file's lines become flags in file order, so the first k is
        # converted before the second replaces it
        cfg = tmp_path / "f.cfg"
        cfg.write_text("k = x\nk = 2\n")
        out = tmp_path / "x.json"
        err = refused_by_argparse(["pair", "--family", "fourier_bump", "--eps",
                                   "0.05", "--config", str(cfg),
                                   "--out", str(out)], capsys)
        assert not out.exists()
        assert err.endswith(
            "weldlab pair: error: argument --k: invalid int value: 'x'\n")

    def test_required_flag_given_by_neither_is_argparse_error(self, tmp_path,
                                                              capsys):
        cfg = tmp_path / "genus.cfg"
        cfg.write_text("genus = 3\n")
        errors = []
        for argv in (["scl"], ["scl", "--config", str(cfg)]):
            with pytest.raises(SystemExit) as exc:
                run(argv)
            assert exc.value.code == 2
            errors.append(capsys.readouterr().err)
        assert errors[1] == errors[0]
        assert errors[0].endswith("weldlab scl: error: the following "
                                  "arguments are required: --s2\n")

    def test_bad_config_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not a key value line\n")
        code = run(["identity", "--family", "identity", "--config", str(cfg)])
        assert code == 2

    def test_missing_config_exit_2(self, tmp_path, capsys):
        code = run(["scl", "--s2", "0", "--config", str(tmp_path / "missing.cfg"),
                    "--out", str(tmp_path / "scl.json")])
        assert code == 2
        assert "missing.cfg" in capsys.readouterr().err

    def test_unwritable_out_exit_2(self, tmp_path, capsys):
        code = run(["scl", "--s2", "0", "--out", str(tmp_path / "nodir" / "x.json")])
        assert code == 2
        assert "cannot write" in capsys.readouterr().err

    def test_unwritable_outdir_env_exit_2(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WELDLAB_OUTDIR", str(tmp_path / "nodir"))
        assert run(["scl", "--s2", "0"]) == 2

    def test_outdir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WELDLAB_OUTDIR", str(tmp_path))
        code = run(["scl", "--s2", "0.0"])
        assert code == 0
        assert (tmp_path / "scl.json").exists()


def run_batch(tmp_path, text, *flags):
    """Run ``text`` as a batch file in ``tmp_path``, where relative
    ``--out`` paths land."""
    lines = tmp_path / "lines.txt"
    lines.write_text(text)
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp_path)
        return run(["batch", str(lines), *flags])


class TestBatch:
    def test_failing_lines_do_not_stop_the_batch(self, tmp_path, capsys):
        # exit 3, then an unknown flag (argparse's exit 2), then a report
        code = run_batch(tmp_path, "scl --s2 0 --out a.json\n"
                         "logdet --family ellipse --c 0.6 --route b1 "
                         "--out b.json\n"
                         "scl --s2 0 --nope\n"
                         "scl --s2 0.1 --out c.json\n")
        assert code == 3
        assert (tmp_path / "a.json").exists() and (tmp_path / "c.json").exists()
        assert not (tmp_path / "b.json").exists()
        err = capsys.readouterr().err
        assert "boundary traces disagree" in err
        assert "unrecognized arguments: --nope" in err
        assert [line for line in err.splitlines() if line.startswith("line ")] \
            == ["line 1: exit 0", "line 2: exit 3", "line 3: exit 2",
                "line 4: exit 0"]

    def test_nested_batch_exits_2_and_is_not_run(self, tmp_path, capsys):
        (tmp_path / "inner.txt").write_text("scl --s2 0 --out inner.json\n")
        code = run_batch(tmp_path, "batch inner.txt\nscl --s2 0 --out a.json\n")
        assert code == 2
        assert not (tmp_path / "inner.json").exists()
        assert (tmp_path / "a.json").exists()
        err = capsys.readouterr().err
        assert err.splitlines()[-2:] == ["line 1: exit 2", "line 2: exit 0"]

    def test_stdin_comments_and_blank_lines(self, tmp_path, capsys,
                                            monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("sys.stdin", io.StringIO(
            "# a comment\n\n   \nscl --s2 0 --out 'a b.json'  # trailing\n"))
        assert run(["batch", "-"]) == 0
        assert (tmp_path / "a b.json").exists()
        assert capsys.readouterr().err == "line 4: exit 0\n"

    @pytest.mark.parametrize("name", ["missing.txt", "."])
    def test_unreadable_file_exit_2(self, tmp_path, capsys, name):
        assert run(["batch", str(tmp_path / name)]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_unclosed_quote_runs_nothing(self, tmp_path, capsys):
        code = run_batch(tmp_path, "scl --s2 0 --out a.json\nscl 'x\n")
        assert code == 2
        assert not (tmp_path / "a.json").exists()
        assert "line 2: No closing quotation" in capsys.readouterr().err

    def test_lines_do_not_share_config(self, tmp_path):
        # each line gets a fresh parser: a config's defaults end with it
        (tmp_path / "genus.cfg").write_text("genus = 3\n")
        assert run_batch(tmp_path, "scl --s2 0 --config genus.cfg --out a.json\n"
                         "scl --s2 0 --out b.json\n") == 0
        genus = [json.loads((tmp_path / name).read_text())["genus"]
                 for name in ("a.json", "b.json")]
        assert genus == [3, 2]

    def test_a_fault_is_reported_and_the_batch_goes_on(self, tmp_path,
                                                       capsys, monkeypatch):
        def fault(args):
            raise RuntimeError("a fault")

        help, _, flags = cli._COMMANDS["fuchsian"]
        monkeypatch.setitem(cli._COMMANDS, "fuchsian", (help, fault, flags))
        code = run_batch(tmp_path, "fuchsian\nscl --s2 0 --out a.json\n")
        assert code == 1
        assert (tmp_path / "a.json").exists()
        err = capsys.readouterr().err
        assert "Traceback" in err and "RuntimeError: a fault" in err
        assert err.splitlines()[-2:] == ["line 1: exit 1", "line 2: exit 0"]

    def test_out_of_memory_line_exit_3(self, tmp_path, capsys,
                                       log_out_of_memory):
        code = run_batch(tmp_path, " ".join(OUT_OF_MEMORY) + " --out a.json\n")
        assert code == 3
        assert not (tmp_path / "a.json").exists()
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("numerical failure: Unable to allocate")
        assert err.splitlines()[1:] == ["line 1: exit 3"]

    def test_lines_share_their_radial_rules(self, tmp_path, monkeypatch):
        # two lines on the default ladder (n_r = 64, 128, 256) and one on
        # --grid 64x128 (16, 32, 64) compute five rules for nine grids, and
        # write the bytes of a batch that recomputes the rule on every grid
        from weldlab import liouville
        text = ("identity --family ellipse --c 0.1 --N 16,32 --out a.json\n"
                "identity --family fourier_bump --eps 0.05 --k 2 --N 16,32 "
                "--out b.json\n"
                "identity --family ellipse --c 0.3 --N 16,32 --grid 64x128 "
                "--out c.json\n")
        cached, fresh = tmp_path / "cached", tmp_path / "fresh"
        cached.mkdir()
        fresh.mkdir()
        liouville._gauss_legendre.cache_clear()
        assert run_batch(cached, text) == 0
        info = liouville._gauss_legendre.cache_info()
        assert (info.misses, info.hits) == (5, 4)
        x, w = liouville._gauss_legendre(64)
        assert not (x.flags.writeable or w.flags.writeable)
        monkeypatch.setattr(liouville, "_gauss_legendre",
                            liouville._gauss_legendre.__wrapped__)
        assert run_batch(fresh, text) == 0
        for name in ("a.json", "b.json", "c.json"):
            assert (cached / name).read_bytes() == (fresh / name).read_bytes()

    def test_verbose_adds_line_times_and_keeps_reports(self, tmp_path,
                                                       capsys):
        text = ("identity --family ellipse --c 0.1 --N 8,16 --grid 16x32 "
                "--out {}.json\n")
        plain, verbose = tmp_path / "plain", tmp_path / "verbose"
        plain.mkdir()
        verbose.mkdir()
        assert run_batch(plain, text.format("r")) == 0
        assert capsys.readouterr().err == "line 1: exit 0\n"
        assert run_batch(verbose, text.format("r"), "--verbose") == 0
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].startswith("weldlab ")
        assert lines[1].startswith("batch line 1: ") and lines[1].endswith(" s")
        assert lines[2] == "line 1: exit 0"
        assert (plain / "r.json").read_bytes() == (verbose / "r.json").read_bytes()


# Imports the module named by argv[1], then prints as one json line the
# OPENBLAS_NUM_THREADS it left, whether numpy was loaded by then, and the
# thread count of the OpenBLAS that numpy loads (null when no symbol is
# found; the lookup is bench/run.py's _blas_threads).
_BLAS_PROBE = """
import ctypes, glob, importlib, json, os, sys
importlib.import_module(sys.argv[1])
env, loaded = os.environ.get("OPENBLAS_NUM_THREADS"), "numpy" in sys.modules
import numpy

def blas_threads():
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                        "numpy.libs", "*openblas*")
    for lib in glob.glob(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None

print(json.dumps({"env": env, "numpy": loaded, "threads": blas_threads()}))
"""


def _src_env() -> dict:
    """The environment with this package's source first on PYTHONPATH,
    for a child process."""
    env = dict(os.environ)
    src = str(Path(weldlab.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _blas_probe(module: str, setting=None) -> dict:
    env = _src_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if setting is not None:
        env["OPENBLAS_NUM_THREADS"] = setting
    done = subprocess.run([sys.executable, "-c", _BLAS_PROBE, module],
                          env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


class TestBlasThreads:
    """The command line runs OpenBLAS on one thread unless the user set
    OPENBLAS_NUM_THREADS; importing the package alone loads no numpy and
    sets nothing."""

    @pytest.mark.parametrize("setting, expected", [(None, "1"), ("2", "2")])
    def test_cli_import_pins_one_thread_unless_set(self, setting, expected):
        probe = _blas_probe("weldlab.cli", setting)
        assert probe["env"] == expected
        if probe["threads"] is None:
            pytest.skip("no OpenBLAS thread-count symbol found")
        if int(expected) > (os.cpu_count() or 1):
            pytest.skip("OpenBLAS caps its threads at the core count")
        assert probe["threads"] == int(expected)

    @pytest.mark.parametrize("module", ["weldlab", "weldlab.series",
                                        "weldlab.fuchsian"])
    def test_library_import_sets_nothing(self, module):
        probe = _blas_probe(module)
        assert probe["env"] is None
        if module != "weldlab.series":
            assert probe["numpy"] is False

    def test_relation_residuals_do_not_depend_on_the_thread_count(self,
                                                                  tmp_path):
        # the relation products once moved their last digit between one
        # and two OpenBLAS threads on the c = 0.1 ellipse at N = 256
        texts = []
        for setting in ("1", "2"):
            env = _src_env()
            env["OPENBLAS_NUM_THREADS"] = setting
            out = tmp_path / f"threads{setting}.json"
            done = subprocess.run(
                [sys.executable, "-m", "weldlab.cli", "grunsky", "--family",
                 "ellipse", "--c", "0.1", "--N", "256", "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            texts.append(out.read_text())
        assert texts[0] == texts[1]
        residuals = json.loads(texts[0])["relation_residuals"]
        assert residuals[1] == residuals[2]


# Runs ``python -m weldlab.cli`` with the arguments that follow it and
# prints, as the last stdout line, the sorted names in sys.modules at exit.
_MODULES_PROBE = """
import atexit, json, runpy, sys
atexit.register(lambda: print(json.dumps(sorted(sys.modules))))
sys.argv[0] = "weldlab"
runpy.run_module("weldlab.cli", run_name="__main__", alter_sys=True)
"""


def _modules_at_exit(argv, tmp_path) -> set:
    done = subprocess.run([sys.executable, "-c", _MODULES_PROBE, *argv],
                          env=_src_env(), cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


class TestImportFootprint:
    """Each command loads the layer modules it calls and no lazily loaded
    numpy submodule (the action quadrature's nodes need no
    ``numpy.polynomial``); ``--help``, ``fuchsian`` and ``scl`` load no
    numpy, ``dataclasses`` or ``inspect`` at all."""

    LAYERS = {"series", "maps", "grunsky", "liouville", "fuchsian",
              "classical"}
    NUMPY_LAZY = {"numpy.random", "numpy.ma", "numpy.polynomial"}

    @pytest.mark.parametrize("argv, layers, numpy", [
        (["--help"], set(), False),
        (["fuchsian", "--L", "0"], {"fuchsian"}, False),
        (["pair", *ELLIPSE01], {"maps", "series"}, True),
        (["logdet", "--N", "8", *ELLIPSE01], {"grunsky", "maps", "series"},
         True),
        (["scl", "--s2", "0"], {"classical"}, False),
        (["s1", *ELLIPSE01], {"grunsky", "liouville", "maps", "series"}, True),
        (["identity", "--N", "8,16", *ELLIPSE01],
         {"grunsky", "liouville", "maps", "series"}, True),
        (["grunsky", *ELLIPSE01], {"grunsky", "maps", "series"}, True),
        (["invert", "--N", "16", *ELLIPSE01], {"grunsky", "maps", "series"},
         True),
        (["batch", "lines.txt"], {"classical"}, False),
    ], ids=["help", "fuchsian", "pair", "logdet", "scl", "s1", "identity",
            "grunsky", "invert", "batch"])
    def test_command_loads_only_what_it_calls(self, tmp_path, argv, layers,
                                              numpy):
        # batch has no --out; its one line writes scl.json where it runs
        (tmp_path / "lines.txt").write_text("scl --s2 0\n")
        if argv[0] != "batch":
            argv = argv + ["--out", "x"]
        modules = _modules_at_exit(argv, tmp_path)
        loaded = {name for name in self.LAYERS if f"weldlab.{name}" in modules}
        assert loaded == layers
        assert ("numpy" in modules) is numpy
        assert not self.NUMPY_LAZY & modules
        if not numpy:
            # a numpy-free process loads no dataclasses, nor the inspect
            # module that dataclasses imports
            assert not {"dataclasses", "inspect"} & modules

    @pytest.mark.parametrize("argv", [["fuchsian", "--L", "2"],
                                      ["scl", "--s2", "0"]],
                             ids=["fuchsian", "scl"])
    def test_runs_with_numpy_blocked(self, tmp_path, argv):
        # sys.modules["numpy"] = None makes every import of numpy fail
        blocked = tmp_path / "blocked.json"
        code = ("import runpy, sys\n"
                "sys.modules['numpy'] = None\n"
                "sys.argv[0] = 'weldlab'\n"
                "runpy.run_module('weldlab.cli', run_name='__main__', "
                "alter_sys=True)\n")
        done = subprocess.run([sys.executable, "-c", code, *argv,
                               "--out", str(blocked)],
                              env=_src_env(), capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        plain = tmp_path / "plain.json"
        assert run(argv + ["--out", str(plain)]) == 0
        assert blocked.read_bytes() == plain.read_bytes()


class TestProcessExit:
    """``python -m weldlab.cli`` ends with ``gc.freeze()``, so interpreter
    shutdown collects nothing; its exit code and every line it wrote to
    stderr still reach the caller."""

    def test_batch_process_exits_with_the_largest_code(self, tmp_path):
        lines = ("scl --s2 0 --out a.json\n"
                 "grunsky --family identity --N 8 --tol=-1 --out b.json\n"
                 "scl --s2 1e308 --out c.json\n")
        done = subprocess.run([sys.executable, "-m", "weldlab.cli", "batch",
                               "-", "--verbose"], input=lines,
                              env=_src_env(), cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 3, done.stderr
        err = done.stderr.splitlines()
        assert [line for line in err if line.startswith("line ")] == [
            "line 1: exit 0", "line 2: exit 1", "line 3: exit 3"]
        timed = [line for line in err if line.startswith("batch line ")]
        assert len(timed) == 3
        for n, line in enumerate(timed, 1):
            assert re.fullmatch(rf"batch line {n}: \d+\.\d{{3}} s", line)
        assert done.stderr.endswith("line 3: exit 3\n")
