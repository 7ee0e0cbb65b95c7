import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import weldlab
from weldlab import cli


ELLIPSE01 = ("--family", "ellipse", "--c", "0.1")


def run(argv):
    return cli.main(argv)


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

    def test_grunsky_command(self, tmp_path):
        out = tmp_path / "g.json"
        code = run(["grunsky", "--family", "identity", "--N", "16",
                    "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert max(doc["relation_residuals"]) <= 1e-12

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

    def test_invalid_flag_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["identity", "--family", "nosuch"])
        assert exc.value.code == 2

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
        ["sweep", "--family", "ellipse", "--c", "0.9"],
        ["sweep", "--family", "ellipse", "--eps", "3"],
        ["sweep", "--family", "ellipse", "--k", "9"],
        # the Theodorsen continuation chooses its own sample count
        ["pair", "--family", "identity", "--M", "1024"],
        ["sweep", "--family", "ellipse", "--M", "1024"],
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
        ["sweep", "--family", "ellipse", "--range", "0.1:0.5"],
        ["sweep", "--family", "ellipse", "--range", "0.1:0.5:0"],
        ["sweep", "--family", "ellipse", "--range", "0.5:0.1:-0.1"],
        ["sweep", "--family", "ellipse", "--range", "0.1:inf:0.1"],
        ["sweep", "--family", "ellipse", "--range", "0.5:0.1:0.1"],
    ])
    def test_malformed_list_flag_exit_2(self, tmp_path, argv):
        # a step that never reaches the stop would make the sweep loop grow
        # its value list without end; a start above the stop gives a
        # header-only table
        out = tmp_path / "x"
        assert run(argv + ["--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["logdet", "grunsky", "invert"])
    def test_negative_order_exit_2(self, tmp_path, command, capsys):
        code = run([command, "--family", "identity", "--N=-4",
                    "--out", str(tmp_path / "x")])
        assert code == 2
        assert "N >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("orders", ["64,32", "32,32"])
    @pytest.mark.parametrize("argv", [
        ["logdet", "--family", "ellipse", "--c", "0.5"],
        ["grunsky", "--family", "ellipse", "--c", "0.5"],
        ["invert", "--family", "ellipse", "--c", "0.5"],
        ["identity", "--family", "ellipse", "--c", "0.5"],
        ["sweep", "--family", "ellipse", "--range", "0.5:0.5:0.1",
         "--grid", "16x32"],
    ])
    def test_unordered_orders_exit_2_before_any_pair(self, tmp_path, argv,
                                                     orders, monkeypatch):
        # a block is built to max(N) and the report reads every order, so
        # the list is checked before the costly pair
        def no_pair(*args, **kwargs):
            raise AssertionError("a pair was built for an invalid --N")

        monkeypatch.setattr("weldlab.maps.catalog", no_pair)
        out = tmp_path / "x"
        assert run(argv + ["--N", orders, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--genus=1", "--N=-4"])
    def test_sweep_invalid_shared_input_exit_2(self, tmp_path, flag, capsys):
        # an input every row shares is invalid input, not a failed row
        out = tmp_path / "sweep.csv"
        code = run(["sweep", "--family", "ellipse", "--range", "0.1:0.1:0.1",
                    "--N", "8", "--grid", "16x32", flag, "--out", str(out)])
        assert code == 2
        assert "usage" in capsys.readouterr().err
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

    @pytest.mark.parametrize("command", ["s1", "identity", "sweep"])
    def test_grid_ladder_too_small_exit_2(self, tmp_path, command, capsys):
        family = ["--family", "ellipse"] + (["--c", "0.1"] if command != "sweep" else [])
        code = run([command, *family, "--grid", "2x4",
                    "--out", str(tmp_path / "x")])
        assert code == 2
        assert "--grid" in capsys.readouterr().err

    def test_non_finite_report_exit_3_and_no_file(self, tmp_path, capsys):
        # S_cl = -12 pi s2_dg overflows; json has no -Infinity
        out = tmp_path / "scl.json"
        assert run(["scl", "--s2", "1e308", "--out", str(out)]) == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert "numerical failure" in err and str(out) in err

    def test_numerical_failure_exit_3(self, tmp_path, capsys):
        # extreme eccentricity: the damped iteration cannot settle
        code = run(["s1", "--family", "ellipse", "--c", "0.995",
                    "--out", str(tmp_path / "x.json")])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run(["sweep", "--family", "ellipse", "--range", "0.1:0.3:0.1",
                    "--N", "16,32,64", "--grid", "128x256", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 4  # header + 3 rows
        header = lines[0].split(",")
        assert "slack" in header and "error" in header
        # slack column equals 12 pi S2_dg = -12 pi S2_via_B1
        for row in lines[1:]:
            cells = dict(zip(header, row.split(",")))
            slack = float(cells["slack"])
            s2b1 = float(cells["S2_via_B1"])
            assert slack == pytest.approx(-12 * np.pi * s2b1, rel=1e-12)

    def test_identity_only_sweep_row_is_zero(self, tmp_path):
        # degenerate range covering one parameter
        out = tmp_path / "sweep1.csv"
        code = run(["sweep", "--family", "ellipse", "--range", "0.1:0.1:0.1",
                    "--N", "16,32", "--grid", "64x128", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2


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

    @pytest.mark.parametrize("argv, stages", [
        (["logdet", "--N", "8,16", *ELLIPSE01],
         ("catalog", "blocks", "determinant")),
        (["grunsky", "--N", "16", *ELLIPSE01], ("catalog", "blocks", "relations")),
        (["invert", "--N", "16", *ELLIPSE01],
         ("catalog", "reflection", "blocks", "determinant")),
        (["identity", "--N", "8,16", "--grid", "16x32", *ELLIPSE01],
         ("catalog", "quadrature", "blocks", "determinant")),
        (["s1", "--grid", "16x32", *ELLIPSE01], ("catalog", "quadrature")),
        # one row per parameter value, each timed like an identity report
        (["sweep", "--family", "ellipse", "--range", "0.1:0.2:0.1",
          "--N", "8,16", "--grid", "16x32"],
         ("catalog", "quadrature", "blocks", "determinant") * 2),
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
        ["sweep", "--family", "ellipse", "--range", "0.1:0.1:0.1",
         "--N", "8", "--grid", "16x32"],
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


def _blas_probe(module: str, setting=None) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if setting is not None:
        env["OPENBLAS_NUM_THREADS"] = setting
    src = str(Path(weldlab.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
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

    @pytest.mark.parametrize("module", ["weldlab", "weldlab.series"])
    def test_library_import_sets_nothing(self, module):
        probe = _blas_probe(module)
        assert probe["env"] is None
        if module == "weldlab":
            assert probe["numpy"] is False
