"""End-to-end exercises of the command-line interface.

Everything runs in process through ``cli.main`` so monkeypatching and
coverage work, with subprocess checks of the entry point: the installed
console script, and `python -m lqdec.cli` from the source tree.
"""

import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from lqdec import __version__, alloc, cli
from lqdec.quant import QuantConfig, read_quantized, dequantize
from lqdec.tensor_io import read_fisher, read_tensor


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def make_matrix(dirpath, name, kind="gaussian", rows=16, cols=12, seed=0, extra=()):
    out = dirpath / name
    argv = ["gen", "matrix", str(out), "--kind", kind, "--rows", str(rows),
            "--cols", str(cols), "--seed", str(seed), *extra]
    assert cli.main(argv) == 0
    return out


def write_grid(dirpath, rows, as_dict=False):
    path = dirpath / "grid.json"
    payload = {"configs": rows} if as_dict else rows
    path.write_text(json.dumps(payload))
    return path


SMALL_GRID = [[2, 2, "fp16", 16, 16], [3, 4, "fp32", 16, 64]]


def small_table(sizes, errors):
    """A table.json text over SMALL_GRID."""
    return json.dumps({"sizes": sizes, "configs": SMALL_GRID, "errors": errors,
                       "fisher_weighted": False, "rank": 1, "seed": 0})


class TestExitCodes:
    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["--version"])
        assert exc_info.value.code == 0
        assert "lqdec" in capsys.readouterr().out

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["--help"])
        assert exc_info.value.code == 0

    def test_unknown_flag(self, capsys):
        assert cli.main(["report", "--frobnicate"]) == 1

    def test_missing_command(self):
        assert cli.main([]) == 1

    def test_missing_input_file(self, tmp_path, capsys):
        code = cli.main(["quantize", str(tmp_path / "absent.lqt"),
                         str(tmp_path / "out.lqq"), "--config", "4,8,fp32,64,256"])
        assert code == 1

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.lqq"
        bad.write_bytes(b"XXXX" + bytes(60))
        assert cli.main(["dequantize", str(bad), str(tmp_path / "out.lqt")]) == 2

    def test_infeasible_budget(self, tmp_path, capsys):
        m = make_matrix(tmp_path, "m.lqt")
        grid = write_grid(tmp_path, SMALL_GRID)
        table = tmp_path / "table.json"
        assert cli.main(["sweep", str(m), "-o", str(table), "--grid", str(grid)]) == 0
        code = cli.main(["allocate", str(table), "-o", str(tmp_path / "sol.json"),
                         "--budget-bits-per-param", "1.0"])
        assert code == 3

    def test_infeasible_init_leaves_no_output(self, tmp_path, capsys):
        # nothing fits 1 bit per parameter: exit 3, and no output directory
        m = make_matrix(tmp_path, "a.lqt")
        out_dir = tmp_path / "d"
        assert cli.main(["init", str(m), "--out-dir", str(out_dir),
                         "--budget-bits-per-param", "1", "--rank", "2"]) == 3
        assert capsys.readouterr().err.startswith("infeasible budget")
        assert not out_dir.exists()

    def test_bad_budget_string(self, tmp_path, capsys):
        m = make_matrix(tmp_path, "m.lqt")
        grid = write_grid(tmp_path, SMALL_GRID)
        table = tmp_path / "table.json"
        assert cli.main(["sweep", str(m), "-o", str(table), "--grid", str(grid)]) == 0
        for text in ("three", "1/0", "nan", "inf"):
            code = cli.main(["allocate", str(table), "-o", str(tmp_path / "sol.json"),
                             "--budget-bits-per-param", text])
            assert code == 1
        assert cli.main(["report", "--shapes", "4x4", "--quant-bits", "4",
                         "--lora-bits", "x"]) == 1
        assert cli.main(["report", "--shapes", "4x4", "--quant-bits", "1/0"]) == 1

    @pytest.mark.parametrize("command, flag", [
        ("decompose", ["--method", "exact"]),
        ("decompose", ["--init", "quantize"]),
        ("sweep", ["--method", "exact"]),
    ])
    def test_removed_switches(self, tmp_path, capsys, command, flag):
        # one solver and one start: the library keeps `method` and `init`
        # as references, the CLI offers neither
        m = make_matrix(tmp_path, "m.lqt")
        out = {"decompose": ["--out-prefix", str(tmp_path / "s"), "--config", "2,2,fp16,16,16"],
               "sweep": ["-o", str(tmp_path / "t.json")]}[command]
        assert cli.main([command, str(m), *out, *flag]) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.lqt", "m.manifest.json"]

    @pytest.mark.parametrize("payload", [
        [[3, 8, "fp32", 64.5, 256]],
        [[3.0, 8, "fp32", 64, 256]],
        {"grid": SMALL_GRID},
        {"configs": 5},
        7,
        [[2, 2, "fp16", 16]],
        [[2, 2, "fp16", 16, 16, 1]],
        ["2,2,fp16,16,16"],
    ])
    def test_bad_grid_file(self, tmp_path, capsys, payload):
        m = make_matrix(tmp_path, "m.lqt")
        grid = write_grid(tmp_path, payload)
        table = tmp_path / "table.json"
        assert cli.main(["sweep", str(m), "-o", str(table), "--grid", str(grid)]) == 1
        assert capsys.readouterr().err.startswith("usage error: ")
        assert not table.exists()

    @pytest.mark.parametrize("shapes", ["0x4", "4x0", "4x", "x4", "4", "-4x-4", "4x4,", "4x4x4"])
    def test_bad_shapes(self, capsys, shapes):
        assert cli.main(["report", "--shapes", shapes, "--quant-bits", "4"]) == 1
        assert capsys.readouterr().err.startswith("usage error: ")

    def test_bad_config_string(self, tmp_path, capsys):
        m = make_matrix(tmp_path, "m.lqt")
        code = cli.main(["quantize", str(m), str(tmp_path / "q.lqq"),
                         "--config", "5,8,fp32,64,256"])
        assert code == 1

    @pytest.mark.parametrize("payload", [
        '{"sizes": [16]}',
        small_table([16, 16], [[1.0, 2.0]]),
        # 2x3 errors for 3 matrices x 2 configs: as many cells, wrong shape
        small_table([16, 16, 16], [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
        small_table([-16, 16], [[1.0, 0.5], [2.0, 1.0]]),
        small_table([], []),
        '{"sizes": [16], "configs"',
        json.dumps({"sizes": [16], "configs": [], "errors": [[]],
                    "fisher_weighted": False, "rank": 1, "seed": 0}),
    ], ids=["no-configs", "short-errors", "transposed-errors", "negative-size", "no-matrices",
            "not-json", "empty-configs"])
    def test_malformed_table(self, tmp_path, capsys, payload):
        table = tmp_path / "table.json"
        table.write_text(payload)
        code = cli.main(["allocate", str(table), "-o", str(tmp_path / "sol.json"),
                         "--budget-bits-per-param", "4"])
        assert code == 2
        assert capsys.readouterr().err.startswith("format error: ")

    def test_malformed_table_on_resume(self, tmp_path, capsys):
        m = make_matrix(tmp_path, "m.lqt")
        grid = write_grid(tmp_path, SMALL_GRID)
        table = tmp_path / "table.json"
        argv = ["sweep", str(m), "-o", str(table), "--grid", str(grid)]
        assert cli.main(argv) == 0
        table.write_text(table.read_text()[:-20])
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("format error: ")

    @pytest.mark.parametrize("text", ["[1, 2]", "garbage{"], ids=["not-an-object", "not-json"])
    def test_unreadable_table_on_resume(self, tmp_path, capsys, text):
        # an output that is no JSON object is neither resumed nor overwritten
        m = make_matrix(tmp_path, "m.lqt")
        grid = write_grid(tmp_path, SMALL_GRID)
        table = tmp_path / "table.json"
        argv = ["sweep", str(m), "-o", str(table), "--grid", str(grid)]
        assert cli.main(argv) == 0
        table.write_text(text)
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("format error: ")
        assert str(table) in err and "--fresh" in err
        assert table.read_text() == text
        assert cli.main(argv + ["--fresh"]) == 0

    @pytest.mark.parametrize("cell", [math.inf, -math.inf, math.nan, -1.0],
                             ids=["inf", "-inf", "nan", "negative"])
    def test_bad_error_cell(self, tmp_path, capsys, cell):
        # a squared error is finite and nonnegative; only null marks a cell unswept
        table = tmp_path / "table.json"
        table.write_text(small_table([16], [[cell, 2.0]]))
        code = cli.main(["allocate", str(table), "-o", str(tmp_path / "sol.json"),
                         "--budget-bits-per-param", "3"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("format error: ") and str(table) in err
        assert not (tmp_path / "sol.json").exists()

    @pytest.mark.parametrize("field, value", [
        ("fisher_weighted", "false"), ("rank", 1.9), ("seed", True), ("errors", "0.5"),
    ], ids=["weighted-text", "rank-float", "seed-bool", "error-text"])
    def test_field_of_wrong_type(self, tmp_path, capsys, field, value):
        payload = json.loads(small_table([16], [[1.0, 2.0]]))
        if field == "errors":
            payload["errors"][0][0] = value
        else:
            payload[field] = value
        table = tmp_path / "table.json"
        table.write_text(json.dumps(payload))
        code = cli.main(["allocate", str(table), "-o", str(tmp_path / "sol.json"),
                         "--budget-bits-per-param", "3"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("format error: ") and str(table) in err
        assert not (tmp_path / "sol.json").exists()

    @pytest.mark.parametrize("cell", [math.inf, -1.0], ids=["inf", "negative"])
    def test_bad_error_cell_on_resume(self, tmp_path, capsys, cell):
        m = make_matrix(tmp_path, "m.lqt")
        grid = write_grid(tmp_path, SMALL_GRID)
        table = tmp_path / "table.json"
        argv = ["sweep", str(m), "-o", str(table), "--grid", str(grid)]
        assert cli.main(argv) == 0
        payload = json.loads(table.read_text())
        payload["errors"][0][0] = cell
        table.write_text(json.dumps(payload))
        text = table.read_text()
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("format error: ")
        assert str(table) in err and "--fresh" in err
        assert table.read_text() == text

    def test_rank_beyond_matrix_leaves_no_output(self, tmp_path, capsys):
        m = make_matrix(tmp_path, "m.lqt", rows=16, cols=12)
        grid = write_grid(tmp_path, SMALL_GRID)
        table = tmp_path / "t.json"
        assert cli.main(["sweep", str(m), "-o", str(table), "--grid", str(grid),
                         "--rank", "99"]) == 1
        assert capsys.readouterr().err.startswith("usage error: ")
        assert not table.exists()
        assert not (tmp_path / "t.manifest.json").exists()

    def test_numerical_failure(self, tmp_path, monkeypatch, capsys):
        m = make_matrix(tmp_path, "m.lqt")

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(cli, "lq_decompose", fail)
        code = cli.main(["decompose", str(m), "--out-prefix", str(tmp_path / "s"),
                         "--config", "3,4,fp32,16,64"])
        assert code == 4
        assert capsys.readouterr().err.startswith("numerical failure: ")
        assert not (tmp_path / "s.lqq").exists()

    def test_misshapen_fisher_leaves_no_output(self, tmp_path, capsys):
        m = make_matrix(tmp_path, "m.lqt", rows=16, cols=16)
        f = tmp_path / "f.lqt"
        assert cli.main(["gen", "fisher", str(f), "--kind", "uniform",
                         "--rows", "8", "--cols", "16"]) == 0
        table = tmp_path / "t.json"
        for argv in (["sweep", str(m), "-o", str(table)],
                     ["init", str(m), "--out-dir", str(tmp_path / "init"),
                      "--budget-bits-per-param", "4"]):
            assert cli.main(argv + ["--fisher", str(f)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("usage error: ") and str(f) in err
        assert not table.exists()
        assert not (tmp_path / "t.manifest.json").exists()
        assert not (tmp_path / "init").exists()

    @pytest.mark.parametrize("count", ["0", "-4"])
    def test_worker_count_below_one(self, tmp_path, capsys, count):
        m = make_matrix(tmp_path, "m.lqt")
        grid = write_grid(tmp_path, SMALL_GRID)
        table = tmp_path / "t.json"
        argv = ["sweep", str(m), "-o", str(table), "--grid", str(grid)]
        assert cli.main(argv + ["--workers", count]) == 1
        assert capsys.readouterr().err.startswith("usage error: ")
        assert cli.main(["init", str(m), "--out-dir", str(tmp_path / "init"),
                         "--grid", str(grid), "--budget-bits-per-param", "4",
                         "--workers", count]) == 1
        assert not table.exists()
        assert not (tmp_path / "t.manifest.json").exists()
        assert not (tmp_path / "init").exists()


class TestGen:
    def test_matrix_deterministic(self, tmp_path, capsys):
        a = make_matrix(tmp_path, "a.lqt", seed=7)
        b = make_matrix(tmp_path, "b.lqt", seed=7)
        assert a.read_bytes() == b.read_bytes()

    def test_manifest_written(self, tmp_path, capsys):
        out = make_matrix(tmp_path, "m.lqt", kind="low-rank", extra=("--rank", "2"))
        manifest = json.loads((tmp_path / "m.manifest.json").read_text())
        assert manifest["command"] == "gen matrix"
        assert manifest["params"]["kind"] == "low-rank"
        assert manifest["params"]["rank"] == 2
        assert manifest["outputs"] == [str(out)]

    def test_fisher(self, tmp_path, capsys):
        out = tmp_path / "f.lqt"
        assert cli.main(["gen", "fisher", str(out), "--kind", "separable",
                         "--rows", "8", "--cols", "6"]) == 0
        f = read_tensor(out)
        assert f.shape == (8, 6)
        assert np.all(f >= 0)


class TestQuantizePipeline:
    def test_on_grid_round_trip_is_exact(self, tmp_path, capsys):
        m = make_matrix(tmp_path, "m.lqt", kind="on-grid",
                        extra=("--config", "4,8,fp32,16,64"))
        q_path = tmp_path / "m.lqq"
        d_path = tmp_path / "m.back.lqt"
        assert cli.main(["quantize", str(m), str(q_path),
                         "--config", "4,8,fp32,16,64"]) == 0
        assert cli.main(["dequantize", str(q_path), str(d_path)]) == 0
        assert np.array_equal(read_tensor(d_path), read_tensor(m))

    def test_quantize_prints_container_size(self, tmp_path, capsys):
        m = make_matrix(tmp_path, "m.lqt")
        q_path = tmp_path / "m.lqq"
        code, out = run(capsys, "quantize", str(m), str(q_path),
                        "--config", "2,2,fp16,16,16")
        assert code == 0
        assert f"{q_path.stat().st_size} bytes" in out
        manifest = json.loads((tmp_path / "m.manifest.json").read_text())
        assert manifest["bits_per_param"] == 2.1875

    def test_rerun_byte_identical(self, tmp_path, capsys):
        m = make_matrix(tmp_path, "m.lqt")
        q1, q2 = tmp_path / "1.lqq", tmp_path / "2.lqq"
        for q in (q1, q2):
            assert cli.main(["quantize", str(m), str(q),
                             "--config", "4,8,fp32,64,256"]) == 0
        assert q1.read_bytes() == q2.read_bytes()


class TestDecompose:
    def test_artifacts_and_manifest(self, tmp_path, capsys):
        m = make_matrix(tmp_path, "m.lqt", rows=24, cols=20, seed=3)
        prefix = tmp_path / "split"
        code, out = run(capsys, "decompose", str(m), "--out-prefix", str(prefix),
                        "--config", "3,4,fp32,16,64", "--rank", "2", "--seed", "1")
        assert code == 0
        assert re.search(r"error=\d\.\d+e[+-]\d+ iterations=\d+ chosen=\d+ reason=\S+", out)
        q = read_quantized(tmp_path / "split.lqq")
        l1 = read_tensor(tmp_path / "split.l1.lqt")
        l2 = read_tensor(tmp_path / "split.l2.lqt")
        assert l1.shape == (24, 2) and l2.shape == (2, 20)
        manifest = json.loads((tmp_path / "split.manifest.json").read_text())
        rebuilt = dequantize(q) + l1.astype(np.float64) @ l2.astype(np.float64)
        err = float(np.linalg.norm(read_tensor(m) - rebuilt))
        assert err == pytest.approx(manifest["error"], rel=1e-9)
        assert manifest["chosen_iteration"] == int(np.argmin(manifest["error_trace"]))
        assert manifest["converged_reason"] in (
            "error-increased", "max-iters", "zero-error")

    def test_fisher_weighted(self, tmp_path, capsys):
        m = make_matrix(tmp_path, "m.lqt", rows=16, cols=12, seed=3)
        f = tmp_path / "f.lqt"
        assert cli.main(["gen", "fisher", str(f), "--kind", "random-nonneg",
                         "--rows", "16", "--cols", "12", "--seed", "9"]) == 0
        code, out = run(capsys, "decompose", str(m), "--out-prefix",
                        str(tmp_path / "w"), "--config", "3,4,fp32,16,64",
                        "--rank", "2", "--fisher", str(f))
        assert code == 0
        manifest = json.loads((tmp_path / "w.manifest.json").read_text())
        assert manifest["params"]["fisher"] == str(f)


class TestSweep:
    def sweep_argv(self, m, out, grid, seed=3):
        return ["sweep", str(m), "-o", str(out), "--grid", str(grid),
                "--rank", "1", "--seed", str(seed)]

    def test_resume_skips_completed_cells(self, tmp_path, monkeypatch, capsys):
        m = make_matrix(tmp_path, "m.lqt")
        grid = write_grid(tmp_path, SMALL_GRID)
        out = tmp_path / "table.json"
        argv = self.sweep_argv(m, out, grid)
        assert cli.main(argv) == 0
        first = out.read_bytes()

        calls = []
        real = alloc.lq_decompose
        monkeypatch.setattr(alloc, "lq_decompose",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        code, text = run(capsys, *argv)
        assert code == 0
        assert "resuming: 2/2" in text
        assert calls == []
        assert out.read_bytes() == first

    def test_resume_fills_only_missing_cells(self, tmp_path, monkeypatch, capsys):
        m = make_matrix(tmp_path, "m.lqt")
        grid = write_grid(tmp_path, SMALL_GRID)
        out = tmp_path / "table.json"
        argv = self.sweep_argv(m, out, grid)
        assert cli.main(argv) == 0
        first = out.read_bytes()

        payload = json.loads(out.read_text())
        payload["errors"][0][1] = None
        out.write_text(json.dumps(payload))

        calls = []
        real = alloc.lq_decompose
        monkeypatch.setattr(alloc, "lq_decompose",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        assert cli.main(argv) == 0
        assert len(calls) == 1
        assert out.read_bytes() == first

    def test_fresh_recomputes_everything(self, tmp_path, monkeypatch, capsys):
        m = make_matrix(tmp_path, "m.lqt")
        grid = write_grid(tmp_path, SMALL_GRID)
        out = tmp_path / "table.json"
        argv = self.sweep_argv(m, out, grid)
        assert cli.main(argv) == 0

        calls = []
        real = alloc.lq_decompose
        monkeypatch.setattr(alloc, "lq_decompose",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        assert cli.main(argv + ["--fresh"]) == 0
        assert len(calls) == 2

    def test_rewritten_input_is_not_resumed(self, tmp_path, capsys):
        m = make_matrix(tmp_path, "m.lqt", seed=0)
        grid = write_grid(tmp_path, SMALL_GRID)
        out = tmp_path / "table.json"
        argv = self.sweep_argv(m, out, grid)
        assert cli.main(argv) == 0
        make_matrix(tmp_path, "m.lqt", seed=1)  # same path, new contents
        code, text = run(capsys, *argv)
        assert code == 0
        assert "resuming" not in text
        fresh = tmp_path / "fresh.json"
        assert cli.main(self.sweep_argv(m, fresh, grid) + ["--fresh"]) == 0
        assert out.read_bytes() == fresh.read_bytes()

    def test_changed_params_ignore_partial(self, tmp_path, capsys):
        m = make_matrix(tmp_path, "m.lqt")
        grid = write_grid(tmp_path, SMALL_GRID)
        out = tmp_path / "table.json"
        assert cli.main(self.sweep_argv(m, out, grid, seed=3)) == 0
        code, text = run(capsys, *self.sweep_argv(m, out, grid, seed=4))
        assert code == 0
        assert "resuming" not in text

    def test_interrupted_rerun_does_not_resume_old_cells(self, tmp_path, monkeypatch, capsys):
        # a rerun with new params, stopped in its first cell, must not leave
        # the old cells looking like a partial sweep under the new params
        a = make_matrix(tmp_path, "a.lqt")
        b = make_matrix(tmp_path, "b.lqt", seed=1)
        grid = write_grid(tmp_path, SMALL_GRID)
        out = tmp_path / "table.json"

        def argv(path, rank):
            return ["sweep", str(a), str(b), "-o", str(path), "--grid", str(grid),
                    "--rank", str(rank)]

        assert cli.main(argv(out, 1)) == 0

        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        with monkeypatch.context() as patch:
            patch.setattr(alloc, "lq_decompose", interrupt)
            with pytest.raises(KeyboardInterrupt):
                cli.main(argv(out, 2))
        code, text = run(capsys, *argv(out, 2))
        assert code == 0
        assert "resuming" not in text
        fresh = tmp_path / "fresh.json"
        assert cli.main(argv(fresh, 2) + ["--fresh"]) == 0
        assert out.read_bytes() == fresh.read_bytes()

    def test_table_keeps_its_params(self, tmp_path, monkeypatch, capsys):
        # the resume key is the table's own params: one written without
        # them (by an older version) is swept again and overwritten
        m = make_matrix(tmp_path, "m.lqt")
        grid = write_grid(tmp_path, SMALL_GRID)
        out = tmp_path / "table.json"
        argv = self.sweep_argv(m, out, grid)
        assert cli.main(argv) == 0
        first = out.read_bytes()
        payload = json.loads(first)
        manifest = json.loads((tmp_path / "table.manifest.json").read_text())
        assert payload["params"] == manifest["params"]
        assert payload["params"]["sha256"] == {str(m): cli._sha256(m)}

        del payload["params"]
        out.write_text(json.dumps(payload))
        calls = []
        real = alloc.lq_decompose
        monkeypatch.setattr(alloc, "lq_decompose",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        code, text = run(capsys, *argv)
        assert code == 0
        assert "resuming" not in text
        assert len(calls) == 2
        assert out.read_bytes() == first

    def test_table_with_method_param_is_swept_fresh(self, tmp_path, monkeypatch, capsys):
        # tables written while sweeps took `--method` hold it in their
        # params; those no longer match, so the cells are swept again
        m = make_matrix(tmp_path, "m.lqt")
        grid = write_grid(tmp_path, SMALL_GRID)
        out = tmp_path / "table.json"
        argv = self.sweep_argv(m, out, grid)
        assert cli.main(argv) == 0
        first = out.read_bytes()
        payload = json.loads(first)
        payload["params"]["method"] = "randomized"
        out.write_text(json.dumps(payload))
        calls = []
        real = alloc.lq_decompose
        monkeypatch.setattr(alloc, "lq_decompose",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        code, text = run(capsys, *argv)
        assert code == 0
        assert "resuming" not in text
        assert len(calls) == 2
        assert out.read_bytes() == first

    def test_workers_reach_a_pool(self, tmp_path, monkeypatch, capsys):
        # 3 matrices x 2 configs are 6 cells, two chunks of 4: two workers
        mats = [make_matrix(tmp_path, f"{i}.lqt", seed=i) for i in range(3)]
        grid = write_grid(tmp_path, SMALL_GRID)
        built = []

        class RecordingPool(alloc.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                built.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(alloc, "ProcessPoolExecutor", RecordingPool)
        tables = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}.json"
            assert cli.main(["sweep", *map(str, mats), "-o", str(out), "--grid", str(grid),
                             "--workers", workers]) == 0
            tables.append(out.read_bytes())
        assert built == [2]
        assert tables[0] == tables[1]

    @pytest.mark.parametrize("value", ["0", "x", "2"])
    def test_workers_env_var_is_ignored(self, tmp_path, monkeypatch, capsys, value):
        # --workers is the one way to ask for workers: a count the flag
        # refuses, a non-integer and a pool size in LQDEC_WORKERS all
        # leave the default of 1, with no pool for 6 cells
        mats = [make_matrix(tmp_path, f"{i}.lqt", seed=i) for i in range(3)]
        grid = write_grid(tmp_path, SMALL_GRID)
        built = []

        class RecordingPool(alloc.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                built.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(alloc, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setenv("LQDEC_WORKERS", value)
        out = tmp_path / "t.json"
        assert cli.main(["sweep", *map(str, mats), "-o", str(out), "--grid", str(grid)]) == 0
        assert built == []

    def test_grid_file_forms_agree(self, tmp_path, capsys):
        m = make_matrix(tmp_path, "m.lqt")
        grid_list = write_grid(tmp_path, SMALL_GRID)
        table_a = tmp_path / "a.json"
        assert cli.main(self.sweep_argv(m, table_a, grid_list)) == 0

        grid_dict = tmp_path / "grid2.json"
        grid_dict.write_text(json.dumps({"configs": SMALL_GRID}))
        table_b = tmp_path / "b.json"
        assert cli.main(self.sweep_argv(m, table_b, grid_dict)) == 0
        assert table_a.read_bytes() == table_b.read_bytes()

    def test_workers_flag(self, tmp_path, capsys):
        m = make_matrix(tmp_path, "m.lqt")
        grid = write_grid(tmp_path, SMALL_GRID)
        tables = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}.json"
            assert cli.main(self.sweep_argv(m, out, grid) + ["--workers", workers]) == 0
            tables.append(out.read_bytes())
        assert tables[0] == tables[1]

    def test_fisher_count_mismatch(self, tmp_path, capsys):
        a = make_matrix(tmp_path, "a.lqt")
        b = make_matrix(tmp_path, "b.lqt", seed=1)
        f = tmp_path / "f.lqt"
        assert cli.main(["gen", "fisher", str(f), "--kind", "uniform",
                         "--rows", "16", "--cols", "12"]) == 0
        grid = write_grid(tmp_path, SMALL_GRID)
        code = cli.main(["sweep", str(a), str(b), "-o", str(tmp_path / "t.json"),
                         "--grid", str(grid), "--fisher", str(f)])
        assert code == 1


class TestAllocate:
    def test_solution_file_and_summary(self, tmp_path, capsys):
        m = make_matrix(tmp_path, "m.lqt")
        grid = write_grid(tmp_path, SMALL_GRID)
        table = tmp_path / "table.json"
        assert cli.main(["sweep", str(m), "-o", str(table), "--grid", str(grid)]) == 0
        sol_path = tmp_path / "sol.json"
        code, out = run(capsys, "allocate", str(table), "-o", str(sol_path),
                        "--budget-bits-per-param", "3.0")
        assert code == 0
        assert re.search(r"total_error=\d\.\d+e[+-]\d+ bits_per_param=\d\.\d+ "
                         r"optimal=True", out)
        sol = json.loads(sol_path.read_text())
        assert len(sol["assignment"]) == 1

    def test_budget_is_exact_after_reload(self, tmp_path, capsys):
        m = make_matrix(tmp_path, "m.lqt")
        grid = write_grid(tmp_path, SMALL_GRID)
        table = tmp_path / "table.json"
        assert cli.main(["sweep", str(m), "-o", str(table), "--grid", str(grid)]) == 0
        sol_path = tmp_path / "sol.json"
        assert cli.main(["allocate", str(table), "-o", str(sol_path),
                         "--budget-bits-per-param", "3.1"]) == 0
        params = sum(alloc.SweepTable.from_json(json.loads(table.read_text())).sizes)
        sol = alloc.AllocSolution.from_json(json.loads(sol_path.read_text()))
        assert sol.budget_bits == Fraction("3.1") * params
        assert sol.total_storage_bits <= sol.budget_bits
        manifest = json.loads((tmp_path / "sol.manifest.json").read_text())
        assert Fraction(manifest["params"]["budget_bits_per_param"]) == Fraction("3.1")

    def test_brute_force_agrees(self, tmp_path, capsys):
        mats = [make_matrix(tmp_path, f"{i}.lqt", seed=i) for i in range(3)]
        grid = write_grid(tmp_path, SMALL_GRID)
        table = tmp_path / "table.json"
        assert cli.main(["sweep", *map(str, mats), "-o", str(table),
                         "--grid", str(grid)]) == 0
        sol_path = tmp_path / "plain.json"
        assert cli.main(["allocate", str(table), "-o", str(sol_path),
                         "--budget-bits-per-param", "2.5"]) == 0
        payload = json.loads(sol_path.read_text())
        manifest = json.loads((tmp_path / "plain.manifest.json").read_text())
        assert manifest["nodes"] == payload["nodes"]
        assert manifest["bounds"] == payload["bounds"]
        assert manifest["lp_bound"] == payload["lp_bound"]
        assert payload["nodes"] >= 0 and payload["bounds"] >= 0
        assert payload["lp_bound"] <= payload["total_error"]
        parsed = alloc.SweepTable.from_json(json.loads(table.read_text()))
        want = alloc.brute_force_mckp(parsed, Fraction("2.5") * sum(parsed.sizes))
        assert payload["total_error"] == want.total_error


class TestInit:
    def test_artifacts_reproduce_reported_errors(self, tmp_path, capsys):
        mats = [make_matrix(tmp_path, f"{i}.lqt", rows=16, cols=16, seed=i)
                for i in range(2)]
        grid = write_grid(tmp_path, SMALL_GRID + [[4, 8, "fp32", 16, 64]])
        out_dir = tmp_path / "init"
        code, out = run(capsys, "init", *map(str, mats), "--out-dir", str(out_dir),
                        "--budget-bits-per-param", "3.0", "--grid", str(grid),
                        "--rank", "2", "--seed", "5")
        assert code == 0
        assert "matrix 0: config=" in out
        assert "total_error=" in out

        manifest = json.loads((out_dir / "manifest.json").read_text())
        solution = json.loads((out_dir / "solution.json").read_text())
        assert len(solution["assignment"]) == 2
        assert manifest["bits_per_param"] <= 3.0 + 1e-12
        assert manifest["nodes"] == solution["nodes"] >= 0
        assert manifest["bounds"] == solution["bounds"] >= 0
        assert manifest["lp_bound"] == solution["lp_bound"] <= solution["total_error"]

        for i, entry in enumerate(manifest["matrices"]):
            q = read_quantized(out_dir / f"matrix_{i:03d}.lqq")
            l1 = read_tensor(out_dir / f"matrix_{i:03d}.l1.lqt")
            l2 = read_tensor(out_dir / f"matrix_{i:03d}.l2.lqt")
            w = read_tensor(mats[i])
            rebuilt = dequantize(q) + l1.astype(np.float64) @ l2.astype(np.float64)
            err = float(np.linalg.norm(w - rebuilt))
            assert err == pytest.approx(entry["error"], rel=1e-9)

    def test_matrices_record_each_decomposition(self, tmp_path, capsys):
        # each final decomposition is recorded as `decompose` records one
        mats = [make_matrix(tmp_path, f"{i}.lqt", rows=16, cols=16, seed=i)
                for i in range(2)]
        assert cli.main(["decompose", str(mats[0]), "--out-prefix", str(tmp_path / "s"),
                         "--config", "2,2,fp16,16,16", "--rank", "2"]) == 0
        single = json.loads((tmp_path / "s.manifest.json").read_text())
        stats = set(single) - {"command", "version", "params", "inputs", "outputs",
                               "elapsed_seconds"}
        assert stats == {"error", "error_trace", "chosen_iteration", "converged_reason"}

        out_dir = tmp_path / "init"
        assert cli.main(["init", *map(str, mats), "--out-dir", str(out_dir),
                         "--budget-bits-per-param", "3.0",
                         "--grid", str(write_grid(tmp_path, SMALL_GRID)),
                         "--rank", "2", "--seed", "5"]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert len(manifest["matrices"]) == 2
        for entry in manifest["matrices"]:
            assert stats <= set(entry)
            trace = entry["error_trace"]
            assert entry["chosen_iteration"] == int(np.argmin(trace))
            assert entry["error"] == trace[entry["chosen_iteration"]]

    def test_fisher_weighted(self, tmp_path, capsys):
        mats = [make_matrix(tmp_path, f"{i}.lqt", rows=16, cols=16, seed=i)
                for i in range(2)]
        fishers = []
        for i, kind in enumerate(("separable", "random-nonneg")):
            fishers.append(tmp_path / f"f{i}.lqt")
            assert cli.main(["gen", "fisher", str(fishers[-1]), "--kind", kind,
                             "--rows", "16", "--cols", "16", "--seed", str(i)]) == 0
        grid_rows = SMALL_GRID + [[4, 8, "fp32", 16, 64]]
        grid = write_grid(tmp_path, grid_rows)
        out_dir = tmp_path / "init"
        code, _ = run(capsys, "init", *map(str, mats), "--out-dir", str(out_dir),
                      "--budget-bits-per-param", "3.0", "--grid", str(grid),
                      "--rank", "2", "--seed", "5", "--max-iters", "4",
                      *(arg for f in fishers for arg in ("--fisher", str(f))))
        assert code == 0

        results, solution, table = alloc.lq_lora_init(
            [read_tensor(p) for p in mats], [read_fisher(f) for f in fishers],
            alloc.ConfigGrid(tuple(QuantConfig(*row) for row in grid_rows)), 2,
            budget_bits_per_param=Fraction(3), seed=5, max_iters=4)
        written = json.loads((out_dir / "table.json").read_text())
        assert written["fisher_weighted"] is True
        assert written == table.to_json()
        assert json.loads((out_dir / "solution.json").read_text()) == solution.to_json()
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["params"]["fishers"] == [str(f) for f in fishers]
        assert [entry["error"] for entry in manifest["matrices"]] == [r.error for r in results]


class TestReport:
    def test_preset_effective_bits(self, capsys):
        code, out = run(capsys, "report", "--preset", "llama2-7b-linear",
                        "--quant-bits", "2.75", "--lora-rank", "64")
        assert code == 0
        payload = json.loads(out)
        assert payload["total_params"] == 6476005376
        assert 2.94 < payload["effective_bits_per_param"] < 2.96

    def test_shapes_with_override(self, capsys):
        code, out = run(capsys, "report", "--shapes", "16x16", "--quant-bits", "4",
                        "--lora-rank", "2", "--lora-bits", "16")
        assert code == 0
        payload = json.loads(out)
        assert payload["total_params"] == 256
        assert payload["lora_params"] == 64
        assert Fraction(payload["lora_bits"]) == 1024

    def test_default_lora_bits_is_nf8(self, capsys):
        argv = ["report", "--shapes", "16x16", "--quant-bits", "4", "--lora-rank", "2"]
        code, out = run(capsys, *argv)
        assert code == 0
        assert run(capsys, *argv, "--lora-bits", "4161/512") == (0, out)
        assert Fraction(json.loads(out)["lora_bits"]) == 64 * alloc.LORA_FORMATS["nf8"]

    def test_bit_totals_are_exact(self, capsys):
        code, out = run(capsys, "report", "--shapes", "4x4", "--quant-bits", "1/3",
                        "--lora-rank", "1", "--lora-bits", "1/7")
        assert code == 0
        payload = json.loads(out)
        assert payload["quant_bits"] == "16/3"
        assert payload["lora_bits"] == "8/7"

    def test_shapes_allow_spaces(self, capsys):
        code, out = run(capsys, "report", "--shapes", "4 x 4, 2x8", "--quant-bits", "4")
        assert code == 0
        assert json.loads(out)["total_params"] == 32

    @pytest.mark.parametrize("argv", [
        ["--shapes", "4x4", "--quant-bits", "-3", "--lora-rank", "1"],
        ["--shapes", "4x4,4x4", "--quant-bits", "3,-3"],
        ["--shapes", "4x4", "--quant-bits", "4", "--lora-rank", "1", "--lora-bits", "-16"],
    ], ids=["quant-bits", "per-matrix", "lora-bits"])
    def test_negative_bits(self, capsys, argv):
        code, out = run(capsys, "report", *argv)
        assert code == 1
        assert out == ""

    def test_requires_exactly_one_source(self, capsys):
        assert cli.main(["report", "--quant-bits", "4"]) == 1
        assert cli.main(["report", "--preset", "llama2-7b-linear",
                         "--shapes", "4x4", "--quant-bits", "4"]) == 1


def test_sha256_reads_in_chunks(tmp_path):
    # the digest of a file longer than one read, without a copy of the file
    data = np.random.default_rng(0).bytes((4 << 20) + 12345)
    path = tmp_path / "big.lqt"
    path.write_bytes(data)
    tracemalloc.start()
    try:
        digest = cli._sha256(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert digest == hashlib.sha256(data).hexdigest()
    assert peak <= len(data) // 2


@pytest.mark.skipif(shutil.which("lqdec") is None,
                    reason="console script not on PATH")
def test_console_entry_point():
    proc = subprocess.run(["lqdec", "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "lqdec" in proc.stdout


def test_module_entry_point():
    # runs from the source tree, where no console script is installed;
    # the script pyproject.toml declares calls the same entry (read as
    # text: Python 3.10 has no tomllib)
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, "-m", "lqdec.cli", "--version"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"lqdec {__version__}\n"
    pyproject = (root / "pyproject.toml").read_text()
    assert re.search(r'^\[project\.scripts\]\nlqdec = "lqdec\.cli:entry"\n', pyproject, re.M)
