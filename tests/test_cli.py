"""CLI: parsing, defaults, output contracts, determinism, exit codes."""

import csv
import io
import json
import math

import pytest

from neuric import cli
from neuric.activation import AfConfig, AfKind
from neuric.fixedpoint import FXP8, FXP16, Fx, add_sat, mul, shr_round, sub_sat
from neuric.pe import ExecStrategy, NeuricConfig, cycles


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_eval_defaults(self):
        args = cli.parse_args(["eval", "--af", "sigmoid", "--x", "0.5"])
        assert args.command == "eval"
        assert args.format == "fxp16" and args.iters is None and args.seed == 42
        assert args.out is None and args.out_format is None and not args.raw

    def test_montecarlo_flags(self):
        args = cli.parse_args(["montecarlo", "--af", "tanh", "--samples", "100000",
                               "--seed", "7", "--out", "report.json"])
        assert args.command == "montecarlo"
        assert args.samples == 100000 and args.seed == 7 and args.out == "report.json"

    @pytest.mark.parametrize("argv", [
        ["eval", "--af", "bogus", "--x", "0"],
        ["eval", "--x", "0"],                       # missing required --af
        ["sweep", "--af", "tanh", "--format", "q99"],
        ["cycles", "--af", "tanh", "--strategy", "warp"],
        ["eval", "--af", "tanh", "--x", "0", "--unknown-flag"],
        ["frobnicate"],
        [],
    ])
    def test_usage_errors_exit_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            cli.parse_args(argv)
        assert exc.value.code == 2


class TestEval:
    def test_sigmoid_zero_plain(self, capsys):
        code, out, err = run_cli(capsys, "eval", "--af", "sigmoid", "--x", "0")
        assert code == 0 and err == ""
        assert abs(float(out.strip()) - 0.5) <= FXP16.lsb

    def test_json_payload(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--af", "tanh", "--x", "0.5",
                               "--out-format", "json")
        assert code == 0
        d = json.loads(out)
        assert d["schema"] == 1 and d["af"] == "tanh" and d["format"] == "q3.12"
        assert abs(d["y_real"] - math.tanh(0.5)) <= 0.01
        assert d["y_oracle"] == pytest.approx(math.tanh(d["x_real"]), rel=1e-12)
        assert d["abs_err"] == pytest.approx(abs(d["y_real"] - d["y_oracle"]), abs=1e-15)

    def test_csv_row(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--af", "relu", "--x", "-0.7",
                               "--out-format", "csv")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        assert float(rows[0]["y_fx_real"]) == 0.0
        assert rows[0]["af"] == "relu"

    def test_raw_entry(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--af", "relu", "--x", "4096", "--raw")
        assert code == 0 and float(out.strip()) == 1.0
        code, out, _ = run_cli(capsys, "eval", "--af", "relu", "--x", "0x1000", "--raw")
        assert float(out.strip()) == 1.0   # base-prefixed integers accepted

    def test_format_selection(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--af", "relu", "--x", "0.5",
                               "--format", "fxp8")
        assert code == 0 and float(out.strip()) == 0.5

    def test_runtime_error_exit_1(self, capsys):
        # raw code outside the 16-bit word is a runtime failure, not usage
        code, out, err = run_cli(capsys, "eval", "--af", "relu", "--x", "99999", "--raw")
        assert code == 1 and out == "" and "error" in err


class TestSweep:
    def test_row_count_contract(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--af", "tanh", "--samples", "1024")
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[0] == "x_real,af,format,y_fx_real,y_oracle,abs_err,rel_err"
        assert len(lines) == 1 + 1024

    def test_rows_parse_losslessly(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--af", "sigmoid", "--samples", "64",
                               "--range", "-2", "2")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 64
        for row in rows:
            x = float(row["x_real"])
            y = float(row["y_fx_real"])
            ref = float(row["y_oracle"])
            assert ref == pytest.approx(1 / (1 + math.exp(-x)), rel=1e-12)
            assert float(row["abs_err"]) == abs(y - ref)

    def test_json_variant(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--af", "gelu", "--samples", "16",
                               "--out-format", "json")
        d = json.loads(out)
        assert d["schema"] == 1 and len(d["rows"]) == 16

    def test_bad_range_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--af", "tanh", "--range", "1", "-1")
        assert code == 1 and "error" in err

    def test_too_few_samples_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--af", "tanh", "--samples", "1")
        assert code == 1

    @pytest.mark.parametrize("argv", [("sweep", "--af", "softmax"),
                                      ("eval", "--af", "softmax", "--x", "0.5")],
                             ids=["sweep", "eval"])
    def test_softmax_refused_per_point(self, capsys, argv):
        # a per-point softmax is a length-1 vector: always 1.0, nothing to sweep
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert "softmax is vector-valued" in err and "neuric montecarlo --af softmax" in err


class TestMonteCarlo:
    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "montecarlo", "--af", "sigmoid",
                               "--samples", "2000", "--seed", "3")
        d = json.loads(out)
        assert code == 0
        assert d["schema"] == 1 and d["n"] == 2000 and d["seed"] == 3
        assert d["rel_mean_pct"] <= 3.5

    def test_csv_report(self, capsys):
        code, out, _ = run_cli(capsys, "montecarlo", "--af", "swish",
                               "--samples", "500", "--out-format", "csv")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1 and rows[0]["af"] == "swish"

    def test_determinism_byte_identical(self, capsys):
        argv = ("montecarlo", "--af", "selu", "--samples", "3000", "--seed", "11")
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2

    def test_matches_library(self, capsys):
        from neuric import analysis
        _, out, _ = run_cli(capsys, "montecarlo", "--af", "tanh",
                            "--samples", "1000", "--seed", "5")
        d = json.loads(out)
        rep = analysis.monte_carlo(AfKind.TANH, AfConfig(AfKind.TANH, FXP16),
                                   1000, seed=5)
        assert d["me"] == rep.me and d["mae"] == rep.mae

    def test_out_of_domain_range_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "montecarlo", "--af", "tanh",
                               "--range", "-9", "9")
        assert code == 1 and "error" in err

    def test_softmax_fxp32_refused_exit_1(self, capsys):
        code, out, err = run_cli(capsys, "montecarlo", "--af", "softmax",
                                 "--format", "fxp32", "--samples", "64")
        assert code == 1 and out == ""
        assert "neuric montecarlo: error: softmax is not available at q3.28" in err


class TestCycles:
    def test_relu_af_one(self, capsys):
        code, out, _ = run_cli(capsys, "cycles", "--af", "relu", "--len", "1")
        d = json.loads(out)
        assert code == 0 and d["af_cycles"] == 1

    def test_matches_library_model(self, capsys):
        for af, length, strategy in (("tanh", 1, "iterative"), ("gelu", 5, "pipelined"),
                                     ("softmax", 3, "iterative")):
            _, out, _ = run_cli(capsys, "cycles", "--af", af, "--len", str(length),
                                "--strategy", strategy)
            d = json.loads(out)
            cfg = NeuricConfig(FXP16, AfConfig(AfKind(af), FXP16),
                               ExecStrategy(strategy))
            rep = cycles(cfg, length)
            assert d["mac_cycles"] == rep.mac_cycles
            assert d["af_cycles"] == rep.af_cycles
            assert d["total"] == rep.total
            assert d["shift_add_ops"] == rep.shift_add_ops

    def test_csv_variant(self, capsys):
        _, out, _ = run_cli(capsys, "cycles", "--af", "tanh", "--out-format", "csv")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        assert int(rows[0]["mac_cycles"]) == 14 and int(rows[0]["af_cycles"]) == 28

    def test_iters_flag(self, capsys):
        _, out, _ = run_cli(capsys, "cycles", "--af", "tanh", "--iters", "7")
        assert json.loads(out)["af_cycles"] == 14

    def test_bad_len_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "cycles", "--af", "tanh", "--len", "0")
        assert code == 1


class TestGolden:
    def test_rows_recompute(self, capsys):
        code, out, _ = run_cli(capsys, "golden", "--samples", "40", "--format", "fxp8")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 4 * 40   # add, sub, mul, shr
        ops = {"add": add_sat, "sub": sub_sat, "mul": mul}
        for row in rows:
            a = int(row["raw_in_a"])
            b = int(row["raw_in_b"])
            if row["op"] == "shr":
                r = shr_round(Fx(a, FXP8), b)
            else:
                r = ops[row["op"]](Fx(a, FXP8), Fx(b, FXP8))
            assert r.raw == int(row["raw_out"]), row
            assert int(r.sat) == int(row["sat_flag"]), row

    def test_edge_pairs_present(self, capsys):
        _, out, _ = run_cli(capsys, "golden", "--samples", "10")
        rows = [r for r in csv.DictReader(io.StringIO(out)) if r["op"] == "add"]
        pairs = {(int(r["raw_in_a"]), int(r["raw_in_b"])) for r in rows}
        lo, hi = FXP16.min_raw, FXP16.max_raw
        assert {(lo, lo), (hi, hi), (lo, hi), (0, 0), (-1, 1)} <= pairs

    def test_determinism(self, capsys):
        _, out1, _ = run_cli(capsys, "golden", "--samples", "64", "--seed", "9")
        _, out2, _ = run_cli(capsys, "golden", "--samples", "64", "--seed", "9")
        assert out1 == out2
        _, out3, _ = run_cli(capsys, "golden", "--samples", "64", "--seed", "10")
        assert out1 != out3

    def test_bad_samples_exit_1(self, capsys):
        code, _, _ = run_cli(capsys, "golden", "--samples", "0")
        assert code == 1


class TestOutFile:
    def test_file_equals_stdout(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        _, stdout_text, _ = run_cli(capsys, "sweep", "--af", "tanh", "--samples", "32")
        code, out, _ = run_cli(capsys, "sweep", "--af", "tanh", "--samples", "32",
                               "--out", str(path))
        assert code == 0 and out == ""
        assert path.read_text(encoding="utf-8") == stdout_text

    def test_unwritable_path_exit_1(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "montecarlo", "--af", "tanh", "--samples", "100",
                               "--out", str(tmp_path / "no" / "such" / "dir" / "x.json"))
        assert code == 1 and "error" in err
