import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import grkhs
from grkhs import ShapeSequence, cli, verify
from grkhs.cli import main, parse_shape


class TestParseShape:
    def test_iso(self):
        s = parse_shape("iso:1.5")
        assert s.kind == "isotropic" and s.gamma(3) == 1.5

    def test_powerlaw(self):
        s = parse_shape("powerlaw:2:0.5")
        assert s.kind == "power-law"
        assert s.gamma(4) == pytest.approx(1.0)

    def test_geom(self):
        s = parse_shape("geom:0.5")
        assert s.kind == "geometric" and s.gamma(2) == pytest.approx(0.25)

    def test_explicit(self):
        s = parse_shape("explicit:1.0,0.5,0.25")
        assert s.gammas(3).tolist() == [1.0, 0.5, 0.25]

    def test_bad_tokens(self):
        for token in ("iso", "iso:a", "bogus:1", "powerlaw:1", "explicit:"):
            with pytest.raises(ValueError):
                parse_shape(token)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestSubcommands:
    def test_spectrum(self, capsys):
        code, out = run_cli(capsys, "spectrum", "--gamma", "1.0", "--k", "3")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("# grkhs ")
        assert lines[1].startswith("# config: ")
        assert lines[2] == "j,lambda_closed,lambda_nystrom,rel_err"
        assert len(lines) == 6
        first = lines[3].split(",")
        assert float(first[1]) == pytest.approx(0.6180340, abs=1e-6)

    def test_spectrum_past_taylor_range(self, capsys):
        # gamma = 1e8 takes the oracle's dense solve
        code, out = run_cli(capsys, "spectrum", "--gamma", "1e8", "--k", "3")
        assert code == 0 and len(out.strip().split("\n")) == 6

    def test_eigs(self, capsys):
        code, out = run_cli(capsys, "eigs", "--shape", "iso:1.0", "--d", "2", "--n", "3")
        assert code == 0
        rows = [l.split(",") for l in out.strip().split("\n")[3:]]
        assert [r[2] for r in rows] == ["1;1", "2;1", "1;2"]

    def test_decay_csv_schema(self, capsys):
        code, out = run_cli(capsys, "decay", "--shape", "iso:1.0", "--d", "1", "--N", "4")
        assert code == 0
        lines = out.strip().split("\n")
        assert "n,e_all,e_all_over_init" in lines
        first = lines[lines.index("n,e_all,e_all_over_init") + 1].split(",")
        assert first[0] == "0" and float(first[2]) == 1.0

    def test_complexity_csv_schema(self, capsys):
        code, out = run_cli(
            capsys,
            "complexity",
            "--shape",
            "iso:1.0",
            "--d",
            "1",
            "--eps",
            "0.1",
            "--criterion",
            "absolute",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert "d,eps,n,criterion" in lines
        assert "1,0.1,5,absolute" in lines

    def test_complexity_many_coordinates(self, capsys):
        # a lattice count of 1.9e6 over 64 distinct costs
        code, out = run_cli(
            capsys, "complexity", "--shape", "powerlaw:1:0.5", "--d", "64",
            "--eps", "0.001", "--criterion", "norm",
        )
        assert code == 0
        assert out.strip().split("\n")[-1] == "64,0.001,1905078,normalized"

    def test_rates_csv_schema(self, capsys):
        code, out = run_cli(
            capsys, "rates", "--shape", "powerlaw:1:2", "--d", "1", "--N", "300",
            "--window", "30,300",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert "shape,d,window_lo,window_hi,rate,superpoly_flag" in lines
        row = lines[-1].split(",")
        assert row[0] == "powerlaw:1:2" and row[5] in ("0", "1")

    def test_spline_bench(self, capsys):
        code, out = run_cli(
            capsys, "spline-bench", "--shape", "iso:1.0", "--d", "1",
            "--sizes", "1,2", "--seed", "3",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert "# seed: 3" in lines
        assert "d,n,e_spline,e_all" in lines
        # spline error dominates the optimal error in every row
        for row in lines[lines.index("d,n,e_spline,e_all") + 1 :]:
            _, _, e_spline, e_all = row.split(",")
            assert float(e_spline) >= float(e_all) - 1e-9


class TestConfigAndDeterminism:
    def test_config_file_and_override(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"shape": "iso:1.0", "d": "1", "n": 2}))
        code, out = run_cli(capsys, "eigs", "--config", str(cfg))
        assert code == 0 and len(out.strip().split("\n")) == 5
        code, out = run_cli(capsys, "eigs", "--config", str(cfg), "--n", "4")
        assert code == 0 and len(out.strip().split("\n")) == 7

    EIGS_FLAGS = ["eigs", "--shape", "iso:1.0", "--d", "2", "--n", "3"]

    @pytest.mark.parametrize(
        "entries, argv",
        [
            # typed JSON values used to be echoed as "d": 2 against "d": "2"
            ({"shape": "iso:1.0", "d": 2, "n": 3}, []),
            # a flag overrides an entry, wherever it stands
            ({"shape": "iso:1.0", "d": "2", "n": "5"}, ["--n", "3"]),
            ({"shape": "iso:1.0", "d": 7, "n": "3"}, ["--d", "2"]),
            # a null entry is absent, not echoed
            ({"shape": "iso:1.0", "d": "2", "n": None}, ["--n", "3"]),
        ],
    )
    def test_file_and_flags_write_the_same_bytes(self, capsys, tmp_path, entries, argv):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(entries))
        from_flags = run_cli(capsys, *self.EIGS_FLAGS)
        assert from_flags[0] == 0 and '"n": "3"' in from_flags[1]
        assert run_cli(capsys, "eigs", "--config", str(cfg), *argv) == from_flags
        assert run_cli(capsys, "eigs", *argv, "--config", str(cfg)) == from_flags

    def test_null_entry_is_absent(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"shape": "iso:1.0", "d": "2", "n": None}))
        assert main(["eigs", "--config", str(cfg)]) == 1
        assert capsys.readouterr() == ("", "error: missing required options: n\n")

    def test_misspelled_key_is_a_usage_error(self, capsys, tmp_path):
        # it used to be ignored: the absolute count 513 for the normalized 1355
        cfg = tmp_path / "c.json"
        entries = {"shape": "powerlaw:1:0.5", "d": "8", "eps": "0.01", "critreion": "norm"}
        cfg.write_text(json.dumps(entries))
        assert main(["complexity", "--config", str(cfg)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "unrecognized arguments: --critreion norm" in err

    @pytest.mark.parametrize("key", ["config", "conf"])
    def test_nested_config_entry_is_an_error(self, capsys, tmp_path, key):
        # the command line's --config would win and drop the entry unread
        cfg = tmp_path / "c.json"
        entries = {"shape": "iso:1.0", "d": "1", "n": "2", key: "nonexistent.json"}
        cfg.write_text(json.dumps(entries))
        assert main(["eigs", "--config", str(cfg)]) == 1
        message = "error: a config file cannot name another config file\n"
        assert capsys.readouterr() == ("", message)

    @pytest.mark.parametrize("n", [2.7, True, "2.5"])
    def test_non_integer_entry_exits_1(self, capsys, tmp_path, n):
        # 2.7 used to write 2 rows and True 1 row
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"shape": "iso:1.0", "d": 1, "n": n}))
        assert main(["eigs", "--config", str(cfg)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: invalid literal for int()")

    def test_byte_identical_reruns(self, tmp_path):
        args = lambda p: [
            "decay", "--shape", "powerlaw:1:1", "--d", "2", "--N", "50",
            "--out", str(p),
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args(a)) == 0
        assert main(args(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_out_file_newlines(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["spectrum", "--gamma", "1.0", "--k", "2", "--out", str(out)]) == 0
        data = out.read_bytes()
        assert b"\r\n" not in data and data.endswith(b"\n")


class TestExitCodes:
    def test_validation_error(self, capsys):
        assert main(["eigs", "--shape", "bogus:1", "--d", "2", "--n", "3"]) == 1
        assert main(["complexity", "--shape", "iso:1.0", "--d", "1", "--eps", "2.0"]) == 1

    def test_missing_required(self, capsys):
        assert main(["eigs", "--shape", "iso:1.0"]) == 1

    def test_usage_error_remapped(self, capsys):
        assert main(["not-a-command"]) == 1

    def test_spline_bench_rule_size_zero(self, capsys):
        # only an absent --m means the default rule; a given one is gated
        argv = ["spline-bench", "--shape", "iso:1.0", "--d", "1", "--sizes", "1", "--m", "0"]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", "error: need rule size >= 1, got 0\n")

    def test_resource_limit(self, capsys, monkeypatch):
        monkeypatch.setenv("GRKHS_MAX_EIGS", "5")
        assert main(["eigs", "--shape", "iso:1.0", "--d", "2", "--n", "50"]) == 2
        argv = ["complexity", "--shape", "powerlaw:1:0.5", "--d", "16", "--eps", "0.001"]
        capsys.readouterr()
        assert main(argv) == 2
        # the certified lower bound from the half-sets enumerated so far
        err = capsys.readouterr().err
        assert int(err.split("n >= ")[1]) >= 1

    @pytest.mark.parametrize("eps", ["0.01,0.001", "0.001,0.01"])
    def test_first_trip_reported_in_list_order(self, capsys, monkeypatch, eps):
        # d = 8 trips at eps = 0.001 only, whichever place it has in the list
        monkeypatch.setenv("GRKHS_MAX_EIGS", "3000")
        argv = ["complexity", "--shape", "powerlaw:1:0.5", "--d", "8,16", "--eps", eps,
                "--criterion", "norm"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "resource limit: complexity count exceeded half-set guard of 3000 "
            "entries; n >= 85694\n"
        )

    @pytest.mark.parametrize("eps", ["2.0,0.1", "0.1,0.5,1.0", "0.1,0.0", "0.1,nan"])
    def test_invalid_eps_anywhere_exits_1(self, capsys, eps):
        argv = ["complexity", "--shape", "iso:1.0", "--d", "1,2", "--eps", eps]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: eps must lie in (0, 1)")

    def test_shape_past_spectral_gate(self, capsys):
        # the parser takes any positive finite gamma; the spectral routes
        # reject one past about 1e16
        assert main(["eigs", "--shape", "iso:1e17", "--d", "2", "--n", "3"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: shape parameter 1e+17 too large for double precision\n"

    def test_missing_config_file(self, capsys):
        assert main(["spectrum", "--gamma", "1.0", "--config", "/nonexistent.json"]) == 1

    def test_config_must_be_an_object(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(["gamma", 1.0]))
        assert main(["spectrum", "--config", str(cfg)]) == 1
        assert capsys.readouterr() == ("", "error: config file must hold a JSON object\n")

    def test_decay_many_dimensions_need_out(self, capsys):
        assert main(["decay", "--shape", "iso:1.0", "--d", "1,2", "--N", "5"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: multiple dimensions need --out (one file per d)\n"


class TestVerify:
    @pytest.mark.parametrize("passed, code", [(True, 0), (False, 3)])
    def test_exit_code_and_out_file(self, capsys, monkeypatch, tmp_path, passed, code):
        results = [
            verify.CheckResult("01 first", True, "fine"),
            verify.CheckResult("02 second", passed, "detail"),
        ]
        monkeypatch.setattr(verify, "run_full", lambda: results)
        out = tmp_path / "report.txt"
        assert main(["verify", "--out", str(out)]) == code
        stdout = capsys.readouterr().out
        assert stdout == verify.render_report(results)
        assert out.read_bytes() == stdout.encode()


class TestParserReuse:
    ARGVS = [
        ["spectrum", "--gamma", "1.0", "--k", "2"],
        ["complexity", "--shape", "iso:1.0", "--d", "1,2", "--eps", "0.5,0.1"],
        ["complexity", "--shape", "iso:1.0", "--bogus", "1"],
        ["--help"],
        ["complexity", "--help"],
    ]

    def _run_all(self, capsys, fresh):
        outputs = []
        for argv in self.ARGVS:
            if fresh:
                cli._build_parser.cache_clear()
            code = main(list(argv))
            outputs.append((code, *capsys.readouterr()))
        return outputs

    def test_same_outputs_as_fresh_parsers(self, capsys):
        reused = self._run_all(capsys, fresh=False)
        fresh = self._run_all(capsys, fresh=True)
        assert reused == fresh
        assert [code for code, *_ in reused] == [0, 0, 1, 0, 0]
        assert reused[3][1].startswith("usage: grkhs")
        assert cli._build_parser() is cli._build_parser()


def test_import_and_complexity_load_no_scipy():
    # scipy is imported only by the Gauss-Hermite rule and the Lanczos solve
    code = (
        "import sys, grkhs, grkhs.cli\n"
        "assert 'scipy' not in sys.modules\n"
        "rc = grkhs.cli.main(['complexity', '--shape', 'iso:1.0', '--d', '1,2',"
        " '--eps', '0.5,0.1'])\n"
        "assert rc == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(grkhs.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
