import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grkhs
from grkhs import ShapeSequence, cli, verify
from grkhs.cli import main, parse_shape
from grkhs.complexity import _error_values
from grkhs.spectrum import MultiIndex, top_n_tensor_eigenvalues


class TestParseShape:
    def test_iso(self):
        s = parse_shape("iso:1.5")
        assert s.kind == "isotropic" and s.gammas(3).tolist() == [1.5] * 3

    def test_powerlaw(self):
        s = parse_shape("powerlaw:2:0.5")
        assert s.kind == "power-law"
        assert s.gammas(4)[3] == pytest.approx(1.0)

    def test_geom(self):
        s = parse_shape("geom:0.5")
        assert s.kind == "geometric" and s.gammas(2).tolist() == pytest.approx([0.5, 0.25])

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

    def test_spectrum_underflowed_values_have_zero_rel_err(self, capsys):
        # from j = 10 on both values underflow to 0, and 0 / 0 is not written
        code, out = run_cli(capsys, "spectrum", "--gamma", "1e-20", "--k", "10")
        assert code == 0
        assert out.strip().split("\n")[-1] == "10,0.0,0.0,0.0"

    def test_spectrum_gamma_whose_square_underflows(self, capsys):
        code, out = run_cli(capsys, "spectrum", "--gamma", "1e-300", "--k", "3")
        assert code == 0
        rows = [l.split(",") for l in out.strip().split("\n")[3:]]
        assert [r[1] for r in rows] == ["1.0", "0.0", "0.0"]
        assert [float(r[2]) for r in rows] == pytest.approx([1.0, 0.0, 0.0], rel=0.0, abs=1e-15)
        assert [r[3] for r in rows][1:] == ["0.0", "0.0"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["eigs", "--shape", "geom:0.5", "--d", "1100", "--n", "5"],
            ["decay", "--shape", "powerlaw:1:200", "--d", "50", "--N", "5"],
            ["complexity", "--shape", "geom:0.5", "--d", "1100", "--eps", "0.1"],
        ],
    )
    def test_rule_gamma_underflowed_to_zero(self, capsys, argv):
        # 0.5^1100 and 50^-200 round to 0.0: the rows equal those of the
        # explicit shape with 1e-200 there, whose ratio also underflows
        shape, d = parse_shape(argv[2]), int(argv[4])
        g = shape.gammas(d)
        assert (g == 0.0).any()
        tiny = ",".join(repr(x) if x > 0.0 else "1e-200" for x in g.tolist())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(capsys, *argv)
            ref_code, ref = run_cli(capsys, *argv[:2], "explicit:" + tiny, *argv[3:])
        assert code == ref_code == 0
        assert out.split("\n")[2:] == ref.split("\n")[2:]
        assert len(out.strip().split("\n")) > 3

    def test_eigs(self, capsys):
        code, out = run_cli(capsys, "eigs", "--shape", "iso:1.0", "--d", "2", "--n", "3")
        assert code == 0
        rows = [l.split(",") for l in out.strip().split("\n")[3:]]
        assert [r[2] for r in rows] == ["1;1", "2;1", "1;2"]

    def test_eigs_index_text_matches_the_dense_loop(self):
        # the loop that wrote the index column before, one string per coordinate
        def loop(idx, d):
            dense = ["1"] * d
            for pos, j in idx.entries:
                dense[pos - 1] = str(j)
            return ";".join(dense)

        rng = np.random.default_rng(60)
        for _ in range(500):
            d = int(rng.integers(1, 61))
            values = np.ones(d, dtype=int)
            raised = rng.choice(d, size=int(rng.integers(0, min(d, 6) + 1)), replace=False)
            values[raised] = rng.integers(2, 200, size=raised.size)
            idx = MultiIndex.from_dense(values.tolist())
            assert cli._dense_text(idx.entries, d) == loop(idx, d)

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


# signed zeros, NaN, infinities, subnormals and neighbours one ulp apart
_EDGE_FLOATS = [
    0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e-310,
    2.2250738585072014e-308, math.nextafter(2.2250738585072014e-308, 0.0),
    1.0, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0), 0.1, 1e-200,
]


class TestFloatCells:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats()),
                st.integers(1, 100),
            ),
            max_size=12,
        )
    )
    def test_cells_are_the_repr_of_each_entry(self, runs):
        a = np.array([x for x, k in runs for _ in range(k)], dtype=np.float64)
        assert cli._floats(a) == [repr(float(x)) for x in a]

    def test_signed_zeros_are_separate_runs(self):
        a = np.repeat([0.0, -0.0, 0.0, 5e-324], 40)
        assert cli._floats(a) == ["0.0"] * 40 + ["-0.0"] * 40 + ["0.0"] * 40 + ["5e-324"] * 40
        assert cli._floats(np.array([0.0, 0.0, -0.0])) == ["0.0", "0.0", "-0.0"]
        assert cli._floats(np.array([])) == []


def _config_line(**config):
    return "# config: " + json.dumps(config, sort_keys=True)


class TestStaircaseOutputs:
    """Outputs with long runs of equal values against per-row references:
    the isotropic staircases, the zeros of underflowed shapes and a mixed
    shape whose e(n) has no equal neighbours."""

    @pytest.mark.parametrize(
        "shape, d, N",
        [
            ("iso:1.0", 8, 2000),
            ("explicit:1e-200,1.0,0.5", 3, 200),
            ("explicit:1.1,0.9,0.7,0.5", 4, 300),
        ],
    )
    def test_decay(self, tmp_path, shape, d, N):
        out = tmp_path / "decay.csv"
        argv = ["decay", "--shape", shape, "--d", str(d), "--N", str(N), "--out", str(out)]
        assert main(argv) == 0
        e = _error_values(parse_shape(shape), d, N).tolist()
        lines = [
            f"# grkhs {grkhs.__version__}",
            _config_line(N=str(N), d=d, shape=shape),
            "n,e_all,e_all_over_init",
        ] + [f"{n},{x!r},{x / e[0]!r}" for n, x in enumerate(e)]
        assert out.read_text() == "\n".join(lines) + "\n"

    @pytest.mark.parametrize(
        "shape, d, n", [("iso:1.0", 4, 500), ("explicit:1e-200,1e-200,1e-200", 3, 40)]
    )
    def test_eigs(self, tmp_path, shape, d, n):
        out = tmp_path / "eigs.csv"
        argv = ["eigs", "--shape", shape, "--d", str(d), "--n", str(n), "--out", str(out)]
        assert main(argv) == 0
        top = top_n_tensor_eigenvalues(parse_shape(shape), d, n)
        rows = enumerate(zip(top.values.tolist(), top.indices), start=1)
        lines = [
            f"# grkhs {grkhs.__version__}",
            _config_line(d=str(d), n=str(n), shape=shape),
            "rank,value,index",
        ] + [f"{r},{v!r},{';'.join(map(str, idx.dense()))}" for r, (v, idx) in rows]
        assert out.read_text() == "\n".join(lines) + "\n"

    def test_decay_one_file_per_dimension(self, tmp_path):
        out = tmp_path / "multi"
        argv = ["decay", "--shape", "iso:1.0", "--d", "2,3", "--N", "300", "--out", str(out)]
        assert main(argv) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["multi_d2.csv", "multi_d3.csv"]
        for d in (2, 3):
            lines = (tmp_path / f"multi_d{d}.csv").read_text().splitlines()
            # the echo leaves out the destination
            assert lines[1] == _config_line(N="300", d=d, shape="iso:1.0")
            e = _error_values(ShapeSequence.isotropic(1.0), d, 300).tolist()
            assert lines[3:] == [f"{n},{x!r},{x / e[0]!r}" for n, x in enumerate(e)]


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

    def test_explicit_shape_too_short_for_a_complexity_d(self, capsys):
        argv = ["complexity", "--shape", "explicit:1.0,0.5,0.25", "--d", "2,5", "--eps", "0.1"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "explicit shape has 3 entries, asked for d=5" in captured.err

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

    @pytest.mark.parametrize("window", ["5", "5,50,100"])
    def test_rates_window_needs_two_bounds(self, capsys, window):
        argv = ["rates", "--shape", "powerlaw:1:2", "--d", "2", "--N", "300", "--window", window]
        assert main(argv) == 1
        got = [int(v) for v in window.split(",")]
        message = f"error: window must be two bounds (lo, hi), got {got}\n"
        assert capsys.readouterr() == ("", message)

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
