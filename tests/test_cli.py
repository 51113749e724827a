"""CLI: subcommand behavior, exit codes, artifact determinism."""

import re

import numpy as np
import pytest

from fgsw.cli import main


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Prebuilt graph and overlay files shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    assert main(["gen-lattice", "--dim", "1", "--side", "64",
                 "--out", str(root / "ring64.txt")]) == 0
    assert main(["gen-lattice", "--dim", "2", "--side", "8",
                 "--out", str(root / "torus8.txt")]) == 0
    assert main(["augment", "--graph", str(root / "torus8.txt"),
                 "--k", "3", "--q", "2", "--s", "2", "--seed", "5",
                 "--out", str(root / "torus8.ov")]) == 0
    assert main(["augment", "--graph", str(root / "ring64.txt"),
                 "--k", "1", "--q", "3", "--s", "1", "--seed", "3",
                 "--out", str(root / "ring64.ov")]) == 0
    return root


# -- generation -----------------------------------------------------------------


def test_gen_lattice_header(tmp_path, capsys):
    out = tmp_path / "g.txt"
    assert main(["gen-lattice", "--dim", "2", "--side", "4", "--wrap",
                 "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "16 32"
    assert "n=16 m=32" in capsys.readouterr().out


def test_gen_lattice_no_wrap(tmp_path):
    out = tmp_path / "g.txt"
    assert main(["gen-lattice", "--dim", "2", "--side", "4", "--no-wrap",
                 "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "16 24"


def test_gen_sierpinski(tmp_path):
    out = tmp_path / "g.txt"
    assert main(["gen-sierpinski", "--level", "3", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "15 27"


def test_import_dimacs(tmp_path):
    src = tmp_path / "d.gr"
    src.write_text("p sp 4 3\na 1 2 9\na 2 3 9\na 3 4 9\n")
    g_out, m_out = tmp_path / "g.txt", tmp_path / "map.csv"
    assert main(["import-dimacs", "--input", str(src), "--out", str(g_out),
                 "--map-out", str(m_out)]) == 0
    assert g_out.read_text().splitlines()[0] == "4 3"
    assert m_out.read_text().startswith("new_id,original_id\n0,1\n")


# -- augmentation ------------------------------------------------------------------


def test_augment_twice_identical(workdir, tmp_path):
    a, b = tmp_path / "a.ov", tmp_path / "b.ov"
    argv = ["augment", "--graph", str(workdir / "torus8.txt"),
            "--k", "1", "--q", "1", "--s", "2", "--seed", "7"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_augment_k_auto(workdir, tmp_path, capsys):
    out = tmp_path / "auto.ov"
    assert main(["augment", "--graph", str(workdir / "torus8.txt"),
                 "--k", "auto", "--q", "2", "--s", "2", "--seed", "5",
                 "--out", str(out)]) == 0
    # ceil(ln 64) = 5
    assert out.read_text().split()[0] == "5"
    assert "k=5.0" in capsys.readouterr().out


# -- routing -----------------------------------------------------------------------


def test_route_single_pair(workdir, tmp_path, capsys):
    out = tmp_path / "trace.csv"
    assert main(["route", "--graph", str(workdir / "torus8.txt"),
                 "--overlay", str(workdir / "torus8.ov"),
                 "--source", "0", "--target", "36",
                 "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "highway-sticky 0->36" in text
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("0,0,36,highway-sticky,")


def test_route_batch_threads_byte_identical(workdir, tmp_path):
    base = ["route-batch", "--graph", str(workdir / "torus8.txt"),
            "--overlay", str(workdir / "torus8.ov"),
            "--pairs", "50", "--seed", "3"]
    t1, t8 = tmp_path / "t1.csv", tmp_path / "t8.csv"
    assert main(base + ["--threads", "1", "--out", str(t1)]) == 0
    assert main(base + ["--threads", "8", "--out", str(t8)]) == 0
    assert t1.read_bytes() == t8.read_bytes()


def test_route_batch_rejects_threads_below_one(workdir, tmp_path):
    assert main(["route-batch", "--graph", str(workdir / "torus8.txt"),
                 "--overlay", str(workdir / "torus8.ov"), "--pairs", "5",
                 "--seed", "4", "--threads", "0",
                 "--out", str(tmp_path / "hops.csv")]) == 2


# -- statistics --------------------------------------------------------------------


@pytest.mark.parametrize("argv_tail", [
    ["balls", "--alpha", "1", "--c", "1"],
    ["shells", "--width", "2", "--b-max", "6"],
    ["z"],
    ["highway-dist", "--alpha", "1"],
    ["improve", "--alpha", "1", "--c-list", "1.5,2", "--samples", "30"],
    ["fresh", "--alpha", "2", "--radius", "4", "--samples", "30"],
])
def test_stats_kinds_write_reports(workdir, tmp_path, argv_tail):
    out = tmp_path / "report.csv"
    assert main(["stats", argv_tail[0],
                 "--graph", str(workdir / "ring64.txt"),
                 "--overlay", str(workdir / "ring64.ov"),
                 "--seed", "2", "--out", str(out)] + argv_tail[1:]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# experiment=")
    assert "# version=" in lines[1]
    data = [ln for ln in lines if not ln.startswith("#")]
    assert len(data) >= 2  # header row plus at least one data row


def test_stats_rerun_identical(workdir, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["stats", "z", "--graph", str(workdir / "torus8.txt"),
            "--overlay", str(workdir / "torus8.ov"), "--seed", "2"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# -- diameter / alpha / sweeps --------------------------------------------------------


def test_diameter_underlying(workdir, tmp_path, capsys):
    g = tmp_path / "ring9.txt"
    assert main(["gen-lattice", "--dim", "1", "--side", "9",
                 "--out", str(g)]) == 0
    out = tmp_path / "d.csv"
    assert main(["diameter", "--graph", str(g), "--out", str(out)]) == 0
    assert "underlying diameter (exact, 9 sources): 4" \
        in capsys.readouterr().out
    data = [ln for ln in out.read_text().splitlines()
            if not ln.startswith("#")]
    assert data[1].startswith("4,exact,9,")


def test_diameter_augmented_sampled(workdir, capsys):
    assert main(["diameter", "--graph", str(workdir / "torus8.txt"),
                 "--overlay", str(workdir / "torus8.ov"),
                 "--mode", "sampled", "--samples", "8"]) == 0
    assert "augmented diameter (sampled_lower_bound, 8 sources)" \
        in capsys.readouterr().out


def test_estimate_alpha_cli(workdir, tmp_path, capsys):
    out = tmp_path / "alpha.csv"
    assert main(["estimate-alpha", "--graph", str(workdir / "ring64.txt"),
                 "--samples", "10", "--seed", "11", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "alpha median 1.00" in text and "0 skipped" in text
    lines = out.read_text().splitlines()
    assert "node,best_alpha,ratio,l_max,seed,samples" in lines
    assert any(ln.startswith("# alpha_median=") for ln in lines)


def test_sweep_s_cli(workdir, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep-s", "--graph", str(workdir / "torus8.txt"),
                 "--k", "2", "--q", "2", "--s-list", "1.5,2.0",
                 "--pairs", "10", "--seed", "3", "--out", str(out)]) == 0
    assert "s=1.5: mean hops" in capsys.readouterr().out
    assert any(ln.startswith("# argmin_s=")
               for ln in out.read_text().splitlines())


def test_scaling_cli(tmp_path):
    out1, out8 = tmp_path / "s1.csv", tmp_path / "s8.csv"
    base = ["scaling", "--dim", "2", "--sides", "8,12", "--k", "auto",
            "--q", "2", "--s", "2", "--pairs", "10", "--seed", "7"]
    assert main(base + ["--threads", "1", "--out", str(out1)]) == 0
    assert main(base + ["--threads", "8", "--out", str(out8)]) == 0
    assert out1.read_bytes() == out8.read_bytes()
    data = [ln for ln in out1.read_text().splitlines()
            if not ln.startswith("#")]
    assert data[0].startswith("side,n,k,ln_n,mean_hops")
    assert len(data) == 3
    assert data[1].split(",")[:3] == ["8", "64", "5.0"]
    assert data[2].split(",")[:3] == ["12", "144", "5.0"]


# -- exit codes and usage ----------------------------------------------------------------


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    assert capsys.readouterr().out.strip() == "0.1.0"


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["teleport"])
    assert err.value.code == 1
    assert "error" in capsys.readouterr().err


def test_missing_required_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["gen-lattice", "--dim", "2", "--out", "x.txt"])
    assert err.value.code == 1


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["gen-lattice", "--dim", "2", "--side", "4",
              "--out", "x.txt", "--frobnicate"])
    assert err.value.code == 1


def test_data_errors_exit_2(workdir, tmp_path, capsys):
    # missing input file
    assert main(["augment", "--graph", str(tmp_path / "absent.txt"),
                 "--k", "2", "--q", "1", "--s", "2", "--seed", "1",
                 "--out", str(tmp_path / "o.ov")]) == 2
    # non-finite overlay parameter
    assert main(["augment", "--graph", str(workdir / "torus8.txt"),
                 "--k", "2", "--q", "inf", "--s", "2", "--seed", "1",
                 "--out", str(tmp_path / "o.ov")]) == 2
    # invalid generator arguments
    assert main(["gen-lattice", "--dim", "5", "--side", "4",
                 "--out", str(tmp_path / "g.txt")]) == 2
    # routing endpoint out of range
    assert main(["route", "--graph", str(workdir / "torus8.txt"),
                 "--overlay", str(workdir / "torus8.ov"),
                 "--source", "0", "--target", "64"]) == 2
    err = capsys.readouterr().err
    assert "fgsw:" in err


@pytest.mark.parametrize("command", ["route-batch", "scaling"])
def test_pairs_below_one_exit_2(workdir, tmp_path, capsys, command):
    argv = (["route-batch", "--graph", str(workdir / "torus8.txt"),
             "--overlay", str(workdir / "torus8.ov")]
            if command == "route-batch" else ["scaling", "--sides", "8"])
    assert main(argv + ["--pairs", "0", "--seed", "1",
                        "--out", str(tmp_path / "out.csv")]) == 2
    assert "need at least one pair" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["stats", "shells", "--width", "2", "--b-max", "6"],
    ["stats", "balls", "--alpha", "1", "--c", "1"],
    ["stats", "fresh", "--alpha", "2", "--radius", "4"],
    ["stats", "improve", "--alpha", "1", "--c-list", "1.5,2"],
    ["diameter", "--mode", "sampled"],
])
def test_samples_below_one_exit_2(workdir, tmp_path, capsys, argv):
    assert main(argv + ["--graph", str(workdir / "ring64.txt"),
                        "--overlay", str(workdir / "ring64.ov"),
                        "--samples", "0", "--seed", "2",
                        "--out", str(tmp_path / "out.csv")]) == 2
    assert "need at least one sample" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("text, what", [
    ("p sp x 1\n", r":1: non-integer node count"),
    ("p sp 99999999999999999999999 1\n", r":1: non-integer node count"),
    ("p sp 3 1\na 1 99999999999999999999999 1\n",
     r":2: non-integer arc endpoint or one outside int64"),
])
def test_dimacs_bad_numbers_exit_2(tmp_path, capsys, text, what):
    src = tmp_path / "bad.gr"
    src.write_text(text)
    assert main(["import-dimacs", "--input", str(src),
                 "--out", str(tmp_path / "g.txt"),
                 "--map-out", str(tmp_path / "map.csv")]) == 2
    assert re.search(re.escape(str(src)) + what, capsys.readouterr().err)


@pytest.mark.parametrize("text, what", [
    ("3 2\n0 1\n1 x\n", "non-integer or malformed line"),
    ("3 2\n0 1\n1 2 0\n", "non-integer or malformed line"),
    ("3 3\n0 1\n\n1 2\n", "blank edge line"),
])
def test_bad_graph_file_exit_2(tmp_path, capsys, text, what):
    src = tmp_path / "bad.txt"
    src.write_text(text)
    assert main(["estimate-alpha", "--graph", str(src), "--seed", "1",
                 "--out", str(tmp_path / "out.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"fgsw: {src}: {what}")
    assert "Traceback" not in err


@pytest.mark.parametrize("value", [",", "2,x"])
@pytest.mark.parametrize("command, flag", [
    ("sweep-s", "--s-list"), ("scaling", "--sides"), ("stats", "--c-list")])
def test_bad_number_lists_exit_2(workdir, tmp_path, capsys, command, flag,
                                 value):
    graph = ["--graph", str(workdir / "torus8.txt")]
    argv = {"sweep-s": ["sweep-s", *graph, "--k", "2", "--q", "2",
                        "--pairs", "5"],
            "scaling": ["scaling", "--pairs", "5"],
            "stats": ["stats", "improve", *graph,
                      "--overlay", str(workdir / "torus8.ov")]}[command]
    out = tmp_path / "out.csv"
    assert main(argv + [flag, value, "--seed", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"fgsw: {flag} needs comma-separated")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["augment", "stats"])
def test_huge_round_qk_exit_2(workdir, tmp_path, capsys, command):
    graph = ["--graph", str(workdir / "torus8.txt")]
    if command == "augment":
        argv = ["augment", *graph, "--k", "1", "--q", "1e12", "--s", "2"]
    else:
        huge = tmp_path / "huge.ov"
        huge.write_text("1e12 1 1 0 0 64\nh 0 z=0.5 : 2\nh 2 z=0.5 : 0\n")
        argv = ["stats", "fresh", *graph, "--overlay", str(huge)]
    out = tmp_path / "out"
    assert main(argv + ["--seed", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "round(q*k) = 1000000000000 is above the limit" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["stats", "balls", "--alpha", "0"], "alpha must be > 0 and finite"),
    (["stats", "highway-dist", "--alpha", "0"], "alpha must be > 0"),
    (["stats", "improve", "--alpha", "0"], "alpha must be > 0"),
    (["stats", "fresh", "--alpha", "0"], "alpha must be > 0"),
    (["stats", "balls", "--alpha", "-1"], "alpha must be > 0"),
    (["stats", "highway-dist", "--alpha", "-1"], "alpha must be > 0"),
    (["stats", "improve", "--alpha", "-2"], "alpha must be > 0"),
    (["stats", "balls", "--alpha", "nan"], "alpha must be > 0"),
    (["stats", "balls", "--alpha", "1e-5"], "alpha = 1e-05 overflows"),
    (["stats", "fresh", "--alpha", "1e-5"], "alpha = 1e-05 overflows"),
    (["stats", "balls", "--c", "inf"], "c must be > 0 and finite, got inf"),
    (["stats", "improve", "--c-list", "nan"],
     "improvement factor c must be > 1 and finite, got nan"),
    (["stats", "fresh", "--radius", "-3"], "radius must be >= 0, got -3"),
    (["estimate-alpha", "--grid", "1:2"], "--grid must be lo:hi:step"),
    (["stats", "balls", "--alpha", "1000"], "alpha = 1000.0 overflows"),
    (["stats", "improve", "--alpha", "1000"], "alpha = 1000.0 overflows"),
    (["estimate-alpha", "--grid", "0.5:1e9:1e-9"],
     "alpha grid 0.5:1000000000.0:1e-09 has 1e+18 points, more than 10000"),
    (["estimate-alpha", "--grid", "0.5:inf:0.01"],
     "alpha grid 0.5:inf:0.01 has inf points"),
])
def test_degenerate_stat_parameters_exit_2(workdir, tmp_path, capsys, argv,
                                           message):
    files = ["--graph", str(workdir / "torus8.txt")]
    if argv[0] == "stats":
        files += ["--overlay", str(workdir / "torus8.ov")]
    out = tmp_path / "out.csv"
    assert main(argv + files + ["--seed", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"fgsw: {message}")
    assert "Traceback" not in err
    assert not out.exists()
