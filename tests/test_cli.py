import json

import pytest

from bglab.cli import _parse_sizes, main
from bglab.instances import parse_cnf, write_cnf
from bglab.library import chvatal_6_5, school_9_11


@pytest.fixture
def chvatal_path(tmp_path):
    path = tmp_path / "chvatal_6_5.cnfW"
    path.write_text(write_cnf(chvatal_6_5()))
    return str(path)


@pytest.fixture
def tiny_path(tmp_path):
    path = tmp_path / "tiny.cnfU"
    path.write_text("p cnf 1 1\n1 0\n")
    return str(path)


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_parse_sizes():
    assert _parse_sizes("1024,4096") == [1024, 4096]
    assert _parse_sizes("2^10..2^20") == [2 ** k for k in range(10, 21)]
    assert _parse_sizes("2^3") == [8]
    assert _parse_sizes("8..32") == [8, 16, 32]
    with pytest.raises(ValueError):
        _parse_sizes("0")
    with pytest.raises(ValueError):
        _parse_sizes("2^5..2^3")


def test_stats_table(capsys, chvatal_path):
    rc, out, _ = run(capsys, "stats", chvatal_path)
    assert rc == 0
    assert out == "6 5 0.3333 5\n"


def test_stats_tiny(capsys, tiny_path):
    rc, out, _ = run(capsys, "stats", tiny_path)
    assert rc == 0
    assert out == "1 1 1.0000 1\n"


def test_stats_csv_json(capsys, chvatal_path):
    rc, out, _ = run(capsys, "stats", chvatal_path, "--format", "csv")
    assert rc == 0
    assert out.splitlines()[0] == "instance,nCols,mRows,mDens,mCD"
    assert out.splitlines()[1] == "chvatal_6_5,6,5,0.3333,5"
    rc, out, _ = run(capsys, "stats", chvatal_path, "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload[0]["nCols"] == 6
    assert payload[0]["instance"] == "chvatal_6_5"


def test_stats_malformed_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.cnfU"
    bad.write_text("p cnf 1 1\n2 0\n")
    rc, out, err = run(capsys, "stats", str(bad))
    assert rc == 2
    assert "line 2" in err
    assert out == ""


@pytest.mark.parametrize("name,text", [
    ("inf.cnfW", "p cnf 2 1\nw 1 inf\n1 2 0\n"),
    ("nan.cnfW", "p cnf 2 1\nw 1 nan\n1 2 0\n"),
    ("inf.txt", "2 2\n3 inf\n1 1\n2 1 2\n"),
    ("nan.txt", "2 2\nnan 5\n1 1\n2 1 2\n"),
])
def test_stats_non_finite_weight_exits_2(capsys, tmp_path, name, text):
    bad = tmp_path / name
    bad.write_text(text)
    rc, out, err = run(capsys, "stats", str(bad))
    assert rc == 2
    assert "weight" in err
    assert out == ""


def test_stats_unit_flag_still_rejects_bad_costs(capsys, tmp_path):
    bad = tmp_path / "neg.txt"
    bad.write_text("2 2\n-3 inf\n1 1\n2 1 2\n")
    rc, out, err = run(capsys, "stats", str(bad), "--unit")
    assert rc == 2
    assert "column 1" in err
    assert out == ""


def test_stats_missing_file_exits_2(capsys):
    rc, _, err = run(capsys, "stats", "/no/such/file.cnfU")
    assert rc == 2
    assert err


def test_match_table(capsys, chvatal_path, tiny_path):
    rc, out, _ = run(capsys, "match", chvatal_path)
    assert rc == 0
    assert out == "5 0.83\n"
    rc, out, _ = run(capsys, "match", tiny_path)
    assert out == "1 1.00\n"


def test_match_binate_exits_2(capsys, tmp_path):
    path = tmp_path / "binate.cnfW"
    path.write_text("p cnf 9 2\n-2 5 0\n2 -5 0\n")
    rc, _, err = run(capsys, "match", str(path))
    assert rc == 2
    assert "unate required" in err


def test_cover_table(capsys, chvatal_path):
    rc, out, _ = run(capsys, "cover", chvatal_path)
    assert rc == 0
    assert out == "value 2.28 nOps 5 coord 111110\n"


def test_cover_solvers(capsys, chvatal_path):
    rc, out, _ = run(capsys, "cover", chvatal_path, "--solver", "stoc",
                     "--replica", "3", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["replicaId"] == 3
    assert payload["nOps"] == 5
    rc, out2, _ = run(capsys, "cover", chvatal_path, "--solver", "iso",
                      "--replica", "3", "--format", "json")
    assert json.loads(out2)["value"] == pytest.approx(payload["value"])


def test_dist_table(capsys, chvatal_path):
    rc, out, _ = run(capsys, "dist", chvatal_path, "--seeds", "200")
    assert rc == 0
    assert "values 2.28,2.28,2.28,0,2.28" in out
    assert "ratios 2.07,2.07,2.07,0.00,2.07 (bkv 1.1)" in out
    assert "2.2833 200 2.07" in out


def test_dist_without_bkv(capsys, tmp_path):
    path = tmp_path / "anon.cnfU"
    path.write_text("p cnf 2 1\n1 2 0\n")
    rc, out, _ = run(capsys, "dist", str(path), "--seeds", "10")
    assert rc == 0
    assert "ratios" not in out
    assert "values 1,1,1,0,1" in out


def test_dist_csv(capsys, chvatal_path):
    rc, out, _ = run(capsys, "dist", chvatal_path, "--seeds", "50",
                     "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "instance,numSeeds,value,count"
    assert lines[1].endswith(",50")
    assert lines[1].startswith("chvatal_6_5,50,2.283333333,")


def test_converge_table(capsys, chvatal_path):
    rc, out, _ = run(capsys, "converge", chvatal_path,
                     "--counts", "20,40")
    assert rc == 0
    assert "num_seeds 20" in out
    assert "num_seeds 40" in out


def test_ub_from_flags(capsys):
    rc, out, _ = run(capsys, "ub", "--bkv", "11.5", "--mcd", "6")
    assert rc == 0
    assert out.startswith("mCD 6 harmonic 2.45 UB 28.1")
    rc, out, _ = run(capsys, "ub", "--bkv", "18", "--mcd", "13")
    assert "UB 57.24" in out


def test_ub_from_instance(capsys, chvatal_path):
    rc, out, _ = run(capsys, "ub", chvatal_path)
    assert rc == 0
    assert "UB 2.51" in out


def test_ub_needs_input(capsys):
    rc, _, err = run(capsys, "ub")
    assert rc == 2
    assert "bkv" in err


def test_gen_random_roundtrip(capsys):
    rc, out, _ = run(capsys, "gen", "random", "30", "20", "2", "5",
                     "--seed", "7")
    assert rc == 0
    inst = parse_cnf(out, name="gen")
    assert inst.m_rows == 30
    assert inst.n_cols == 20
    rc, out2, _ = run(capsys, "gen", "random", "30", "20", "2", "5",
                      "--seed", "7")
    assert out2 == out  # byte-stable for a fixed seed


def test_gen_builtin(capsys):
    rc, out, _ = run(capsys, "gen", "builtin", "--name", "school_9_11")
    assert rc == 0
    assert parse_cnf(out, name="school_9_11__0") == school_9_11()
    rc, _, err = run(capsys, "gen", "builtin", "--name", "nope")
    assert rc == 2
    assert "unknown builtin" in err


def test_gen_random_missing_args(capsys):
    rc, _, err = run(capsys, "gen", "random", "30")
    assert rc == 2
    assert "DEGMIN" in err


def test_iso_roundtrip(capsys, chvatal_path, tmp_path):
    rc, out, _ = run(capsys, "iso", chvatal_path, "--replica", "2")
    assert rc == 0
    iso = parse_cnf(out, name="iso")
    assert iso.n_cols == 6
    assert sorted(iso.col_weights) == sorted(chvatal_6_5().col_weights)
    assert "c permutation" in out


def test_urn_csv(capsys):
    rc, out, _ = run(capsys, "urn", "--sizes", "2^6..2^8", "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "size,trials,unique_fraction"
    assert len(lines) == 4
    fracs = [float(line.split(",")[2]) for line in lines[1:]]
    assert all(0 < f <= 1 for f in fracs)


def test_urn_full_sweep_converges(capsys):
    rc, out, _ = run(capsys, "urn", "--sizes", "2^10..2^20",
                     "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 12  # header + 11 urns
    last = float(lines[-1].split(",")[2])
    assert abs(last - 0.6321) <= 0.005


def test_movielib_topk_hist(capsys, tmp_path):
    movies = str(tmp_path / "movies.csv")
    watches = str(tmp_path / "watches.csv")
    rc, _, err = run(capsys, "movielib", "--size", "300", "--seed", "4",
                     "--movies", movies, "--watches", watches)
    assert rc == 0
    assert "wrote 300 movies" in err

    rc, out, _ = run(capsys, "topk", "--movies", movies, "--watches", watches,
                     "--k", "5", "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "movieID,watchCount"
    assert len(lines) == 6

    rc, out2, _ = run(capsys, "topk", "--size", "300", "--seed", "4",
                      "--k", "5", "--format", "csv")
    assert out2 == out  # files and direct generation agree

    rc, out, _ = run(capsys, "hist", "--size", "300", "--seed", "4",
                     "--format", "csv")
    assert rc == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert sum(int(i) * int(c) for i, c in rows) == 300


def test_topk_needs_input(capsys):
    rc, _, err = run(capsys, "topk")
    assert rc == 2
    assert "--size" in err


def test_bench_csv(capsys):
    rc, out, err = run(capsys, "bench", "--task", "urn",
                       "--sizes", "2^5,2^6", "--reps", "2")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "size,runtime_read,runtime_solve,label"
    assert len(lines) == 3
    assert lines[1].startswith("32,")
    assert lines[2].startswith("64,")


def test_out_flag_writes_file(capsys, chvatal_path, tmp_path):
    out_path = tmp_path / "stats.txt"
    rc, out, _ = run(capsys, "stats", chvatal_path, "--out", str(out_path))
    assert rc == 0
    assert out == ""
    assert out_path.read_text() == "6 5 0.3333 5\n"
