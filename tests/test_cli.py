import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

import bglab.cli as cli
import bglab.experiments as experiments
from bglab.cli import FORMATS, _load_instance, _parse_sizes, main
from bglab.cover import harmonic
from bglab.generators import gen_random_instance
from bglab.instances import UNIT, parse_cnf, write_cnf
from bglab.library import chvatal_6_5, school_9_11, two_optima


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


def test_unit_flag_rewraps_clause_file(chvatal_path):
    inst = _load_instance(chvatal_path, unit_weights=True)
    assert inst == replace(chvatal_6_5(), col_weights=(1.0,) * 6,
                           weight_kind=UNIT)
    assert replace(inst) == inst


def test_stats_unit_flag_still_rejects_bad_costs(capsys, tmp_path):
    bad = tmp_path / "neg.txt"
    bad.write_text("2 2\n-3 inf\n1 1\n2 1 2\n")
    rc, out, err = run(capsys, "stats", str(bad), "--unit")
    assert rc == 2
    assert "column 1" in err
    assert out == ""


@pytest.mark.parametrize("name,text", [
    ("wide.cnfU", "p cnf 10000000000 1\n1 0\n"),
    ("wide.txt", "1 10000000000\n1\n1 1\n"),
])
def test_stats_too_many_columns_exits_2(capsys, tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    rc, out, err = run(capsys, "stats", str(path))
    assert rc == 2 and out == ""
    assert "exceed the limit of 2147483647" in err


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


@pytest.fixture
def school_path(tmp_path, capsys):
    path = tmp_path / "school_9_11.cnfU"
    assert run(capsys, "gen", "builtin", "--name", "school_9_11", "--out",
               str(path))[0] == 0
    return str(path)


@pytest.mark.parametrize("text", [
    "[1, 2]", '"abc"', '{"x.cnfU": {"note": "n"}}',
    '{"x.cnfU": {"value": "4"}}', '{"x.cnfU": null}', '{"x.cnfU": [3]}',
    '{"x.cnfU": true}', '{"x.cnfU": 1' + "0" * 400 + "}",
    '{"x.cnfU": NaN}',
], ids=["list", "string", "no-value", "string-value", "null", "array",
        "bool", "huge-int", "nan"])
def test_dist_rejects_bad_registry_file(capsys, monkeypatch, tmp_path,
                                        school_path, text):
    path = tmp_path / "bkv.json"
    path.write_text(text)
    monkeypatch.setattr(experiments, "_default_registry", None)
    monkeypatch.setenv(experiments.BKV_REGISTRY_ENV, str(path))
    rc, out, err = run(capsys, "dist", school_path, "--seeds", "5")
    assert rc == 2 and out == ""
    fragment = ("entry 'x.cnfU' is not a finite number" if text[0] == "{"
                else "expected an object of bkv entries")
    assert f"{path}: {fragment}" in err


@pytest.mark.parametrize("text,fragment", [
    ("{", "line 1 column 2 (char 1)"),
    ('{"x.cnfU": 0}', "x.cnfU: bkv must be positive and finite, got 0.0"),
], ids=["syntax", "zero"])
def test_dist_names_bad_registry_file(capsys, monkeypatch, tmp_path,
                                      school_path, text, fragment):
    path = tmp_path / "bkv.json"
    path.write_text(text)
    monkeypatch.setattr(experiments, "_default_registry", None)
    monkeypatch.setenv(experiments.BKV_REGISTRY_ENV, str(path))
    rc, out, err = run(capsys, "dist", school_path, "--seeds", "5")
    assert rc == 2 and out == ""
    assert err.startswith(f"bglab dist: {path}: ")
    assert err.endswith(f"{fragment}\n")


BIG = {v: f"{v / 1e-307:.2f}" for v in (1, 4, 5, 6)}


@pytest.mark.parametrize("bkv,line", [
    ("1e-307", f"ratios {BIG[4]},{BIG[5]},{BIG[5]},{BIG[1]},{BIG[6]} "
               "(bkv 1e-307)"),
    ("0.00004", "ratios 100000.00,125000.00,125000.00,25000.00,150000.00 "
                "(bkv 4e-05)"),
])
def test_dist_prints_tiny_bkv_in_full(capsys, school_path, bkv, line):
    # rounded to four decimals, both would print as "bkv 0"
    rc, out, _ = run(capsys, "dist", school_path, "--seeds", "5", "--bkv",
                     bkv)
    assert rc == 0
    assert out.splitlines()[2] == line


def test_ub_csv_prints_tiny_bkv_in_full(capsys, school_path):
    rc, out, _ = run(capsys, "ub", school_path, "--bkv", "0.00004",
                     "--format", "csv")
    assert rc == 0
    assert out.splitlines()[1].split(",") == ["4e-05", "3", "1.833",
                                              repr(4e-05 * harmonic(3))]
    rc, out, _ = run(capsys, "ub", school_path, "--bkv", "0.00004")
    assert rc == 0
    assert out == f"mCD 3 harmonic 1.833 UB {4e-05 * harmonic(3)!r}\n"


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


def test_converge_tie_tol_matches_dist(capsys, tmp_path):
    # column 2's rate ties column 1's only within a 1e-9 tolerance
    path = tmp_path / "near.cnfW"
    path.write_text("p cnf 2 2\nw 1 1\nw 2 1.0000000008\n1 2 0\n1 2 0\n")
    histograms = {}
    for tol in ("0", "1e-9"):
        rc, out, _ = run(capsys, "converge", str(path), "--counts", "50,300",
                         "--tie-tol", tol, "--format", "json")
        assert rc == 0
        last = json.loads(out)[-1]
        assert last["numSeeds"] == 300
        rc, out, _ = run(capsys, "dist", str(path), "--seeds", "300",
                         "--tie-tol", tol, "--format", "json")
        assert rc == 0
        assert last["histogram"] == json.loads(out)["histogram"]
        histograms[tol] = last["histogram"]
    assert histograms["0"] == {"1": 300}
    assert set(histograms["1e-9"]) == {"1", "1.000000001"}


@pytest.fixture
def wide_orlib_path(tmp_path):
    """An OR-library file wider than the bitmask engine's 128-column cut,
    so its covers run on the vectorized path; some columns cover no row."""
    inst = gen_random_instance(20, 140, 2, 5, seed=3)
    lines = [f"{inst.m_rows} {inst.n_cols}", " ".join(["1"] * inst.n_cols)]
    lines += [f"{len(row)} " + " ".join(map(str, row)) for row in inst.rows]
    path = tmp_path / "wide.txt"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize("argv", [
    ("cover", "--solver", "basic"),
    ("cover", "--solver", "stoc", "--replica", "3"),
    ("cover", "--solver", "iso", "--replica", "3"),
    ("dist", "--seeds", "5"),
    ("converge", "--counts", "5"),
])
@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
@pytest.mark.parametrize("wide", [False, True], ids=["bitmask", "vectorized"])
def test_tie_tol_rejected_at_boundary(capsys, tmp_path, wide_orlib_path,
                                      argv, tol, wide):
    if wide:
        path = wide_orlib_path
    else:
        path = str(tmp_path / "school_9_11.cnfU")
        with open(path, "w") as fh:
            fh.write(write_cnf(school_9_11()))
    rc, out, err = run(capsys, argv[0], path, *argv[1:], "--tie-tol", tol)
    assert rc == 2
    assert out == ""
    assert err == (f"bglab {argv[0]}: tie_tol must be a finite number >= 0, "
                   f"got {float(tol)}\n")


@pytest.mark.parametrize("command", ["dist", "converge"])
@pytest.mark.parametrize("fmt", ["table", "csv"])
@pytest.mark.parametrize("bkv", ["0", "-2", "nan", "inf"])
def test_dist_converge_reject_nonpositive_bkv(capsys, monkeypatch,
                                              chvatal_path, command, fmt,
                                              bkv):
    import bglab.cover as cover_mod

    def no_engine(instance):
        raise AssertionError("a replica ran before the bkv check")

    monkeypatch.setattr(cover_mod, "_Engine", no_engine)
    rc, out, err = run(capsys, command, chvatal_path, "--bkv", bkv,
                       "--format", fmt)
    assert rc == 2
    assert out == ""
    assert "bkv must be positive" in err


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


OVERFLOW_CNF = "p cnf 2 2\nw 1 1e308\nw 2 1.5e308\n1 0\n2 0\n"


@pytest.mark.parametrize("argv,message", [
    (("ub", "--bkv", "inf", "--mcd", "3"),
     "bglab ub: bkv must be positive and finite, got inf\n"),
    (("ub", "--bkv", "1e308", "--mcd", "5"),
     "bglab ub: the bound H_5 * bkv must be positive and finite, "
     "got inf\n"),
    (("cover", "{path}"),
     "bglab cover: the cover value overflows a float\n"),
    (("dist", "{path}", "--seeds", "3"),
     "bglab dist: huge: the cover value overflows a float\n"),
    (("dist", "{path}", "--unit", "--seeds", "3", "--bkv", "1e-320",
      "--format", "json"),
     "bglab dist: the ratio of 2.0 to bkv 1e-320 overflows a float\n"),
    (("converge", "{path}", "--unit", "--counts", "3", "--bkv", "1e-320"),
     "bglab converge: the ratio of 2.0 to bkv 1e-320 overflows a float\n"),
], ids=["ub-inf-bkv", "ub-inf-bound", "cover", "dist", "dist-tiny-bkv",
        "converge-tiny-bkv"])
def test_infinite_bkv_or_value_exits_2(capsys, tmp_path, argv, message):
    path = tmp_path / "huge.cnfW"
    path.write_text(OVERFLOW_CNF)
    rc, out, err = run(capsys, *(a.format(path=path) for a in argv))
    assert (rc, out, err) == (2, "", message)


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
    rc, out, err = run(capsys, "gen", "builtin")
    assert (rc, out) == (2, "")
    assert err == "bglab gen: gen builtin needs --name\n"


def test_gen_random_too_many_columns_exits_2(capsys):
    # refused before the instance's weights are sized by the count
    rc, out, err = run(capsys, "gen", "random", "1", "2147483648", "1", "1")
    assert rc == 2 and out == ""
    assert "exceed the limit of 2147483647" in err


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


def test_urn_rejects_zero_trials(capsys):
    for trials in ("0", "-1"):
        rc, out, err = run(capsys, "urn", "--sizes", "64", "--trials",
                           trials)
        assert rc == 2
        assert out == ""
        assert "num_trials must be positive" in err
    rc, out, _ = run(capsys, "urn", "--sizes", "64", "--trials", "5",
                     "--format", "csv")
    assert rc == 0
    assert out.splitlines()[1].startswith("64,5,")


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


@pytest.mark.parametrize("command", ["topk", "hist"])
@pytest.mark.parametrize("fields", [3, 5])
def test_ragged_watch_row_exits_2(capsys, tmp_path, command, fields):
    movies = str(tmp_path / "movies.csv")
    watches = tmp_path / "watches.csv"
    rc, _, _ = run(capsys, "movielib", "--size", "5", "--seed", "1",
                   "--movies", movies, "--watches", str(watches))
    assert rc == 0
    lines = watches.read_text().splitlines()
    row = lines[3].split(",")
    lines[3] = ",".join(row[:3] if fields == 3 else row + ["7"])
    watches.write_text("\n".join(lines) + "\n")
    rc, out, err = run(capsys, command, "--movies", movies,
                       "--watches", str(watches))
    assert rc == 2
    assert out == ""
    assert f"watches.csv: line 4 has {fields} fields" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["topk", "hist"])
def test_oversized_watch_field_exits_2(capsys, tmp_path, command):
    movies = str(tmp_path / "movies.csv")
    watches = tmp_path / "watches.csv"
    rc, _, _ = run(capsys, "movielib", "--size", "5", "--seed", "1",
                   "--movies", movies, "--watches", str(watches))
    assert rc == 0
    lines = watches.read_text().splitlines()
    # past the csv module's default field limit of 131,072 characters
    lines[3] = "w3," + "x" * 200_000 + ",2020-01-01,5"
    watches.write_text("\n".join(lines) + "\n")
    rc, out, err = run(capsys, command, "--movies", movies,
                       "--watches", str(watches))
    assert rc == 2
    assert out == ""
    assert "watches.csv: line 4: field larger than field limit" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["topk", "hist"])
def test_movie_file_not_utf8_exits_2(capsys, tmp_path, command):
    movies = tmp_path / "movies.csv"
    watches = str(tmp_path / "watches.csv")
    rc, _, _ = run(capsys, "movielib", "--size", "40", "--seed", "1",
                   "--movies", str(movies), "--watches", watches)
    assert rc == 0
    data = movies.read_bytes()
    cut = data.index(b"\n", len(data) // 2) + 1
    movies.write_bytes(data[:cut] + b"\xff" + data[cut:])
    rc, out, err = run(capsys, command, "--movies", str(movies),
                       "--watches", watches)
    assert rc == 2
    assert out == ""
    assert f"{movies}: 'utf-8' codec can't decode byte 0xff" in err
    assert "Traceback" not in err


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


def test_bench_topk_removes_its_tables(capsys, monkeypatch, tmp_path):
    import tempfile

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    rc, out, err = run(capsys, "bench", "--task", "topk",
                       "--sizes", "2^5,2^6", "--reps", "1")
    assert (rc, err) == (0, "")
    assert [line.split(",")[-1] for line in out.splitlines()[1:]] == \
        ["topk_hash"] * 2
    assert list(tmp_path.iterdir()) == []


def test_out_flag_writes_file(capsys, chvatal_path, tmp_path):
    out_path = tmp_path / "stats.txt"
    rc, out, _ = run(capsys, "stats", chvatal_path, "--out", str(out_path))
    assert rc == 0
    assert out == ""
    assert out_path.read_text() == "6 5 0.3333 5\n"



# one command line per record-writing command; `{chvatal}` is a clause file
OUT_COMMANDS = {
    "stats": "stats {chvatal}",
    "match": "match {chvatal}",
    "cover": "cover {chvatal} --solver stoc --replica 3",
    "ub": "ub {chvatal}",
    "dist": "dist {chvatal} --seeds 50",
    "converge": "converge {chvatal} --counts 5,50",
    "urn": "urn --sizes 2^4..2^6 --seed 2",
    "topk": "topk --size 200 --seed 4 --k 5",
    "hist": "hist --size 200 --seed 4",
}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("command", list(OUT_COMMANDS))
def test_out_flag_writes_what_stdout_gets(capsys, chvatal_path, tmp_path,
                                          command, fmt):
    argv = [a.format(chvatal=chvatal_path)
            for a in OUT_COMMANDS[command].split()] + ["--format", fmt]
    rc, stdout, _ = run(capsys, *argv)
    out_path = tmp_path / f"{command}.{fmt}"
    rc_file, out, _ = run(capsys, *argv, "--out", str(out_path))
    assert (rc, rc_file, out) == (0, 0, "")
    assert stdout.endswith("\n")
    assert out_path.read_text() == stdout


def test_bench_json_and_table(capsys):
    argv = ("bench", "--task", "urn", "--sizes", "2^5,2^6")
    rc, out, err = run(capsys, *argv, "--format", "json")
    assert (rc, err) == (0, "")
    records = json.loads(out)
    assert [list(r) for r in records] == \
        [["size", "runtime_read", "runtime_solve", "label"]] * 2
    assert [(r["size"], r["label"]) for r in records] == \
        [(32, "urn"), (64, "urn")]
    rc, out, err = run(capsys, *argv, "--format", "table")
    assert (rc, err) == (0, "")
    lines = [line.split(" ") for line in out.splitlines()]
    assert [(f[0], f[3]) for f in lines] == [("32", "urn"), ("64", "urn")]
    for fields in lines:
        assert len(fields) == 4
        assert all(len(t.split(".")[1]) == 6 for t in fields[1:3])


@pytest.mark.parametrize("argv,option", [
    (("movielib", "--size", "8", "--format", "json"), "--format"),
    (("movielib", "--size", "8", "--out", "x.json"), "--out"),
    (("ub", "{chvatal}", "--mcd", "3"), "--mcd"),
    (("gen", "random", "6", "8", "1", "3", "--format", "json"), "--format"),
    (("iso", "{chvatal}", "--format", "json"), "--format"),
    (("topk", "--size", "50", "--movies", "/nonexistent.csv"), "--movies"),
    (("hist", "--size", "50", "--watches", "w.csv"), "--watches"),
    (("topk", "--size", "50", "--movies", "m.csv", "--watches", "w.csv"),
     "--size"),
    (("topk", "--movies", "m.csv", "--watches", "w.csv", "--seed", "3"),
     "--seed"),
    (("hist", "--movies", "m.csv", "--watches", "w.csv", "--seed", "0"),
     "--seed"),
], ids=["movielib-format", "movielib-out", "ub-path-mcd", "gen-format",
        "iso-format", "topk-lone-movies", "hist-lone-watches",
        "topk-files-size", "topk-files-seed", "hist-files-seed"])
def test_ignored_option_exits_2(tmp_path, chvatal_path, argv, option):
    import bglab

    workdir = tmp_path / "work"
    workdir.mkdir()
    src = os.path.dirname(os.path.dirname(bglab.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "bglab.cli",
         *(a.format(chvatal=chvatal_path) for a in argv)],
        cwd=workdir, env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert option in proc.stderr
    assert "Traceback" not in proc.stderr
    assert list(workdir.iterdir()) == []


def test_main_builds_its_parser_once(capsys, monkeypatch, tiny_path):
    built = []
    real_build_parser, real_stats = cli.build_parser, cli.cmd_stats

    def counting_build_parser():
        built.append(1)
        return real_build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    try:
        # the command function the module holds at the call runs, whether
        # it was replaced before the parser was built (as a tracing
        # wrapper may be) or put back after
        monkeypatch.setattr(cli, "cmd_stats", lambda args: 7)
        assert main(["stats", tiny_path]) == 7
        monkeypatch.setattr(cli, "cmd_stats", real_stats)
        first = run(capsys, "stats", tiny_path, "--format", "json")
        assert first[0] == 0 and '"mRows": 1' in first[1]
        assert run(capsys, "stats", tiny_path, "--format", "json") == first
        assert len(built) == 1
    finally:
        cli._parser.cache_clear()
    assert real_build_parser() is not real_build_parser()


# Golden outputs: (exit code, sha256 of stdout) of each command that
# `_golden_commands` lists, so any change to a byte of CLI output shows up.
# `{name}` stands for the path of a clause file that `golden_dir` writes.
GOLDEN = {
    "stats {chvatal} --format table": (
        0, "a717e7dd8912dc16530737b65b74c038e3f30000d8364d11ea4e01fdd11164d7"),
    "match {chvatal} --format table": (
        0, "2a9680a37808aaabb517f7d74933bcfc9d7cb6f341435cd96ff94b1486fbe215"),
    "cover {chvatal} --format table": (
        0, "5be7bc5f221c63086398555e87fc00892a18ce80428ee34f9b34279fd1f6662c"),
    "cover {chvatal} --solver stoc --replica 3 --format table": (
        0, "5be7bc5f221c63086398555e87fc00892a18ce80428ee34f9b34279fd1f6662c"),
    "cover {chvatal} --solver iso --replica 3 --format table": (
        0, "5be7bc5f221c63086398555e87fc00892a18ce80428ee34f9b34279fd1f6662c"),
    "ub {chvatal} --format table": (
        0, "3f15bd61959c3592ae91cb919d926210765123b018ec536eb53622bbca7b9fa0"),
    "ub {chvatal} --bkv 2 --format table": (
        0, "7c93c78ca114b22018dfa4559e8ae5d3a4f3e6c3411d7373182705f4a75853c4"),
    "iso {chvatal} --replica 3": (
        0, "69ea4c2fcfcbfb51c470984e2aad9a9593ff74ad25f375c92bbb6989e04fc097"),
    ("dist {chvatal} --seeds 600 --solver stoc --seed-mode consecutive"
     " --format table"): (
        0, "352755bd6d8ef0777396bcb2e3b3df3c871d112ab53c4bff6b93dff29eb19f10"),
    ("converge {chvatal} --counts 7,600 --solver stoc --seed-mode consecutive"
     " --format table"): (
        0, "07b9b355a055c5cac5a95dd0a0cfd881d46e584ea5ec76a0dec245b94fa21288"),
    ("dist {chvatal} --seeds 600 --solver stoc --seed-mode random --format"
     " table"): (
        0, "352755bd6d8ef0777396bcb2e3b3df3c871d112ab53c4bff6b93dff29eb19f10"),
    ("converge {chvatal} --counts 7,600 --solver stoc --seed-mode random"
     " --format table"): (
        0, "07b9b355a055c5cac5a95dd0a0cfd881d46e584ea5ec76a0dec245b94fa21288"),
    ("dist {chvatal} --seeds 600 --solver iso --seed-mode consecutive"
     " --format table"): (
        0, "c94555bff2294252964cfb1b4339f4c992f8bc47ebd3642d849bc717e5a5c60d"),
    ("converge {chvatal} --counts 7,600 --solver iso --seed-mode consecutive"
     " --format table"): (
        0, "07b9b355a055c5cac5a95dd0a0cfd881d46e584ea5ec76a0dec245b94fa21288"),
    ("dist {chvatal} --seeds 600 --solver iso --seed-mode random --format"
     " table"): (
        0, "c94555bff2294252964cfb1b4339f4c992f8bc47ebd3642d849bc717e5a5c60d"),
    ("converge {chvatal} --counts 7,600 --solver iso --seed-mode random"
     " --format table"): (
        0, "07b9b355a055c5cac5a95dd0a0cfd881d46e584ea5ec76a0dec245b94fa21288"),
    "stats {school} --format table": (
        0, "506218933d98bd9daa67b7ce58f4d7be2eaaf526a9f104d5e2213f5e30ce3c35"),
    "match {school} --format table": (
        0, "7e70449d0a5ec3b83094f2446968596d07a7ad21bef48f381d0ec434f64008ee"),
    "cover {school} --format table": (
        0, "e948ecfcf4997c1d41ad26fac6a4d0785d60962e3c5d35e80da34420c2828b10"),
    "cover {school} --solver stoc --replica 3 --format table": (
        0, "e948ecfcf4997c1d41ad26fac6a4d0785d60962e3c5d35e80da34420c2828b10"),
    "cover {school} --solver iso --replica 3 --format table": (
        0, "e948ecfcf4997c1d41ad26fac6a4d0785d60962e3c5d35e80da34420c2828b10"),
    "ub {school} --format table": (
        0, "ba369b78a9699f9b2c3cd7131c8ed6565136b608115868b06d63410a919064da"),
    "ub {school} --bkv 2 --format table": (
        0, "bb2789594c0c8760a8c18da17cfaabcae7ace088caa65dbd76c5a5d1458d591f"),
    "iso {school} --replica 3": (
        0, "a012db287ae816295c28b24fac2e8518a3269770f1fbd0e77ace114a5dc3b93f"),
    ("dist {school} --seeds 600 --solver stoc --seed-mode consecutive"
     " --format table"): (
        0, "541c2304e5f288c119e2d76d1c8066d6dd20f8485aa4d344e1c4437c34181e4d"),
    ("converge {school} --counts 7,600 --solver stoc --seed-mode consecutive"
     " --format table"): (
        0, "b26c19b03ebd8d5592797a3d222441f4353950eba3c854fe12f8e0c98056ae6b"),
    ("dist {school} --seeds 600 --solver stoc --seed-mode random --format"
     " table"): (
        0, "111a561b2038b4a404c9aae7b726d3333785bce08e5247ca91e8b947084acd61"),
    ("converge {school} --counts 7,600 --solver stoc --seed-mode random"
     " --format table"): (
        0, "49867fbb677c8db3af3674ddcbd7487f8d1021fa312a1624f2fde7f75edb27d5"),
    ("dist {school} --seeds 600 --solver iso --seed-mode consecutive --format"
     " table"): (
        0, "e01e8e0ca1608b27e2eb796046ba3ecbfb3256cda85e2a39f0be8399e28ef4aa"),
    ("converge {school} --counts 7,600 --solver iso --seed-mode consecutive"
     " --format table"): (
        0, "28a108ace1415c2dc3baeaa3aade1f27d58ad1f277be57a86ac6f0bef65ce849"),
    ("dist {school} --seeds 600 --solver iso --seed-mode random --format"
     " table"): (
        0, "bf2c79d1a401e7d61d525a93947c1ea34df041455b8feb5648816471573fb023"),
    ("converge {school} --counts 7,600 --solver iso --seed-mode random"
     " --format table"): (
        0, "aeee1ab9bb23d16f5b42db4d8f9c30f2079ae02ce7716aea3ef2703ab373163f"),
    "stats {two_optima} --format table": (
        0, "d10bce2b341bd12662830c3568765f52160f0164ac8c0fcb6cc546892d1e796e"),
    "match {two_optima} --format table": (
        0, "e303703dcbd52a259400cd54ebc7553006a045d61cf35d8c67d69b20901a2a57"),
    "cover {two_optima} --format table": (
        0, "ee0ee7ace8c9360a799eec1f2c73a5a2dd89b062acd5ad5738487a574acfdddc"),
    "cover {two_optima} --solver stoc --replica 3 --format table": (
        0, "622e4e7ed031779796a0e7fe1085baad7c04283584d6ebb20cfceb0de1afcb26"),
    "cover {two_optima} --solver iso --replica 3 --format table": (
        0, "ee0ee7ace8c9360a799eec1f2c73a5a2dd89b062acd5ad5738487a574acfdddc"),
    "ub {two_optima} --format table": (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "ub {two_optima} --bkv 2 --format table": (
        0, "5063603fcc2e2cd83d13e49f63f6e408dc83f07fcb5ad3bf232efe9c6077a4a0"),
    "iso {two_optima} --replica 3": (
        0, "916efa3c37b7cd90a96af4b76fe342439681efbe54f41a7aa1bd82135b57b24e"),
    ("dist {two_optima} --seeds 600 --solver stoc --seed-mode consecutive"
     " --format table"): (
        0, "abf37a4171857c6dab3c9eeecba023b1f73c62bbd986dd036e97489424f91fd1"),
    ("converge {two_optima} --counts 7,600 --solver stoc --seed-mode"
     " consecutive --format table"): (
        0, "647352965258dab27678e943929d550b81888c2a984a7ef635f3bef698d4fbbc"),
    ("dist {two_optima} --seeds 600 --solver stoc --seed-mode random --format"
     " table"): (
        0, "abf37a4171857c6dab3c9eeecba023b1f73c62bbd986dd036e97489424f91fd1"),
    ("converge {two_optima} --counts 7,600 --solver stoc --seed-mode random"
     " --format table"): (
        0, "647352965258dab27678e943929d550b81888c2a984a7ef635f3bef698d4fbbc"),
    ("dist {two_optima} --seeds 600 --solver iso --seed-mode consecutive"
     " --format table"): (
        0, "bd87d6787fd978f2aa7ce0baba767e6fafb8f0183ce9527d49e73c1fde36dbfb"),
    ("converge {two_optima} --counts 7,600 --solver iso --seed-mode"
     " consecutive --format table"): (
        0, "647352965258dab27678e943929d550b81888c2a984a7ef635f3bef698d4fbbc"),
    ("dist {two_optima} --seeds 600 --solver iso --seed-mode random --format"
     " table"): (
        0, "bd87d6787fd978f2aa7ce0baba767e6fafb8f0183ce9527d49e73c1fde36dbfb"),
    ("converge {two_optima} --counts 7,600 --solver iso --seed-mode random"
     " --format table"): (
        0, "647352965258dab27678e943929d550b81888c2a984a7ef635f3bef698d4fbbc"),
    "stats {rand} --format table": (
        0, "2c83ca5f6aea05aba9fd3f40eefc8748b38d44cf80a2e6afc1b7badb301d1fdb"),
    "match {rand} --format table": (
        0, "5c3267db725510fcccb7399a5843ea3ba9f1c993768f6b641e059a15c09c17c7"),
    "cover {rand} --format table": (
        0, "965e5e6dac600238d11132001fdf2460b199d7b77b535a71d69bed344072fc56"),
    "cover {rand} --solver stoc --replica 3 --format table": (
        0, "5cbf7f30f3ec0b19535f81c4c51c7d9970483e409d945606b2026b318922cb7b"),
    "cover {rand} --solver iso --replica 3 --format table": (
        0, "89f5c8586eea755677a82edb80796c9f8156183e1e68a122f71afe3f3a2a4ddd"),
    "ub {rand} --format table": (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "ub {rand} --bkv 2 --format table": (
        0, "fcb1750bcd690abe9c3e6ae6a26da60ac1906a257f300b192f6c6b43068b921b"),
    "iso {rand} --replica 3": (
        0, "b4f4717fc4dedded883d5e36ed07f7806690e835489ae9324970566461206919"),
    ("dist {rand} --seeds 200 --solver stoc --seed-mode consecutive --format"
     " table"): (
        0, "ab9ad615602e803738989d7a08a09d35121fb6ae39dd43c142360cabc8520343"),
    ("converge {rand} --counts 7,200 --solver stoc --seed-mode consecutive"
     " --format table"): (
        0, "11743600e4ebdf6dc50dc73c00617a86b498b13d2973e10744c60279ae0f90df"),
    ("dist {rand} --seeds 200 --solver stoc --seed-mode random --format"
     " table"): (
        0, "dda4e85bf55716a05c9cfb1f35ec6edcfeffce51a1a8593bed594def6876ecf8"),
    ("converge {rand} --counts 7,200 --solver stoc --seed-mode random"
     " --format table"): (
        0, "9f4781678e461e7d1038131542a4bb483f3d09714336f92dbe9986926ab44e82"),
    ("dist {rand} --seeds 200 --solver iso --seed-mode consecutive --format"
     " table"): (
        0, "7619f8ad522c1c96388867b4288438015795ea64200cbbfe48637d274ab67c61"),
    ("converge {rand} --counts 7,200 --solver iso --seed-mode consecutive"
     " --format table"): (
        0, "3fcee2b756db5efbf50ed00c74a2c6a28b042634094d546bcbf0b531d182e057"),
    "dist {rand} --seeds 200 --solver iso --seed-mode random --format table": (
        0, "6915d5805c24f4233814731db106328e3a778ddfcbd64e76f6d7868f18ca7c6d"),
    ("converge {rand} --counts 7,200 --solver iso --seed-mode random --format"
     " table"): (
        0, "a3deba68899ecb40117c81ce9119a44b88dcad48542b4603689f448f39965be0"),
    "ub --bkv 4 --mcd 3 --format table": (
        0, "ba369b78a9699f9b2c3cd7131c8ed6565136b608115868b06d63410a919064da"),
    "urn --sizes 2^4..2^10 --seed 2 --format table": (
        0, "e5b7b293beca934e2d745712edad79b12f610a46e7b4892898a77e4467fe7cab"),
    "topk --size 300 --seed 4 --k 7 --format table": (
        0, "517bdc401244285c04085d42fcc1a42c9f4953c2532d77e33f70197115a07a03"),
    "topk --size 300 --seed 4 --strategy sorted --format table": (
        0, "fec80b9f6c138e583a84c0db757ad623b72d1b0185ecf0ae4a54a3256b1d219c"),
    "hist --size 300 --seed 4 --format table": (
        0, "d2148105f5026a1afb7a54748f7eee894e7bfedb40bc895a56c50302f1f75193"),
    "gen random 100 100 10 30 --seed 7": (
        0, "485ec7c5bac4f43f3fc93596b159a5c33b3bc2d3d9f93a53b6c4edb2e91247b6"),
    "gen random 30 20 2 5 --seed 7": (
        0, "da199a536a4ed6a8ef5c20fe0bbd4cd74c203ac41d4f511cdb6d91001d77b319"),
    "stats {chvatal} --format csv": (
        0, "a736d174b4756a6856622a3cea2ce566441b7d0f03e6a9517051af6a747da121"),
    "match {chvatal} --format csv": (
        0, "8fd50683f589277467bda4415b920a111dce600cc0e052535e8e5c6cd3ddee6b"),
    "cover {chvatal} --format csv": (
        0, "32dc35010ab6f1f9d39a2111ad778687c46fc7c92aa256b7bde0d04d7bb5a598"),
    "cover {chvatal} --solver stoc --replica 3 --format csv": (
        0, "1dbeafaf3ed4a18ca0515bfc247c18ea346bfa94224435c444dd017a55e59a80"),
    "cover {chvatal} --solver iso --replica 3 --format csv": (
        0, "6732a3ee996f84a6aa58fa8f432c421f4d368c54cc09f8e792765302f9283b78"),
    "ub {chvatal} --format csv": (
        0, "a3d38fa5f80b5fc607113071ca7a027680c920cf4a3e81f60ba541ff8de4869b"),
    "ub {chvatal} --bkv 2 --format csv": (
        0, "2d7017172261291690de9890f5b0d86e8dc5d8193a397673dc41106879ef240b"),
    ("dist {chvatal} --seeds 600 --solver stoc --seed-mode consecutive"
     " --format csv"): (
        0, "d8befaded2194ed3c6f9fa7b913b324608f6d755c4fc86c73624b4af686ba721"),
    ("converge {chvatal} --counts 7,600 --solver stoc --seed-mode consecutive"
     " --format csv"): (
        0, "8e6486e03b621b8a8a0f8d9e57c12597374cf775b11b610b59e2aabd7dd32abb"),
    ("dist {chvatal} --seeds 600 --solver stoc --seed-mode random --format"
     " csv"): (
        0, "d8befaded2194ed3c6f9fa7b913b324608f6d755c4fc86c73624b4af686ba721"),
    ("converge {chvatal} --counts 7,600 --solver stoc --seed-mode random"
     " --format csv"): (
        0, "8e6486e03b621b8a8a0f8d9e57c12597374cf775b11b610b59e2aabd7dd32abb"),
    ("dist {chvatal} --seeds 600 --solver iso --seed-mode consecutive"
     " --format csv"): (
        0, "d8befaded2194ed3c6f9fa7b913b324608f6d755c4fc86c73624b4af686ba721"),
    ("converge {chvatal} --counts 7,600 --solver iso --seed-mode consecutive"
     " --format csv"): (
        0, "8e6486e03b621b8a8a0f8d9e57c12597374cf775b11b610b59e2aabd7dd32abb"),
    ("dist {chvatal} --seeds 600 --solver iso --seed-mode random --format"
     " csv"): (
        0, "d8befaded2194ed3c6f9fa7b913b324608f6d755c4fc86c73624b4af686ba721"),
    ("converge {chvatal} --counts 7,600 --solver iso --seed-mode random"
     " --format csv"): (
        0, "8e6486e03b621b8a8a0f8d9e57c12597374cf775b11b610b59e2aabd7dd32abb"),
    "stats {school} --format csv": (
        0, "4bd2adcbb41a8362eb8b1e9caea92cb09e2281c8f61dffc19f6b282db8a2ddb6"),
    "match {school} --format csv": (
        0, "a249ad6d653cc5f6fdbdbb72104a237a711a1cd9451bcd4f9e3680d105c7898a"),
    "cover {school} --format csv": (
        0, "de6b28080d9f172214c749d2cb1a179e788ee8b51bfd2753ceed387c330d9131"),
    "cover {school} --solver stoc --replica 3 --format csv": (
        0, "7c82f519d2f9fecd43f6cfa5b81300476b05cdfcedd9a1b73fcd190816d5b234"),
    "cover {school} --solver iso --replica 3 --format csv": (
        0, "a1a1cc748d2ab60add6a370d08290b633e9df11336d873f501079b659cc1cc47"),
    "ub {school} --format csv": (
        0, "e2baf6e4d860261c19ba119204d368a89c7591fa38533774b2a51b16e4d70eda"),
    "ub {school} --bkv 2 --format csv": (
        0, "7f303f942eaa68eb7593e0bbcfcf8417daccc723cafec04ffca2a500263bad8e"),
    ("dist {school} --seeds 600 --solver stoc --seed-mode consecutive"
     " --format csv"): (
        0, "0ef8515317f8c7cfad687694846a547dae068b5d0934c28b5d09cd4c58ba9a84"),
    ("converge {school} --counts 7,600 --solver stoc --seed-mode consecutive"
     " --format csv"): (
        0, "01425d7b108f4eefafda7c598d4543a61fd058be7c9ca8ede940642257c25c8b"),
    ("dist {school} --seeds 600 --solver stoc --seed-mode random --format"
     " csv"): (
        0, "0b763ca1b643bab37a187e2fd78ebebe3c1f26ea3dd90d3a09841ddb73e66d5f"),
    ("converge {school} --counts 7,600 --solver stoc --seed-mode random"
     " --format csv"): (
        0, "5023182cd79e592fd55bbc4cc154394bdfe82180da1825144d3f8194980fee71"),
    ("dist {school} --seeds 600 --solver iso --seed-mode consecutive --format"
     " csv"): (
        0, "6206b9aa0d583ccebdb08d79dc90e651adf3e7f75ba647e4e0f5d1668f649eb4"),
    ("converge {school} --counts 7,600 --solver iso --seed-mode consecutive"
     " --format csv"): (
        0, "80b9b78ff8877feef13c4ef4a2eea5cf263a36259020b249ff5aae94f2050dc6"),
    "dist {school} --seeds 600 --solver iso --seed-mode random --format csv": (
        0, "6329f8ddd87223953308e8ad335d98157a6e40b9a7b735dfdde9edbb580ee3cd"),
    ("converge {school} --counts 7,600 --solver iso --seed-mode random"
     " --format csv"): (
        0, "3bca02c995db5ea59503673203e8db10860fab5db3c8d9b3548057173f64e951"),
    "stats {two_optima} --format csv": (
        0, "1921bae33500a6143a176728ecf668a4778353bf43380e64264f2e3d53e4d1af"),
    "match {two_optima} --format csv": (
        0, "968ac7ad08995160d619e96356c0ae0bd958b9c056253d1637fb138475bf3cbf"),
    "cover {two_optima} --format csv": (
        0, "50c3ea27306e04f7357a101852ff34f58cb4af82c9d0650109c59dcc08b68950"),
    "cover {two_optima} --solver stoc --replica 3 --format csv": (
        0, "267cb909287d4357308b1e0c28c9cbc3c82c0451fee66453d0422e69c3311806"),
    "cover {two_optima} --solver iso --replica 3 --format csv": (
        0, "c2b8dbbd76c9fcf528a64bbda3b14edf59232ade9b5a6dddde6ef1857457a046"),
    "ub {two_optima} --format csv": (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "ub {two_optima} --bkv 2 --format csv": (
        0, "8cd6c884a1c0e8630914931d169cfab7aa6fdf00704ef7567b01687bd37db934"),
    ("dist {two_optima} --seeds 600 --solver stoc --seed-mode consecutive"
     " --format csv"): (
        0, "df25c13cc506e165c366fa2f3568431d004398be3e8be5ca9be5c0f10a1d078b"),
    ("converge {two_optima} --counts 7,600 --solver stoc --seed-mode"
     " consecutive --format csv"): (
        0, "542990a30920d519e68e257d65b447571f8674ca2f219560427b7c774b8e2f50"),
    ("dist {two_optima} --seeds 600 --solver stoc --seed-mode random --format"
     " csv"): (
        0, "df25c13cc506e165c366fa2f3568431d004398be3e8be5ca9be5c0f10a1d078b"),
    ("converge {two_optima} --counts 7,600 --solver stoc --seed-mode random"
     " --format csv"): (
        0, "542990a30920d519e68e257d65b447571f8674ca2f219560427b7c774b8e2f50"),
    ("dist {two_optima} --seeds 600 --solver iso --seed-mode consecutive"
     " --format csv"): (
        0, "df25c13cc506e165c366fa2f3568431d004398be3e8be5ca9be5c0f10a1d078b"),
    ("converge {two_optima} --counts 7,600 --solver iso --seed-mode"
     " consecutive --format csv"): (
        0, "542990a30920d519e68e257d65b447571f8674ca2f219560427b7c774b8e2f50"),
    ("dist {two_optima} --seeds 600 --solver iso --seed-mode random --format"
     " csv"): (
        0, "df25c13cc506e165c366fa2f3568431d004398be3e8be5ca9be5c0f10a1d078b"),
    ("converge {two_optima} --counts 7,600 --solver iso --seed-mode random"
     " --format csv"): (
        0, "542990a30920d519e68e257d65b447571f8674ca2f219560427b7c774b8e2f50"),
    "stats {rand} --format csv": (
        0, "505e21789056b363bd4cf88c44bdd778afda0ecdad02265613c26c9a722c486f"),
    "match {rand} --format csv": (
        0, "d16f9f4a6c8cbd267cc7006d346184487ef5e701a5a763161ec841c7d6833913"),
    "cover {rand} --format csv": (
        0, "998dc066b15aaa75eaf3f42009fd0e0982bb8fb26b2a76eb283a1a84b01de98e"),
    "cover {rand} --solver stoc --replica 3 --format csv": (
        0, "e0dc92b01690c7b8fd480b1f0b11568810d7f204cc784ce5a8b791188a942f16"),
    "cover {rand} --solver iso --replica 3 --format csv": (
        0, "8ac3ae4a8bdc644ae02650b042936db038add2f902ae858ff7a0ea817388f4a4"),
    "ub {rand} --format csv": (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "ub {rand} --bkv 2 --format csv": (
        0, "c5a9e9e8f035b6aa7085779a31650768502550b0f5601fcc91b868d07d0c2473"),
    ("dist {rand} --seeds 200 --solver stoc --seed-mode consecutive --format"
     " csv"): (
        0, "1353656a4f964e343ed35d00c154387352d09a3980d1e6b2a0fde5f232acdad9"),
    ("converge {rand} --counts 7,200 --solver stoc --seed-mode consecutive"
     " --format csv"): (
        0, "acba24c2c1d04af28237c699f7f60aa8842a0d34dd895481c6de67f1691a2df7"),
    "dist {rand} --seeds 200 --solver stoc --seed-mode random --format csv": (
        0, "d4007d139e5e261789c5c529f7ea6696c33544c34015a18eb48567a5150b4369"),
    ("converge {rand} --counts 7,200 --solver stoc --seed-mode random"
     " --format csv"): (
        0, "87319fa7e9eba25ac0fc5f925e8d2d91cd83c90b388e7eba9e96a1e0b92d8870"),
    ("dist {rand} --seeds 200 --solver iso --seed-mode consecutive --format"
     " csv"): (
        0, "1e6a1bc62f26245cc9107d6b61dc483e8f8b11f7b601bd33559766b2c31319c8"),
    ("converge {rand} --counts 7,200 --solver iso --seed-mode consecutive"
     " --format csv"): (
        0, "652e33c38d7a492fcc1c8d223fd73557409f2eafb9946adc29208760ef79b1a8"),
    "dist {rand} --seeds 200 --solver iso --seed-mode random --format csv": (
        0, "9298709da24b51b558402385f50eaff83008c518bdcaf340f384f2778f18f045"),
    ("converge {rand} --counts 7,200 --solver iso --seed-mode random --format"
     " csv"): (
        0, "0bb183c3e993e4e9ce4570c2d6e99a84eb8191bf20a3bf2610ed6283cab4bc3f"),
    "ub --bkv 4 --mcd 3 --format csv": (
        0, "e2baf6e4d860261c19ba119204d368a89c7591fa38533774b2a51b16e4d70eda"),
    "urn --sizes 2^4..2^10 --seed 2 --format csv": (
        0, "942fcae7fcaeaf297c3f4934da0f11c27beaf03159c3450d83c6467371fc7e1c"),
    "topk --size 300 --seed 4 --k 7 --format csv": (
        0, "179229df6c5fa4873cee0ea3c2a4b4fea4f4c7f39cd19f3b5bd36585bc4ff0bf"),
    "topk --size 300 --seed 4 --strategy sorted --format csv": (
        0, "02bf24ec7d85f1c09e71b31be4ed821d4bc24558b4e4cdc8ff3bed0ff1d8b317"),
    "hist --size 300 --seed 4 --format csv": (
        0, "0c8db93b5388f55feb1582517840aecdf850a4d083646103e305d235bae0be66"),
    "stats {chvatal} --format json": (
        0, "9399e1b70b85e8ec018afa846c2a3d4f3b29359cae2954df26d60a7eabc7fd79"),
    "match {chvatal} --format json": (
        0, "091a27ead02ff5f8adb0a3b781c0cb00a509ddd0d03c33bb3a4722f67417cd1c"),
    "cover {chvatal} --format json": (
        0, "6ba2198660fa7181872abfd3e0f606b0ef8166dd32e086370eb4523b83f0525d"),
    "cover {chvatal} --solver stoc --replica 3 --format json": (
        0, "05b1c83f09f43751da95413b812ccaf55ee7230aacb51b9ef67d78b4f80e3f64"),
    "cover {chvatal} --solver iso --replica 3 --format json": (
        0, "5198683be7b0ed79cbfd6aab7a78165d99cabeffe33e4d2b307f2eaa940fa61a"),
    "ub {chvatal} --format json": (
        0, "457a32d690d2c330bd29ccd6e9ac0af007f77fa98a85fa9fa85eef0e897e07b3"),
    "ub {chvatal} --bkv 2 --format json": (
        0, "ac609c9942a6a53fa8d70c1043c0ffba30bca2d242003f0a9b8d0d293d60ddb8"),
    ("dist {chvatal} --seeds 600 --solver stoc --seed-mode consecutive"
     " --format json"): (
        0, "a929e1a468e3ce952c1753ff5e1037032b19cfb6a3f82207d75a3ca2228c83c3"),
    ("converge {chvatal} --counts 7,600 --solver stoc --seed-mode consecutive"
     " --format json"): (
        0, "d691865b4f89a174eb6611595369daf69a3c3b98676f3507a42cc2a7d63ebfcf"),
    ("dist {chvatal} --seeds 600 --solver stoc --seed-mode random --format"
     " json"): (
        0, "a929e1a468e3ce952c1753ff5e1037032b19cfb6a3f82207d75a3ca2228c83c3"),
    ("converge {chvatal} --counts 7,600 --solver stoc --seed-mode random"
     " --format json"): (
        0, "d691865b4f89a174eb6611595369daf69a3c3b98676f3507a42cc2a7d63ebfcf"),
    ("dist {chvatal} --seeds 600 --solver iso --seed-mode consecutive"
     " --format json"): (
        0, "38a452f0dcf3f8725738747caac3f6ab968eb5fd8266e6625a27797cac2908a4"),
    ("converge {chvatal} --counts 7,600 --solver iso --seed-mode consecutive"
     " --format json"): (
        0, "d691865b4f89a174eb6611595369daf69a3c3b98676f3507a42cc2a7d63ebfcf"),
    ("dist {chvatal} --seeds 600 --solver iso --seed-mode random --format"
     " json"): (
        0, "38a452f0dcf3f8725738747caac3f6ab968eb5fd8266e6625a27797cac2908a4"),
    ("converge {chvatal} --counts 7,600 --solver iso --seed-mode random"
     " --format json"): (
        0, "d691865b4f89a174eb6611595369daf69a3c3b98676f3507a42cc2a7d63ebfcf"),
    "stats {school} --format json": (
        0, "3c146a2fc385e5bf8430c18e3663eed683429a5c5cd92fed4ce6d1056fee95a6"),
    "match {school} --format json": (
        0, "1bd6679e8d8be6fa548ed7bdfb6c6df72c4678f618bd90d637adb5c8e21da216"),
    "cover {school} --format json": (
        0, "82dbb6074e495fe1eda00d837b2a30068652e19f1d56bdb44641c4742ad10911"),
    "cover {school} --solver stoc --replica 3 --format json": (
        0, "07861e212819f8a00cb793b7c6cc9ef7796d7e98d11cc4172530bedc128ae587"),
    "cover {school} --solver iso --replica 3 --format json": (
        0, "d031a25078e76466856bc1c663cbc68cb2538b7be06b85d353a91e0ccd2cec88"),
    "ub {school} --format json": (
        0, "d5a5b2a83388dc687e91b1985224b2308e30f090e9cfa84118faab6542f66225"),
    "ub {school} --bkv 2 --format json": (
        0, "bf943a84ad05f7089711e81dd8e77a22b93fc65a163b28b2be3246b46c4c6ae8"),
    ("dist {school} --seeds 600 --solver stoc --seed-mode consecutive"
     " --format json"): (
        0, "0f3731e9c8d89087fa0b7c0b9bbcfaf59dddf1e06f8d4bc0d5ac9cb0fc3252b1"),
    ("converge {school} --counts 7,600 --solver stoc --seed-mode consecutive"
     " --format json"): (
        0, "3ca19258e434368b9cdfa43925dac0d7b86d962b5e7bcad8e2a4d5746beeae8e"),
    ("dist {school} --seeds 600 --solver stoc --seed-mode random --format"
     " json"): (
        0, "06fea081c1201196ecf664a419ce1386536a2574d026eae1e1f86416060747a2"),
    ("converge {school} --counts 7,600 --solver stoc --seed-mode random"
     " --format json"): (
        0, "2e055dc27614f089370af5bc5247a7804dc9c655d10a6837c77cf749226b4329"),
    ("dist {school} --seeds 600 --solver iso --seed-mode consecutive --format"
     " json"): (
        0, "5f450e1b0965600ec750a979e71ba457301ff5444b5374cca90c38f5eaadcf64"),
    ("converge {school} --counts 7,600 --solver iso --seed-mode consecutive"
     " --format json"): (
        0, "30a73089ef893f72efd7a423eee8d966ea20a6bf6f264b8629338e1ccae2a5af"),
    ("dist {school} --seeds 600 --solver iso --seed-mode random --format"
     " json"): (
        0, "40a69036b89fb00e29287de84206db5f11b809f75fb59175316478d626f6a91f"),
    ("converge {school} --counts 7,600 --solver iso --seed-mode random"
     " --format json"): (
        0, "da8e580034bf0f75f03592653119a9813b2908214a10d458aeed6b6a2754da78"),
    "stats {two_optima} --format json": (
        0, "b9aaacfe43b4a9be4ec54921f127ce14ed48dbf3b42c7f1ebee272365fa40a20"),
    "match {two_optima} --format json": (
        0, "f4f96f2eea4b60f00d243c12d37240410102bbfad2157bf66b60e4912b39b32f"),
    "cover {two_optima} --format json": (
        0, "4a0b04ea46e0d7160d4812d7b654db79ef8a5e83d8e1ab4eac05e396b73dec86"),
    "cover {two_optima} --solver stoc --replica 3 --format json": (
        0, "17d251002df367db99d4dd8e3b0ebbab620032aaf27a74e70638f8915d3141ee"),
    "cover {two_optima} --solver iso --replica 3 --format json": (
        0, "edf3e2225a0e97996bcc4687042274077765d35d18e9e6a5f2013515297912f8"),
    "ub {two_optima} --format json": (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "ub {two_optima} --bkv 2 --format json": (
        0, "774731d495c1835ff5c05b81329941323654e8fedba4949fe6c1f6eae9481345"),
    ("dist {two_optima} --seeds 600 --solver stoc --seed-mode consecutive"
     " --format json"): (
        0, "4404533755b87938283a0cad3bbd1ec06f57dc332b98dfab4aabee6d7f4c601c"),
    ("converge {two_optima} --counts 7,600 --solver stoc --seed-mode"
     " consecutive --format json"): (
        0, "a4edf2458f1a9aedc699a5122f2f0199cece9ce115b00a3b8de32c864e6e9cb3"),
    ("dist {two_optima} --seeds 600 --solver stoc --seed-mode random --format"
     " json"): (
        0, "4404533755b87938283a0cad3bbd1ec06f57dc332b98dfab4aabee6d7f4c601c"),
    ("converge {two_optima} --counts 7,600 --solver stoc --seed-mode random"
     " --format json"): (
        0, "a4edf2458f1a9aedc699a5122f2f0199cece9ce115b00a3b8de32c864e6e9cb3"),
    ("dist {two_optima} --seeds 600 --solver iso --seed-mode consecutive"
     " --format json"): (
        0, "a8908358777968c3de7b7da3acca727a177f986b42029f7a0d4e039e199c0768"),
    ("converge {two_optima} --counts 7,600 --solver iso --seed-mode"
     " consecutive --format json"): (
        0, "a4edf2458f1a9aedc699a5122f2f0199cece9ce115b00a3b8de32c864e6e9cb3"),
    ("dist {two_optima} --seeds 600 --solver iso --seed-mode random --format"
     " json"): (
        0, "a8908358777968c3de7b7da3acca727a177f986b42029f7a0d4e039e199c0768"),
    ("converge {two_optima} --counts 7,600 --solver iso --seed-mode random"
     " --format json"): (
        0, "a4edf2458f1a9aedc699a5122f2f0199cece9ce115b00a3b8de32c864e6e9cb3"),
    "stats {rand} --format json": (
        0, "417197c75618f3119ee91fa71bab8368a38b96e9900b1958e73ac1a1e6f16b22"),
    "match {rand} --format json": (
        0, "5fc3b089dfb84dc357a83dc687e55449da318e64c62dfa91f4833adb78a2e31d"),
    "cover {rand} --format json": (
        0, "c3c284a09f43a7ec67a3c060ccf4a505c7107c941d3a7a56e455c7a8c135e0be"),
    "cover {rand} --solver stoc --replica 3 --format json": (
        0, "7e64cf3a9b2725e1bfddca93a184fbb22832e50baf25ed8834f6a6cc8ba24093"),
    "cover {rand} --solver iso --replica 3 --format json": (
        0, "7183be36f23b23f15beb2652866c9ca81b3c18527da2d76ea4f50837465999f5"),
    "ub {rand} --format json": (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "ub {rand} --bkv 2 --format json": (
        0, "06e30f4363d380e79b11bf04943fd2b514391e0b80056513ada36f89c5e7c029"),
    ("dist {rand} --seeds 200 --solver stoc --seed-mode consecutive --format"
     " json"): (
        0, "fc5cc154be765fa5ae8e76ebb3ad69b6c06b1f3b0f61225e31493e587b4e00ba"),
    ("converge {rand} --counts 7,200 --solver stoc --seed-mode consecutive"
     " --format json"): (
        0, "db6f26ea867bc194e7fb0d96d67bc967e57143c7fa0d0908cb28a1d6ce198fde"),
    "dist {rand} --seeds 200 --solver stoc --seed-mode random --format json": (
        0, "2990f634a3d8aa7de931654bc169fa14a86fe19be969e7b130a65c889ea424f8"),
    ("converge {rand} --counts 7,200 --solver stoc --seed-mode random"
     " --format json"): (
        0, "57a7fa1f3ab96a13d11473aafee3331882545e52dcad30673f9bdbc66cb114b3"),
    ("dist {rand} --seeds 200 --solver iso --seed-mode consecutive --format"
     " json"): (
        0, "fae6ea6e7437afdc2f6b50d25b97e482e4e522d31d8a6c4db60ed07180608eba"),
    ("converge {rand} --counts 7,200 --solver iso --seed-mode consecutive"
     " --format json"): (
        0, "acd64ee2476dd0bdf89991430b8da8e8090dc2cb375e4586a87bf8df57800487"),
    "dist {rand} --seeds 200 --solver iso --seed-mode random --format json": (
        0, "c3837a2b00e3e3da41f60c4925ff5308617f974ef8dec637ac5b6eb104d9908f"),
    ("converge {rand} --counts 7,200 --solver iso --seed-mode random --format"
     " json"): (
        0, "45bcad7128886a2cdb63a655cde2d6011d0c187a975ace6893ee9c24feb406e1"),
    "ub --bkv 4 --mcd 3 --format json": (
        0, "ef8ce4498535ceca3cbf055510d450b79ab9b51f1474b55d3b0b9d08a27e4487"),
    "urn --sizes 2^4..2^10 --seed 2 --format json": (
        0, "07ed0448929c1afa4d7107e5a6b4f501d5d44ebab8e56487ec040bf15fd99792"),
    "topk --size 300 --seed 4 --k 7 --format json": (
        0, "c3d01cdb4abfa9cc790ba4b7835e5542ce0400350b9a9a6b7bc6579d924f6a9f"),
    "topk --size 300 --seed 4 --strategy sorted --format json": (
        0, "6d8f326e2cf30ebc7083fa7504b0ae0529bb8b5d04b7b78a871bdcdb2d2a3336"),
    "hist --size 300 --seed 4 --format json": (
        0, "7785a655776441187d84dbdc969aee352c544dceca041bf26a92ba624ecfa3d6"),
}


def _golden_commands() -> list[str]:
    # 600 seeds take iso runs past the keystream cut (`_ISO_BLOCK_SEEDS`)
    seed_counts = {"chvatal": 600, "school": 600, "two_optima": 600,
                   "rand": 200}
    # gen and iso write a clause file and take no --format
    commands = ["iso {%s} --replica 3" % name for name in seed_counts]
    commands += ["gen random 100 100 10 30 --seed 7",
                 "gen random 30 20 2 5 --seed 7"]
    for fmt in FORMATS:
        tail = f" --format {fmt}"
        for name, seeds in seed_counts.items():
            path = "{%s}" % name
            commands += [f"stats {path}{tail}", f"match {path}{tail}",
                         f"cover {path}{tail}",
                         f"cover {path} --solver stoc --replica 3{tail}",
                         f"cover {path} --solver iso --replica 3{tail}",
                         f"ub {path}{tail}", f"ub {path} --bkv 2{tail}"]
            for solver in ("stoc", "iso"):
                for mode in ("consecutive", "random"):
                    opts = f"--solver {solver} --seed-mode {mode}"
                    commands += [
                        f"dist {path} --seeds {seeds} {opts}{tail}",
                        f"converge {path} --counts 7,{seeds} {opts}{tail}"]
        commands += [f"ub --bkv 4 --mcd 3{tail}",
                     f"urn --sizes 2^4..2^10 --seed 2{tail}",
                     f"topk --size 300 --seed 4 --k 7{tail}",
                     f"topk --size 300 --seed 4 --strategy sorted{tail}",
                     f"hist --size 300 --seed 4{tail}"]
    return commands


@pytest.fixture(scope="module")
def golden_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    files = {"chvatal": ("chvatal_6_5.cnfW", chvatal_6_5()),
             "school": ("school_9_11.cnfU", school_9_11()),
             "two_optima": ("two_optima.cnfU", two_optima()),
             "rand": ("rand_100_100.cnfU",
                      gen_random_instance(100, 100, 10, 30, 7))}
    paths = {}
    for key, (file_name, inst) in files.items():
        path = root / file_name
        path.write_text(write_cnf(inst))
        paths[key] = str(path)
    return paths


def test_cli_golden_outputs(capsys, golden_dir):
    got = {}
    for command in _golden_commands():
        rc, out, _ = run(capsys, *command.format(**golden_dir).split())
        got[command] = (rc, hashlib.sha256(out.encode()).hexdigest())
    assert got == GOLDEN
