import json

import numpy as np
import pytest

from helpers import corner_clusters
from rggham.cli import main
from rggham.experiments import SWEEP_CSV_HEADER
from rggham.failures import FailureReason
from rggham.instance import VertexSet, build_spatial_index, is_connected

TRIANGLE = "x,y\n0.1,0.5\n0.2,0.5\n0.3,0.5\n"


@pytest.fixture
def triangle(tmp_path):
    path = tmp_path / "tri.csv"
    path.write_text(TRIANGLE)
    return path


def write_cycle(tmp_path, entries, name="cycle.txt"):
    path = tmp_path / name
    path.write_text("\n".join(str(v) for v in entries) + "\n")
    return path


# --------------------------------------------------------------------------
# gen
# --------------------------------------------------------------------------

def test_gen_stdout_and_file_agree(tmp_path, capsys):
    args = ["gen", "-n", "40", "-p", "2", "--radius", "0.3", "--seed", "9"]
    assert main(args) == 0
    cap = capsys.readouterr()
    assert cap.out.startswith("x,y\n")
    assert len(cap.out.splitlines()) == 41
    assert cap.err.startswith("r = ") and "(threshold " in cap.err
    assert float(cap.err.split()[2]) == 0.3     # 17 digits round-trip exactly

    out = tmp_path / "pts.csv"
    assert main(args + ["-o", str(out)]) == 0
    assert out.read_text() == cap.out

    # byte-identical rerun
    assert main(args) == 0
    assert capsys.readouterr().out == cap.out


def test_gen_radius_spec_variants(capsys):
    assert main(["gen", "-n", "100", "-p", "2", "--mult", "2.0"]) == 0
    capsys.readouterr()
    assert main(["gen", "-n", "100", "-p", "2", "--eps-above", "1.0"]) == 0
    capsys.readouterr()
    assert main(["gen", "-n", "100", "-p", "2", "--eps-below", "1.0"]) == 0
    capsys.readouterr()


def test_gen_rejects_tiny_n(capsys):
    assert main(["gen", "-n", "0", "-p", "2", "--radius", "0.3"]) == 2
    assert "error:" in capsys.readouterr().err


def test_gen_requires_exactly_one_radius_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "-n", "10", "-p", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["gen", "-n", "10", "-p", "2", "--radius", "0.3", "--mult", "2"])
    capsys.readouterr()


# --------------------------------------------------------------------------
# ham and verify round trip
# --------------------------------------------------------------------------

def test_ham_verify_round_trip(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    cyc = tmp_path / "cycle.txt"
    assert main(["gen", "-n", "4500", "-p", "2", "--radius", "0.9",
                 "-o", str(pts)]) == 0
    assert main(["ham", "--points", str(pts), "-p", "2", "--radius", "0.9",
                 "-o", str(cyc), "--json"]) == 0
    cap = capsys.readouterr()
    meta = json.loads(cap.out)
    assert meta["outcome"] == "CycleVerified"
    assert meta["n"] == 4500 and meta["cells_per_side"] == 4
    assert "cycle" not in meta          # cycle went to the file
    lines = cyc.read_text().split()
    assert sorted(int(v) for v in lines) == list(range(4500))

    assert main(["verify", "--points", str(pts), "--cycle", str(cyc),
                 "-p", "2", "--radius", "0.9"]) == 0
    assert capsys.readouterr().out == "valid cycle over 4500 vertices\n"


def test_ham_stdout_json_carries_cycle(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    main(["gen", "-n", "4500", "-p", "2", "--radius", "0.9", "-o", str(pts)])
    capsys.readouterr()
    assert main(["ham", "--points", str(pts), "-p", "2",
                 "--radius", "0.9", "--json"]) == 0
    meta = json.loads(capsys.readouterr().out)
    assert sorted(meta["cycle"]) == list(range(4500))


def test_ham_failure_prints_machine_readable_json(tmp_path, capsys):
    # half the threshold radius: about 100 of the 500 vertices are isolated,
    # so the instance has no Hamiltonian cycle
    pts = tmp_path / "pts.csv"
    main(["gen", "-n", "500", "-p", "2", "--mult", "0.5", "-o", str(pts)])
    capsys.readouterr()
    code = main(["ham", "--points", str(pts), "-p", "2", "--mult", "0.5"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["outcome"] == "Failure"
    reason = FailureReason(payload["reason"])
    assert reason in (FailureReason.DISCONNECTED, FailureReason.EDGE_TOO_LONG)
    assert code == 10 + list(FailureReason).index(reason)
    assert payload["n"] == 500
    assert isinstance(payload["context"], dict) and payload["context"]
    vs = VertexSet.from_csv(pts)
    assert not is_connected(build_spatial_index(vs, payload["r"], 2.0))


def test_ham_disconnected_clusters_exit_10(tmp_path, capsys):
    # two 5-point clusters in opposite corners, about 1.4 apart: no repair
    # crosses the gap, and the fallback's connectivity check certifies the
    # failure as disconnected (the console-script smoke run in CI too)
    pts = tmp_path / "corners.csv"
    VertexSet(corner_clusters()).to_csv(pts)
    assert main(["ham", "--points", str(pts), "-p", "2",
                 "--radius", "1.01"]) == 10
    payload = json.loads(capsys.readouterr().out)
    assert payload["reason"] == "Disconnected"
    assert payload["context"] == {"detail": "the graph is disconnected",
                                  "radius": 1.01}


def test_ham_tiny_radius_fails_typed(tmp_path, capsys):
    # r = 1e-6 once asked for per-cell arrays of about 466 TiB; now the
    # failure is the usual JSON line with a certificate, and nothing else
    pts = tmp_path / "pts.csv"
    main(["gen", "-n", "1000", "-p", "2", "--radius", "0.3", "-o", str(pts)])
    capsys.readouterr()
    code = main(["ham", "--points", str(pts), "-p", "2", "--radius", "1e-6"])
    cap = capsys.readouterr()
    assert code == 10
    assert cap.err == ""
    payload = json.loads(cap.out)
    assert payload["outcome"] == "Failure"
    assert payload["reason"] == FailureReason.DISCONNECTED.value
    assert payload["r"] == 1e-6 and payload["n"] == 1000


def test_ham_too_few_points_is_usage_error(tmp_path, capsys):
    pts = tmp_path / "two.csv"
    pts.write_text("x,y\n0.1,0.1\n0.2,0.2\n")
    assert main(["ham", "--points", str(pts), "-p", "2", "--radius", "0.5"]) == 2
    capsys.readouterr()


def test_ham_missing_points_file(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    assert main(["ham", "--points", str(missing), "-p", "2",
                 "--radius", "0.5"]) == 3
    assert "io error" in capsys.readouterr().err


def test_ham_malformed_points_file(tmp_path, capsys):
    pts = tmp_path / "bad.csv"
    pts.write_text("x,y\n0.1,0.1\n0.2,oops\n0.3,0.3\n")
    assert main(["ham", "--points", str(pts), "-p", "2", "--radius", "0.5"]) == 2
    assert "line 3" in capsys.readouterr().err


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def test_verify_flags_duplicate_vertex(tmp_path, triangle, capsys):
    cyc = write_cycle(tmp_path, [0, 1, 1])
    code = main(["verify", "--points", str(triangle), "--cycle", str(cyc),
                 "-p", "2", "--radius", "0.5"])
    assert code == 1
    assert "invalid: NotPermutation at position 2" in capsys.readouterr().out


@pytest.mark.parametrize("entry", [10**20, -10**20, 2**63, -2**63 - 1])
def test_verify_entry_past_int64_is_not_a_permutation(tmp_path, triangle,
                                                      capsys, entry):
    # such an entry is outside [0, n) like any other, not an OverflowError
    cyc = write_cycle(tmp_path, [0, 1, entry])
    base = ["verify", "--points", str(triangle), "--cycle", str(cyc),
            "-p", "2", "--radius", "0.5"]
    assert main(base) == 1
    cap = capsys.readouterr()
    assert cap.out == "invalid: NotPermutation at position 2\n"
    assert cap.err == ""
    assert main(base + ["--json"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "valid": False, "n": 3,
        "violation": {"position": 2, "kind": "NotPermutation"}}


def test_verify_wrong_length_is_malformed_not_judged(tmp_path, triangle, capsys):
    cyc = write_cycle(tmp_path, [0, 1])
    code = main(["verify", "--points", str(triangle), "--cycle", str(cyc),
                 "-p", "2", "--radius", "0.5"])
    assert code == 2
    assert "2 entries" in capsys.readouterr().err


def test_verify_non_integer_cycle_line(tmp_path, triangle, capsys):
    cyc = tmp_path / "garbled.txt"
    cyc.write_text("0\none\n2\n")
    code = main(["verify", "--points", str(triangle), "--cycle", str(cyc),
                 "-p", "2", "--radius", "0.5"])
    assert code == 2
    assert "line 2" in capsys.readouterr().err


def test_blank_lines_in_points_and_cycle_files_are_skipped(tmp_path, capsys):
    pts = tmp_path / "gaps.csv"
    pts.write_text("x,y\n0.1,0.5\n\n0.2,0.5\n  \n0.3,0.5\n\n")
    cyc = tmp_path / "gaps.txt"
    cyc.write_text("\n0\n1\n \n2\n\n")
    code = main(["verify", "--points", str(pts), "--cycle", str(cyc),
                 "-p", "2", "--radius", "0.5"])
    assert code == 0
    assert capsys.readouterr().out == "valid cycle over 3 vertices\n"


def test_verify_rtol_slack(tmp_path, triangle, capsys):
    # wraparound edge is 0.2; fails at r=0.1, passes with 110% slack
    cyc = write_cycle(tmp_path, [0, 1, 2])
    base = ["verify", "--points", str(triangle), "--cycle", str(cyc),
            "-p", "2", "--radius", "0.1"]
    assert main(base) == 1
    cap = capsys.readouterr()
    assert "EdgeTooLong at position 2" in cap.out
    assert main(base + ["--rtol", "1.1"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("extra", [["--radius", "nan"],
                                   ["--radius", "0.001", "--rtol", "nan"],
                                   ["--radius", "-0.5"], ["--radius", "0"]])
def test_verify_rejects_bad_bounds(tmp_path, triangle, capsys, extra):
    # a NaN bound used to certify any cycle; a radius <= 0 is no radius
    cyc = write_cycle(tmp_path, [0, 1, 2])
    assert main(["verify", "--points", str(triangle), "--cycle", str(cyc),
                 "-p", "2"] + extra) == 2
    cap = capsys.readouterr()
    assert cap.out == "" and "radius > 0" in cap.err


def test_verify_infinite_radius_takes_any_permutation(tmp_path, triangle, capsys):
    # every pair is within an infinite radius; no --rtol means no slack,
    # not a NaN one from 0 * inf
    cyc = write_cycle(tmp_path, [2, 0, 1])
    assert main(["verify", "--points", str(triangle), "--cycle", str(cyc),
                 "-p", "2", "--radius", "inf"]) == 0
    assert "valid cycle over 3 vertices" in capsys.readouterr().out


def test_verify_json_report(tmp_path, triangle, capsys):
    cyc = write_cycle(tmp_path, [0, 1, 2])
    assert main(["verify", "--points", str(triangle), "--cycle", str(cyc),
                 "-p", "2", "--radius", "0.5", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"valid": True, "n": 3}
    assert main(["verify", "--points", str(triangle), "--cycle", str(cyc),
                 "-p", "2", "--radius", "0.1", "--json"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["valid"] is False
    assert rep["violation"]["kind"] == "EdgeTooLong"


# --------------------------------------------------------------------------
# sweep and bench
# --------------------------------------------------------------------------

def test_sweep_prints_rows_and_writes_files(tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    json_path = tmp_path / "rows.json"
    code = main(["sweep", "--ns", "300", "-p", "2", "--multipliers", "0.5,2.0",
                 "--trials", "2", "--csv", str(csv_path),
                 "--json-out", str(json_path)])
    assert code == 0                    # failures are data, not errors
    out = capsys.readouterr().out.splitlines()
    assert out[0] == SWEEP_CSV_HEADER
    assert len(out) == 3
    assert csv_path.read_text().splitlines() == out
    rows = json.loads(json_path.read_text())
    assert [r["multiplier"] for r in rows] == [0.5, 2.0]
    assert all(r["trials"] == 2 for r in rows)


def test_sweep_rejects_a_malformed_size_list(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--ns", "1,x", "-p", "2", "--multipliers", "2"])
    assert exc.value.code == 2
    assert "not a comma separated int list: '1,x'" in capsys.readouterr().err


def test_sweep_empty_multiplier_list(capsys):
    assert main(["sweep", "--ns", "300", "-p", "2",
                 "--multipliers", "", "--trials", "2"]) == 0
    assert capsys.readouterr().out == SWEEP_CSV_HEADER + "\n"


def test_bench_table_and_json(capsys):
    assert main(["bench", "--ns", "1000,1300", "-p", "2", "--trials", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2
    assert out[0].startswith("n=1000") and out[0].endswith("ratio=-")
    assert main(["bench", "--ns", "1000", "-p", "2", "--trials", "1",
                 "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["n"] == 1000 and rows[0]["ratio"] is None


def test_bench_rejects_descending_sizes(capsys):
    assert main(["bench", "--ns", "2000,1000", "-p", "2"]) == 2
    capsys.readouterr()


def test_bench_rejects_zero_trials(capsys):
    # no trial means no median to print
    assert main(["bench", "--ns", "1000", "-p", "2", "--trials", "0",
                 "--json"]) == 2
    cap = capsys.readouterr()
    assert cap.out == "" and "trial" in cap.err


# --------------------------------------------------------------------------
# alpha
# --------------------------------------------------------------------------

@pytest.mark.parametrize("p,text", [("2", "3.14159265358979"),
                                    ("1", "2"), ("inf", "4")])
def test_alpha_prints_disk_area(p, text, capsys):
    assert main(["alpha", p]) == 0
    assert capsys.readouterr().out == text + "\n"


def test_alpha_json_and_bad_p(capsys):
    assert main(["alpha", "2", "--json"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["p"] == 2.0 and got["area"] == pytest.approx(np.pi)
    assert main(["alpha", "0.5"]) == 2
    capsys.readouterr()


def test_no_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()
