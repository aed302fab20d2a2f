import json

import pytest

from signrank import parse_sign_matrix, count_sign_changes, spectral, vc
from signrank.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_signed_identity(tmp_path):
    out = tmp_path / "id4.txt"
    assert main(["gen", "signed-identity", "--n", "4", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines == ["+---", "-+--", "--+-", "---+"]


def test_gen_projective(tmp_path):
    out = tmp_path / "p3.txt"
    assert main(["gen", "projective", "--p", "3", "--d", "2", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 13 and all(len(l) == 13 for l in lines)
    assert all(l.count("+") == 4 for l in lines)


def test_gen_rejects_non_prime(capsys):
    code, _, err = run_cli(capsys, "gen", "projective", "--p", "4")
    assert code == 2
    assert "prime" in err


def test_gen_missing_parameter(capsys):
    code, _, err = run_cli(capsys, "gen", "signed-identity")
    assert code == 2
    assert "--n" in err


def test_analyze_signed_identity(tmp_path, capsys):
    matrix = tmp_path / "id4.txt"
    assert main(["gen", "signed-identity", "--n", "4", "--out", str(matrix)]) == 0
    code, out, _ = run_cli(capsys, "analyze", str(matrix))
    assert code == 0
    doc = json.loads(out)
    assert doc["bracket"] == [3, 3]
    assert doc["approx_sign_rank"] == 3
    assert doc["vc"] == 1
    assert doc["dual"] == 3


def test_analyze_all_plus(tmp_path, capsys):
    matrix = tmp_path / "plus.txt"
    matrix.write_text("++++\n++++\n++++\n++++\n")
    code, out, _ = run_cli(capsys, "analyze", str(matrix))
    assert code == 0
    assert json.loads(out)["bracket"] == [1, 1]


def test_analyze_deterministic_bytes(tmp_path):
    matrix = tmp_path / "p3.txt"
    assert main(["gen", "projective", "--p", "3", "--out", str(matrix)]) == 0
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["analyze", str(matrix), "--seed", "7", "--out", str(out1)]) == 0
    assert main(["analyze", str(matrix), "--seed", "7", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_analyze_rejects_negative_budget(tmp_path, capsys):
    matrix = tmp_path / "p3.txt"
    assert main(["gen", "projective", "--p", "3", "--out", str(matrix)]) == 0
    code, out, err = run_cli(capsys, "analyze", str(matrix), "--budget", "-5")
    assert code == 2
    assert out == "" and "budget" in err


def test_analyze_parse_error_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("+-\n+x\n")
    code, _, err = run_cli(capsys, "analyze", str(bad))
    assert code == 2
    assert "line 2" in err


def test_analyze_nonconvergence_exit_code(tmp_path, capsys, monkeypatch):
    """A witness norm the verifier cannot certify: exit 4, the bound is
    listed under skipped and left out of lower, and the report is written."""
    monkeypatch.setattr(spectral, "_certified_norm", lambda W: None)
    matrix = tmp_path / "m.txt"
    matrix.write_text("++-\n+-+\n--+\n")
    out = tmp_path / "report.json"
    code = main(["analyze", str(matrix), "--out", str(out)])
    assert code == 4
    # the report is still written
    doc = json.loads(out.read_text())
    assert doc["bracket"]
    assert "forster" in [s["method"] for s in doc["skipped"]]
    assert "forster" not in [b["method"] for b in doc["lower"]]


def test_analyze_converged_power_runs_exit_zero(tmp_path, capsys):
    """interval_class(3) exits 0 from analyze and bounds (it exited 4 when
    exit 4 compared power iterations summed over several runs with a cap)."""
    matrix = tmp_path / "intervals.txt"
    assert main(["gen", "intervals", "--p", "3", "--out", str(matrix)]) == 0
    code, out, _ = run_cli(capsys, "analyze", str(matrix))
    assert code == 0
    assert json.loads(out)["bracket"]
    code, out, _ = run_cli(capsys, "bounds", str(matrix))
    assert code == 0


def test_enumerate_exact(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "2", "--d", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["count_exact"] == 10
    assert doc["maximum_count"] == 4

    code, out, _ = run_cli(capsys, "enumerate", "--n", "2", "--d", "0")
    assert json.loads(out)["count_exact"] == 4


def test_enumerate_large_n_advises_sampling(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--n", "5", "--d", "2")
    assert code == 3
    assert "--sample" in err


def test_enumerate_sampling(capsys):
    code, out, _ = run_cli(
        capsys,
        "enumerate",
        "--n",
        "5",
        "--d",
        "5",
        "--sample",
        "--size",
        "6",
        "--samples",
        "40",
        "--seed",
        "1",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["fraction"] == 1.0
    assert doc["samples"] == 40


def test_enumerate_sampling_rejects_n_past_62(capsys):
    for n in ("63", "64"):
        code, _, err = run_cli(
            capsys, "enumerate", "--sample", "--n", n, "--d", "2", "--size", "10", "--samples", "3"
        )
        assert code == 2
        assert "at most 62" in err
    code, out, _ = run_cli(
        capsys, "enumerate", "--sample", "--n", "62", "--d", "2", "--size", "10", "--samples", "3"
    )
    assert code == 0
    assert json.loads(out)["samples"] == 3


def test_enumerate_sampling_over_budget_exit_code(capsys, monkeypatch):
    # Level 4 of the 8-cube has 70 subsets; a budget of 69 refuses the scan.
    monkeypatch.setattr(vc, "SUBSET_BUDGET", 69)
    code, out, err = run_cli(
        capsys, "enumerate", "--sample", "--n", "8", "--d", "3", "--size", "16", "--samples", "5"
    )
    assert code == 3
    assert out == ""
    assert "examined 69 of 70" in err


def test_path_command_consistent(tmp_path, capsys):
    matrix = tmp_path / "grid.txt"
    assert main(["gen", "grid", "--n", "3", "--d", "2", "--out", str(matrix)]) == 0
    code, out, _ = run_cli(capsys, "path", str(matrix), "--seed", "5")
    assert code == 0
    doc = json.loads(out)
    S = parse_sign_matrix(matrix.read_text())
    recount = count_sign_changes(S, doc["permutation"])
    assert recount.max_sign_changes == doc["max_sign_changes"]
    assert doc["method"] == "welzl"
    assert len(doc["x_log"]) == S.n_rows - 1


def test_bounds_command(tmp_path, capsys):
    matrix = tmp_path / "p3.txt"
    assert main(["gen", "projective", "--p", "3", "--out", str(matrix)]) == 0
    code, out, _ = run_cli(capsys, "bounds", str(matrix))
    assert code == 0
    doc = json.loads(out)
    assert doc["degree"] == 4
    assert doc["regular_upper_bound"] == 9
    assert doc["spectral_lower_bound"] == pytest.approx(2.3094, abs=1e-4)
    assert doc["star_norm_floor"] == 3.0
    # sigma2 of the boolean version is carried by the trace floor; the
    # spectrum block reports the signed matrix itself
    assert doc["sigma2_trace_floor"] == pytest.approx(3**0.5, abs=1e-6)


def test_bounds_uncertified_exit_code(tmp_path, capsys, monkeypatch):
    matrix = tmp_path / "p3.txt"
    assert main(["gen", "projective", "--p", "3", "--out", str(matrix)]) == 0
    code, out, _ = run_cli(capsys, "bounds", str(matrix))
    assert code == 0
    doc = json.loads(out)
    assert set(doc["spectrum"]) == {"sigma1", "sigma2"}
    assert "skipped" not in doc
    monkeypatch.setattr(spectral, "_certified_norm", lambda W: None)
    code, out, _ = run_cli(capsys, "bounds", str(matrix))
    assert code == 4
    doc = json.loads(out)
    methods = [s["method"] for s in doc["skipped"]]
    assert methods == ["forster_identity", "spectral_lower_bound"]
    assert not set(methods) & set(doc)
    assert doc["regular_upper_bound"] == 9


def test_tol_flag_removed(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["--tol", "1e-9", "enumerate", "--n", "2", "--d", "1"])


def test_approx_command(tmp_path, capsys):
    matrix = tmp_path / "id4.txt"
    assert main(["gen", "signed-identity", "--n", "4", "--out", str(matrix)]) == 0
    code, out, _ = run_cli(capsys, "approx", str(matrix))
    assert code == 0
    doc = json.loads(out)
    assert doc["approx_sign_rank"] == 3
    assert doc["method"] == "vc1"


def test_global_flags_both_positions(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    assert main(["--seed", "9", "gen", "line-subset", "--p", "3", "--out", str(a)]) == 0
    assert main(["gen", "line-subset", "--p", "3", "--seed", "9", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
