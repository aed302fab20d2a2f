import argparse
import hashlib
import json
import os
import stat
import time

import numpy as np
import pytest

import signrank
from signrank import generators, parse_sign_matrix, count_sign_changes, spectral, vc
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


def test_gen_projective_rejects_dimension_zero(capsys):
    # --d 0 is given, not left out: it must not fall back to the plane
    code, _, err = run_cli(capsys, "gen", "projective", "--p", "3", "--d", "0")
    assert code == 2
    assert "dimension must be at least 2" in err


def test_gen_projective_size_limit(capsys):
    """3^41 coordinate tuples are never enumerated: the point count alone
    exceeds the limit."""
    code, out, err = run_cli(capsys, "gen", "projective", "--p", "3", "--d", "40")
    assert code == 3
    assert out == "" and "at most 4096" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("intervals", "--p", "61"),
        ("signed-identity", "--n", "4097"),
        ("disjointness", "--n", "40"),
        ("grid", "--n", "100", "--d", "5"),
        ("hamming-ball", "--n", "60", "--d", "30"),
    ],
)
def test_gen_size_limit_from_parameters(capsys, argv):
    """Every generator refuses an output over 4096^2 cells from its
    parameters alone, before it allocates anything."""
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "gen", *argv)
    assert code == 3
    assert out == "" and "cells" in err
    assert time.perf_counter() - start < 5.0


BIG = str(10**100)
MERSENNE_127 = str(2**127 - 1)


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (("signed-identity", "--n", BIG), 3, "cells"),
        (("disjointness", "--n", BIG), 3, "cells"),
        (("grid", "--n", BIG, "--d", BIG), 3, "cells"),
        (("hamming-ball", "--n", BIG, "--d", BIG), 3, "cells"),
        (("projective", "--p", "2", "--d", "20000"), 3, "dimension 20000: at most 4096 points"),
        (("projective", "--p", "2", "--d", BIG), 3, "at most 4096 points"),
        (("projective", "--p", MERSENNE_127), 3, "at most 4096 points"),
        (("intervals", "--p", MERSENNE_127, "--planted"), 3, "at most 4096 points"),
        (("line-subset", "--p", MERSENNE_127), 3, "at most 4096 points"),
        (("projective", "--p", "5000"), 3, "order 5000: at most 4096 points"),  # not prime
        (("projective", "--p", "4", "--d", "40"), 2, "order 4 is not prime"),
        (("projective", "--p", "67"), 3, "4557 points; at most 4096 are supported"),
    ],
)
def test_gen_refuses_absurd_parameters_at_once(capsys, argv, code, message):
    """No generator does work that grows with a parameter before it refuses
    it. A projective space is refused from its order and dimension: an order
    above 4096 before the primality test, a dimension above 12 before the
    exact point count. Orders up to 4096 are still tested for primality
    first."""
    start = time.perf_counter()
    got, out, err = run_cli(capsys, "gen", *argv)
    assert time.perf_counter() - start < 5.0
    assert got == code
    assert out == "" and message in err


@pytest.mark.parametrize("n, d, code", [(BIG, "3", 3), ("10", "1000000", 0), ("10", BIG, 0)])
def test_gen_heavy_free_absurd_parameters(capsys, n, d, code):
    """Too many rows are refused; with more pattern columns than matrix
    columns no pattern can occur, and the draw is returned at once."""
    start = time.perf_counter()
    got, out, err = run_cli(capsys, "gen", "heavy-free", "--n", n, "--d", d)
    assert time.perf_counter() - start < 5.0
    assert got == code
    if code:
        assert out == "" and "n <= 40" in err
    else:
        draw = generators.heavy_dominant_free_random(10, int(d), np.random.default_rng(0))
        assert err == "" and parse_sign_matrix(out) == draw


def test_gen_large_order_skips_the_primality_test(capsys, monkeypatch):
    """Trial division up to the square root of a 14-digit prime is never
    run: the order alone is past the point limit."""
    calls = []
    monkeypatch.setattr(generators, "_is_prime", lambda n: calls.append(n))
    code, out, err = run_cli(capsys, "gen", "line-subset", "--p", "99999999999973")
    assert code == 3
    assert out == "" and "at most 4096" in err
    assert calls == []


def test_gen_planted_intervals_refuse_before_drawing(capsys, monkeypatch):
    """The cell cap is checked from p before any line order is drawn."""
    calls = []
    monkeypatch.setattr(generators, "planted_line_orders", lambda *a: calls.append(a))
    code, out, err = run_cli(capsys, "gen", "intervals", "--p", "61", "--planted")
    assert code == 3
    assert out == "" and "cells" in err
    assert calls == []


def test_gen_planted_intervals_cap_boundary(capsys, monkeypatch):
    """Order 19 is the first plane whose interval class passes the cell cap
    (381 points); with --planted it is refused before any line order is
    drawn."""
    calls = []
    monkeypatch.setattr(generators, "planted_line_orders", lambda *a: calls.append(a))
    code, out, err = run_cli(capsys, "gen", "intervals", "--p", "19", "--planted")
    assert code == 3
    assert out == "" and "interval_class(19)" in err
    assert calls == []


# Per generator, `gen` arguments with one flag it does not read, and that flag.
UNREAD_FLAGS = {
    "signed-identity": (["--n", "3", "--planted"], "--planted"),
    "disjointness": (["--n", "3", "--d", "2"], "--d"),
    "projective": (["--p", "3", "--n", "4"], "--n"),
    "hamming-ball": (["--n", "6", "--d", "2", "--p", "3"], "--p"),
    "grid": (["--n", "4", "--d", "2", "--p", "0"], "--p"),  # a zero is given too
    "intervals": (["--p", "3", "--d", "2"], "--d"),
    "line-subset": (["--p", "3", "--planted"], "--planted"),
    "heavy-free": (["--n", "16", "--d", "3", "--planted", "--seed", "2"], "--planted"),
}


@pytest.mark.parametrize("generator", UNREAD_FLAGS)
def test_gen_refuses_flags_its_generator_does_not_read(capsys, generator):
    """A `gen` flag the chosen generator never reads is refused, not
    dropped, whatever global flags come with it."""
    argv, flag = UNREAD_FLAGS[generator]
    code, out, err = run_cli(capsys, "gen", generator, *argv)
    assert code == 2
    assert out == "" and f"does not read {flag}" in err


def test_enumerate_size_needs_sample(capsys):
    """--size without --sample is refused: the exact census has no class
    size to draw, and would ignore it."""
    code, out, err = run_cli(capsys, "enumerate", "--n", "4", "--d", "2", "--size", "5")
    assert code == 2
    assert out == "" and "--size needs --sample" in err


def test_enumerate_samples_needs_sample(capsys):
    """--samples without --sample is refused rather than dropped; with
    --sample it defaults to 2000 draws."""
    code, out, err = run_cli(capsys, "enumerate", "--n", "3", "--d", "1", "--samples", "5")
    assert code == 2
    assert out == "" and "--samples needs --sample" in err
    code, out, _ = run_cli(capsys, "enumerate", "--n", "3", "--d", "1", "--sample", "--size", "4")
    assert code == 0 and json.loads(out)["samples"] == 2000


def test_enumerate_sample_needs_size(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--n", "4", "--d", "2", "--sample")
    assert code == 2
    assert out == "" and "--sample needs --size" in err


def test_unreadable_input_is_an_input_error(tmp_path, capsys):
    missing = tmp_path / "missing.txt"
    code, out, err = run_cli(capsys, "analyze", str(missing))
    assert code == 2
    assert out == "" and f"cannot read {missing}" in err


def test_sampled_census_size_limit(capsys):
    """A sampled class past the cell cap exits 3 before any draw (62 x 300000
    int64 cells would be about 140 MiB per sample)."""
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "enumerate", "--n", "62", "--d", "1", "--sample",
                             "--size", "300000")
    assert code == 3
    assert out == "" and "cells" in err
    assert time.perf_counter() - start < 5.0


def test_gen_rejects_non_prime(capsys):
    code, _, err = run_cli(capsys, "gen", "projective", "--p", "4")
    assert code == 2
    assert "prime" in err


def test_gen_hamming_ball_names_its_parameter(capsys):
    code, out, err = run_cli(capsys, "gen", "hamming-ball", "--n", "0", "--d", "0")
    assert code == 2
    assert out == "" and "n must be at least 1" in err


def test_gen_missing_parameter(capsys):
    code, _, err = run_cli(capsys, "gen", "signed-identity")
    assert code == 2
    assert "--n" in err


def _planted_intervals(p, rng):
    plane = generators.ProjectiveSpace.build(p, 2)
    return generators.interval_class(p, generators.planted_line_orders(plane, rng)).matrix


# `gen` arguments, and the library call that must give the same matrix when
# handed the generator of the same seed.
GEN_CASES = {
    "signed-identity": (["signed-identity", "--n", "5"], lambda rng: generators.signed_identity(5)),
    "disjointness": (["disjointness", "--n", "3"], lambda rng: generators.disjointness(3)),
    "projective": (["projective", "--p", "3", "--d", "3"], lambda rng: generators.projective_incidence(3, 3)),
    "hamming-ball": (["hamming-ball", "--n", "6", "--d", "2"], lambda rng: generators.hamming_ball(6, 2).matrix),
    "grid": (["grid", "--n", "4", "--d", "2"], lambda rng: generators.grid_hyperplane(4, 2)),
    "intervals": (["intervals", "--p", "3"], lambda rng: generators.interval_class(3).matrix),
    "intervals-planted": (["intervals", "--p", "3", "--planted"], lambda rng: _planted_intervals(3, rng)),
    "line-subset": (["line-subset", "--p", "5"], lambda rng: generators.line_subset_random(5, rng)),
    "heavy-free": (["heavy-free", "--n", "16", "--d", "3"], lambda rng: generators.heavy_dominant_free_random(16, 3, rng)),
    # fewer columns than the pattern needs: the draw is returned as it is
    "heavy-free-narrow": (["heavy-free", "--n", "10", "--d", "12"], lambda rng: generators.heavy_dominant_free_random(10, 12, rng)),
}


@pytest.mark.parametrize("case", GEN_CASES)
def test_gen_matches_library(tmp_path, case):
    argv, build = GEN_CASES[case]
    out = tmp_path / "gen.txt"
    assert main(["gen", *argv, "--seed", "5", "--out", str(out)]) == 0
    assert parse_sign_matrix(out.read_text()) == build(np.random.default_rng(5))


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


def test_bracket_json_schema(tmp_path, capsys):
    matrix = tmp_path / "id4.txt"
    matrix.write_text(generators.signed_identity(4).to_text())
    code, out, _ = run_cli(capsys, "analyze", str(matrix))
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {
        "instance",
        "n_rows",
        "n_cols",
        "vc",
        "dual",
        "lower",
        "upper",
        "bracket",
        "welzl",
        "approx_sign_rank",
    }
    assert doc["bracket"] == [3, 3]
    assert all(set(e) == {"method", "value"} for e in doc["lower"] + doc["upper"])
    assert set(doc["welzl"]) == {"max_sc", "constant_observed"}


def test_reports_name_the_input_not_its_distinct_matrix(tmp_path, capsys):
    """`analyze` and `bounds` report the file's base name and shape, though
    their certificates read the distinct rows and columns: here 12 x 8 with
    duplicated rows and columns, of an 11 x 4 distinct matrix."""
    H = generators.hamming_ball(4, 2).matrix.entries
    doubled = np.hstack((H, H))
    S = signrank.SignMatrix(np.vstack((doubled, doubled[:1])))
    matrix = tmp_path / "doubled.txt"
    matrix.write_text(S.to_text())
    for command in ("analyze", "bounds"):
        code, out, _ = run_cli(capsys, command, str(matrix))
        assert code == 0
        doc = json.loads(out)
        assert (doc["instance"], doc["n_rows"], doc["n_cols"]) == ("doubled.txt", 12, 8)


REPORT_INPUTS = {
    "plane-3": lambda: generators.projective_incidence(3),
    "intervals-3": lambda: generators.interval_class(3).matrix,
    "hamming-8-2": lambda: generators.hamming_ball(8, 2).matrix,
    "line-subset-3": lambda: generators.line_subset_random(3, np.random.default_rng(0)),
}
# (command, input, format, vc.SUBSET_BUDGET or None for the default, exit
# code, sha256 of stdout) at --seed 0. With a budget of one subset the VC
# and dual searches of the plane are both refused.
PINNED_REPORTS = [
    ("analyze", "plane-3", "json", None, 0,
     "9612919c41744ea46fcad89f0088b05899259afe4d97beeeaaa4c8898197dc96"),
    ("analyze", "plane-3", "text", None, 0,
     "3f79eb2873c6a9fe49bc70126accbbfa6ee74a8a762130a0df783e415186605d"),
    ("bounds", "plane-3", "json", None, 0,
     "69dcfd12289c42c02c0a4f10648d15f0f11f9dc01555ca7a3971eec1dd5172d0"),
    ("bounds", "plane-3", "text", None, 0,
     "d1dfb8241b1877f4fa189f2f660c42fe55150aeefb81eb82c3dc46011b7e6038"),
    ("analyze", "intervals-3", "json", None, 0,
     "1cf61de6a0234f7315d183d4715df9df051c3860aca6415a6de0eb200c21b284"),
    ("analyze", "intervals-3", "text", None, 0,
     "13965216250435080865cdf354d7cf4a0fb9c592c873affa87dcce92dd66bd76"),
    ("bounds", "intervals-3", "json", None, 0,
     "592ced0a6ada01043a09b7bad1731e31fd24be8170defef02cb4723775be2e03"),
    ("bounds", "intervals-3", "text", None, 0,
     "f39a6a7956dfb4c7e46c7c7d632ad4f9100cd96549a5ae987112570dc95f7dbf"),
    ("analyze", "hamming-8-2", "json", None, 0,
     "bca11da6a35ed0b53ec980aa3de0b388379ffd7e53a4f0700be4fc0831134e05"),
    ("analyze", "hamming-8-2", "text", None, 0,
     "598d1e747414f035bb861c99a012d6bf4dd2bd8945c71fbc570c863c49f87543"),
    ("bounds", "hamming-8-2", "json", None, 0,
     "c6144300c203dc25797c4d5d557bd374c3f15aa8f98a6f02311a7be8c7ff07f2"),
    ("bounds", "hamming-8-2", "text", None, 0,
     "c27f59ab91ce268ecd2abae1038618565a69f8010443bab5788483218f275a8b"),
    ("analyze", "line-subset-3", "json", None, 0,
     "a0e1d8fd693cd00c6294b614f9b9e312450641a51f3ea7326f5f81d267a8dc69"),
    ("analyze", "line-subset-3", "text", None, 0,
     "4c7fa8c99229f7d5586864a27f5f4155ba6f1be0e4187516df39d254281ad061"),
    ("bounds", "line-subset-3", "json", None, 0,
     "27984cee891df2d790642c2a82057b02d14e99c7d8b6293d5ac53e825e7b5215"),
    ("bounds", "line-subset-3", "text", None, 0,
     "024101d3d73c380063c893e05022e4ee7d373209f973c1b1b826090f321126ac"),
    ("path", "plane-3", "json", None, 0,
     "28394e77dd6e5a59ec9301e35118380e1f112398c63649d1639c19f0d6a36b97"),
    ("path", "plane-3", "text", None, 0,
     "4d16ff39c6e12a56a3f2b0501fe7054186740cd8d64c0291b83a8704fd39949f"),
    ("path", "intervals-3", "json", None, 0,
     "1f73065a3f48890e654a4c8fb84481bb13121e8fa3f77970e046f1513ac08223"),
    ("path", "intervals-3", "text", None, 0,
     "494c75dad743d08c55789a86a8d72503a334c1be3e19f9123fb9cfb00230f1ee"),
    ("path", "hamming-8-2", "json", None, 0,
     "84efd383381eccc278c7fb93877b3dba32cab055c0f52773a26a3ae7db32f28e"),
    ("path", "hamming-8-2", "text", None, 0,
     "fe221597bfb3d2f17d0f8ad896105990ee3c53c1ce676f6c37fd3942f52a0e67"),
    ("path", "line-subset-3", "json", None, 0,
     "97c7ce7cf5ebffbf2fa6c34ab566d300418daf9b2eb1ef4213eec971ebecc32d"),
    ("path", "line-subset-3", "text", None, 0,
     "d3d69bfcba94df111978ef2779e87dd7b2ab90f983479a1dbdfa3dfd55268c3c"),
    ("approx", "plane-3", "json", None, 0,
     "cbb07005a4ede7ae62404f1b08bdb2ec5d6a4823de09c948e135b6ae735ba195"),
    ("approx", "plane-3", "text", None, 0,
     "8ec075f28e764a1177410ee9311e930ecf135a4ebd434d53a328cd1ece54352c"),
    ("approx", "intervals-3", "json", None, 0,
     "feb3af30c9acbe9a1d1293c1d31dab31d6622268e463b865f2667e69035f9442"),
    ("approx", "intervals-3", "text", None, 0,
     "61da2c88bdbe12a660aae0d5c09e46a07b14b2a830e4542f469b976d49da91d5"),
    ("approx", "hamming-8-2", "json", None, 0,
     "9a41606ca706ce78369cc1cd20b723d85d83a69ee4c68b253bdbf9191478aba8"),
    ("approx", "hamming-8-2", "text", None, 0,
     "1b9c5671e16ff58c87cb39ecb5b450929e2072f3346d9cc03faef78065436031"),
    ("approx", "line-subset-3", "json", None, 0,
     "22416bf134f7eefc04b18a28e50f7642964b360e8af75f0785238393868c3b00"),
    ("approx", "line-subset-3", "text", None, 0,
     "af069171bf72968dec01bd3aa39a3075d92e2d82f59762832ccc2d45f9155318"),
    ("analyze", "plane-3", "json", 1, 4,
     "577cdd379d700bf0f528aa3a07fa156c8248761513590343673a8e781a25e55a"),
    ("analyze", "plane-3", "text", 1, 4,
     "55a7b348e5a7829f4990f4fc09c1cbffdfc1858293c1452c172a355f02c2ea67"),
    ("bounds", "plane-3", "json", 1, 4,
     "d9971e1f8858a213bbc66b8a9ef002505bf5b26f86b992085d8bde2e41718ccc"),
    ("bounds", "plane-3", "text", 1, 4,
     "c4bfb943002e0a9f87e0a0bb21a4570f1f7fc14fb44baaec8bbd870d2d4cf6a0"),
]


@pytest.mark.parametrize("command, name, fmt, budget, code, digest", PINNED_REPORTS)
def test_rendered_reports_are_pinned(tmp_path, capsys, monkeypatch, command, name, fmt,
                                     budget, code, digest):
    """Every byte of a rendered report is fixed: a change that moves or
    rebuilds a report must leave these digests as they are."""
    if budget is not None:
        monkeypatch.setattr(vc, "SUBSET_BUDGET", budget)
    matrix = tmp_path / f"{name}.txt"
    matrix.write_text(REPORT_INPUTS[name]().to_text())
    got, out, _ = run_cli(capsys, command, str(matrix), "--seed", "0", "--format", fmt)
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


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


@pytest.mark.parametrize("target, reason", [
    ("missing/x.json", "No such file or directory"),  # no such directory
    ("taken", "Is a directory"),  # an existing directory
])
def test_unwritable_out_is_an_input_error(tmp_path, capsys, target, reason):
    """An --out that cannot be written exits 2 with one line on stderr,
    writes nothing to stdout and leaves no temporary file behind."""
    matrix = tmp_path / "id3.txt"
    assert main(["gen", "signed-identity", "--n", "3", "--out", str(matrix)]) == 0
    (tmp_path / "taken").mkdir()
    out = tmp_path / target
    code, stdout, err = run_cli(capsys, "analyze", str(matrix), "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert err == f"error: cannot write {out}: {reason}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["id3.txt", "taken"]
    assert list((tmp_path / "taken").iterdir()) == []


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_out_file_mode_follows_the_umask(tmp_path, umask, mode):
    """A new --out file gets mode 0666 less the umask, as `open` gives it."""
    matrix, report = tmp_path / "id3.txt", tmp_path / "r.json"
    old = os.umask(umask)
    try:
        assert main(["gen", "signed-identity", "--n", "3", "--out", str(matrix)]) == 0
        assert main(["analyze", str(matrix), "--out", str(report)]) == 0
    finally:
        os.umask(old)
    assert [stat.S_IMODE(p.stat().st_mode) for p in (matrix, report)] == [mode, mode]


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


def test_path_refuses_more_rows_than_the_greedy_holds(tmp_path, capsys):
    """interval_class(13) has 16837 distinct rows, past the greedy's 16384:
    `path` exits 3 without allocating its n x n tables."""
    matrix = tmp_path / "intervals-13.txt"
    assert main(["gen", "intervals", "--p", "13", "--out", str(matrix)]) == 0
    code, out, err = run_cli(capsys, "path", str(matrix))
    assert (code, out) == (3, "")
    assert "16837 x 16837" in err


def test_path_reports_order_when_vc_is_refused(tmp_path, capsys, monkeypatch):
    """A refused VC search leaves `vc` and `constant_observed` out of `path`,
    lists the refusal under `skipped` and exits 4; the order is unchanged."""
    matrix = tmp_path / "grid.txt"
    assert main(["gen", "grid", "--n", "3", "--d", "2", "--out", str(matrix)]) == 0
    code, out, _ = run_cli(capsys, "path", str(matrix), "--seed", "5")
    assert code == 0
    full = json.loads(out)

    def refuse(S):
        raise signrank.SizeLimitError("too many subsets")

    monkeypatch.setattr(signrank.cli, "vc_dimension", refuse)
    code, out, _ = run_cli(capsys, "path", str(matrix), "--seed", "5")
    assert code == 4
    doc = json.loads(out)
    assert doc["skipped"] == [{"method": "vc", "reason": "too many subsets"}]
    assert {k: v for k, v in full.items() if k not in ("vc", "constant_observed")} == {
        k: v for k, v in doc.items() if k != "skipped"
    }


def refuse(S, vc=None):
    raise signrank.SizeLimitError("too many subsets")


def test_analyze_and_bounds_report_when_vc_is_refused(tmp_path, capsys, monkeypatch):
    """A refused VC search no longer aborts `analyze` or `bounds`: each
    writes its report without `vc`, lists the refusal under `skipped` and
    exits 4. The dual, found without the VC cap, and every other key are
    unchanged, except the Welzl constant, which needs the VC dimension."""
    matrix = tmp_path / "p3.txt"
    assert main(["gen", "projective", "--p", "3", "--out", str(matrix)]) == 0
    full = {}
    for command in ("analyze", "bounds"):
        code, out, _ = run_cli(capsys, command, str(matrix), "--seed", "5")
        assert code == 0
        full[command] = json.loads(out)
    assert full["analyze"]["welzl"]["constant_observed"] is not None
    monkeypatch.setattr(signrank.embed, "vc_dimension", refuse)
    for command in ("analyze", "bounds"):
        code, out, _ = run_cli(capsys, command, str(matrix), "--seed", "5")
        assert code == 4
        doc = json.loads(out)
        assert doc.pop("skipped") == [{"method": "vc", "reason": "too many subsets"}]
        expected = {k: v for k, v in full[command].items() if k != "vc"}
        if command == "analyze":
            expected["welzl"] = dict(expected["welzl"], constant_observed=None)
        assert doc == expected


def test_refused_vc_and_dual_leave_lower_end_one(tmp_path, capsys, monkeypatch):
    """On a non-square input with both searches refused no lower bound is
    left: the lower end is 1, and `bounds` names the refusals by its keys."""
    matrix = tmp_path / "grid.txt"
    assert main(["gen", "grid", "--n", "3", "--d", "2", "--out", str(matrix)]) == 0
    monkeypatch.setattr(signrank.embed, "vc_dimension", refuse)
    monkeypatch.setattr(signrank.embed, "dual_sign_rank", refuse)
    code, out, _ = run_cli(capsys, "analyze", str(matrix))
    assert code == 4
    doc = json.loads(out)
    assert doc["lower"] == [] and doc["bracket"][0] == 1
    assert not {"vc", "dual"} & set(doc)
    assert [s["method"] for s in doc["skipped"]] == ["vc", "dual_sign_rank"]
    code, out, _ = run_cli(capsys, "bounds", str(matrix))
    assert code == 4
    doc = json.loads(out)
    assert not {"vc", "dual"} & set(doc)
    assert [s["method"] for s in doc["skipped"]] == ["vc", "dual"]


@pytest.mark.parametrize(
    "S",
    [
        generators.projective_incidence(3),  # regular
        generators.disjointness(3),  # square, not regular
        generators.grid_hyperplane(4, 2),  # not square
    ],
)
def test_bounds_and_analyze_agree(tmp_path, capsys, S):
    """`bounds` and `analyze` read the same lower certificates."""
    matrix = tmp_path / "m.txt"
    matrix.write_text(S.to_text())
    docs = {}
    for command in ("analyze", "bounds"):
        code, out, _ = run_cli(capsys, command, str(matrix))
        assert code == 0
        docs[command] = json.loads(out)
    analyze, bounds = docs["analyze"], docs["bounds"]
    lower = {b["method"]: b["value"] for b in analyze["lower"]}
    assert (bounds["vc"], bounds["dual"]) == (analyze["vc"], analyze["dual"])
    assert lower.pop("dual_sign_rank") == bounds["dual"]
    keys = {"forster": "forster_identity", "spectral": "spectral_lower_bound"}
    assert {keys[m]: v for m, v in lower.items()} == {
        k: bounds[k] for k in keys.values() if k in bounds
    }
    assert len(lower) == (S.n_rows == S.n_cols) + bounds["is_regular"]


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


def test_bounds_computes_the_degree_once(tmp_path, capsys, monkeypatch):
    """`bounds` finds the degree once for its own report and its lower
    certificates; the other two `regularity` calls are the input checks of
    `sigma2_trace_floor` and `regular_upper_bound`. `analyze` makes one."""
    calls = []
    original = signrank.matrix.regularity

    def counting(B):
        calls.append(B.shape)
        return original(B)

    for module in (signrank.cli, signrank.embed, signrank.spectral):
        monkeypatch.setattr(module, "regularity", counting)
    matrix = tmp_path / "p3.txt"
    matrix.write_text(generators.projective_incidence(3).to_text())
    for command, count in (("bounds", 3), ("analyze", 1)):
        calls.clear()
        code, out, _ = run_cli(capsys, command, str(matrix))
        assert code == 0 and json.loads(out)["vc"] == 2
        assert len(calls) == count


def test_each_matrix_is_deduplicated_once(tmp_path, capsys, monkeypatch):
    """`analyze` deduplicates the rows and then the columns once each, and
    `bounds` and `path` the rows once: every later distinct-row check reads
    the answer kept on the matrix."""
    calls = []
    original = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(1) or original(*a, **k))
    matrix = tmp_path / "ls3.txt"
    matrix.write_text(generators.line_subset_random(3, np.random.default_rng(2)).to_text())
    for command, count in (("analyze", 2), ("bounds", 1), ("path", 1)):
        calls.clear()
        code, _, _ = run_cli(capsys, command, str(matrix))
        assert (code, len(calls)) == (0, count)


def test_tol_flag_removed(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["--tol", "1e-9", "enumerate", "--n", "2", "--d", "1"])


def test_approx_command(tmp_path, capsys):
    """approx summarizes the order that path lists, and analyze reports the
    same order, on a VC-1 input and on a Welzl input."""
    inputs = {
        "vc1": ["signed-identity", "--n", "4"],
        "welzl": ["grid", "--n", "4", "--d", "2"],
    }
    for method, gen in inputs.items():
        matrix = tmp_path / f"{method}.txt"
        assert main(["gen", *gen, "--out", str(matrix)]) == 0
        docs = {}
        for command in ("approx", "path", "analyze"):
            code, out, _ = run_cli(capsys, command, str(matrix), "--seed", "3")
            assert code == 0
            docs[command] = json.loads(out)
        approx, path, analyze = docs["approx"], docs["path"], docs["analyze"]
        assert path["method"] == method
        summary = {k: path[k] for k in ("instance", "method", "max_sign_changes")}
        assert approx == {**summary, "approx_sign_rank": path["max_sign_changes"] + 1}
        assert analyze["welzl"] == {
            "max_sc": path["max_sign_changes"],
            "constant_observed": path.get("constant_observed"),
        }
        assert analyze["approx_sign_rank"] == approx["approx_sign_rank"]
    assert json.loads(run_cli(capsys, "approx", str(tmp_path / "vc1.txt"))[1]) == {
        "instance": "vc1.txt",
        "method": "vc1",
        "max_sign_changes": 2,
        "approx_sign_rank": 3,
    }


def test_order_layer_runs_no_vc_search(tmp_path, capsys, monkeypatch):
    """`approx` and the planar embedding never search for shattered sets."""

    def refuse(S):
        raise AssertionError("vc_dimension was called")

    for module in (signrank.cli, signrank.embed, signrank.stabbing, signrank.vc):
        monkeypatch.setattr(module, "vc_dimension", refuse, raising=False)
    matrix = tmp_path / "disj6.txt"
    assert main(["gen", "disjointness", "--n", "6", "--out", str(matrix)]) == 0
    code, out, _ = run_cli(capsys, "approx", str(matrix))
    assert code == 0
    assert json.loads(out)["method"] == "welzl"
    S = generators.signed_identity(1000)
    assert signrank.verify_realization(signrank.embed_vc1(S), S)


@pytest.mark.parametrize("command", ["analyze", "bounds"])
def test_text_format_mirrors_json(tmp_path, capsys, command):
    """--format text prints one `key = value` line per report key, sorted,
    with lists and dicts as one-line key-sorted JSON."""
    matrix = tmp_path / "p3.txt"
    assert main(["gen", "projective", "--p", "3", "--out", str(matrix)]) == 0
    code, out, _ = run_cli(capsys, command, str(matrix))
    assert code == 0
    doc = json.loads(out)
    code, text, _ = run_cli(capsys, command, str(matrix), "--format", "text")
    assert code == 0
    lines = text.splitlines()
    assert [line.split(" = ", 1)[0] for line in lines] == sorted(doc)
    for line in lines:
        key, value = line.split(" = ", 1)
        if isinstance(doc[key], (dict, list)):
            assert value == json.dumps(doc[key], sort_keys=True)
        else:
            assert value == str(doc[key])


def test_global_flags_both_positions(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    assert main(["--seed", "9", "gen", "line-subset", "--p", "3", "--out", str(a)]) == 0
    assert main(["gen", "line-subset", "--p", "3", "--seed", "9", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# The flags every command takes, and each command's own arguments as its
# help names them.
GLOBAL_FLAGS = ("--seed", "--budget", "--out", "--format")
COMMAND_ARGUMENTS = {
    "gen": ("--n", "--d", "--p", "--planted", *signrank.cli._GENERATORS),
    "analyze": ("input",),
    "approx": ("input",),
    "path": ("input",),
    "bounds": ("input",),
    "enumerate": ("--n", "--d", "--sample", "--samples", "--size"),
}


def exit_code(argv):
    with pytest.raises(SystemExit) as stop:
        main(list(argv))
    return stop.value.code


def test_help_names_every_command(capsys):
    assert exit_code(["-h"]) == 0
    out = capsys.readouterr().out
    assert all(word in out for word in (*COMMAND_ARGUMENTS, *GLOBAL_FLAGS))


@pytest.mark.parametrize("command", sorted(COMMAND_ARGUMENTS))
def test_command_help_names_its_flags(capsys, command):
    assert exit_code([command, "-h"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: signrank {command} ")
    assert all(word in out for word in (*COMMAND_ARGUMENTS[command], *GLOBAL_FLAGS))


def parsed(monkeypatch, argv):
    """The namespace `main` hands the command for argv."""
    seen = []
    stub = lambda args: seen.append(vars(args)) or 0
    commands = {name: (stub, *row[1:]) for name, row in signrank.cli._COMMANDS.items()}
    monkeypatch.setattr(signrank.cli, "_COMMANDS", commands)
    assert main(list(argv)) == 0
    return seen[0]


def test_global_flags_parse_the_same_in_both_positions(monkeypatch):
    flags = ["--seed", "3", "--budget", "7", "--out", "r.txt", "--format", "text"]
    expected = dict(command="analyze", input="m.txt", seed=3, budget=7, out="r.txt", format="text")
    assert parsed(monkeypatch, [*flags, "analyze", "m.txt"]) == expected
    assert parsed(monkeypatch, ["analyze", "m.txt", *flags]) == expected
    assert parsed(monkeypatch, [*flags[:4], "analyze", *flags[4:], "m.txt"]) == expected
    # a global flag given twice takes its value after the command
    assert parsed(monkeypatch, ["--seed", "1", "analyze", "m.txt", "--seed", "2"])["seed"] == 2
    assert parsed(monkeypatch, ["bounds", "m.txt"]) == dict(
        command="bounds", input="m.txt", seed=0, budget=400, out=None, format="json"
    )
    assert parsed(monkeypatch, ["--seed", "5", "enumerate", "--n", "4", "--d", "2"]) == dict(
        command="enumerate", n=4, d=2, sample=False, samples=None, size=None,
        seed=5, budget=400, out=None, format="json",
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("--n", "4", "enumerate", "--n", "4", "--d", "2"),  # a command flag before it
        ("frobnicate",),
        ("analyze",),  # no input
        (),
        ("enumerate", "--n", "4"),  # no --d
        ("analyze", "m.txt", "--planted"),  # another command's flag
    ],
)
def test_bad_command_lines_exit_2(capsys, argv):
    assert exit_code(argv) == 2
    assert "usage: signrank" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [("gen", "signed-identity", "--n", "3"), ("--seed", "1", "enumerate", "--n", "3", "--d", "1")],
)
def test_one_call_builds_at_most_two_parsers(capsys, monkeypatch, argv):
    """A call builds the parsers it reads and no others: the global one and
    its command's."""
    built = []
    original = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(list(argv)) == 0
    capsys.readouterr()
    assert len(built) <= 2
