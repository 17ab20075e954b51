import csv
import hashlib
from collections import Counter
from fractions import Fraction
import io
import json
import os
import subprocess
import sys

import pytest

from prodfree import ExtractionCertificate, MultSet, build_group, write_set
from prodfree import cli, groups, sets, sumfree
from prodfree.cli import main
from conftest import (
    naive_incident_pairs,
    naive_is_product_free,
    naive_max_product_free_size,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_analyze_reports_diagnostics(capsys, int_group):
    code, out, _ = run_cli(capsys, "analyze", "interval:5")
    assert code == 0
    data = json.loads(out)
    assert data["size"] == 11
    assert data["doubling"] == "21/11"
    assert data["symmetric"] is True and data["has_identity"] is True
    assert data["k"] is None and data["is_k_approx"] is None
    keys = tuple(range(-5, 6))
    assert data["incident_pairs"] == naive_incident_pairs(int_group, keys) == 91
    best = naive_max_product_free_size(int_group, keys)
    assert best == 6  # {-5,-4,-3,3,4,5} is sum-free in the interval
    assert data["max_product_free_size"] == best
    assert data["max_product_free_density"] == "6/11"


def test_analyze_with_k_flag(capsys):
    code, out, _ = run_cli(capsys, "analyze", "interval:5", "--k", "2")
    data = json.loads(out)
    assert code == 0
    assert data["k"] == "2/1"
    assert data["is_k_approx"] is True
    code2, out2, _ = run_cli(capsys, "analyze", "interval:5", "--k", "3/2")
    assert json.loads(out2)["is_k_approx"] is False


def test_analyze_skips_exhaustive_fields_on_large_sets(capsys):
    code, out, _ = run_cli(capsys, "analyze", "interval:30")
    data = json.loads(out)
    assert code == 0
    assert "max_product_free_size" not in data


# (spec, side) -> sha256 of the stdout of `analyze SPEC --k 2 --side SIDE
# --seed 7`: rewrites of the product-set and covering code keep these bytes
FROZEN_ANALYZE_SHA256 = {
    ("heisenberg-ball:11:1", "left"): "fd9bdceada01d4798abb58f53ccef6a677044c7d8464a16c51944ade23319eca",
    ("heisenberg-ball:11:1", "right"): "fd9bdceada01d4798abb58f53ccef6a677044c7d8464a16c51944ade23319eca",
    ("heisenberg-ball:11:1", "two-sided"): "fd9bdceada01d4798abb58f53ccef6a677044c7d8464a16c51944ade23319eca",
    ("heisenberg-ball:11:2", "left"): "63a626a634da8d36fafabfc70595a1f7d4ae510ee77c8a4f7e3d1495e07f3361",
    ("gap:2:10,10:1,100", "left"): "64ca3f98eba2b886ba1309739fc35fb10d7171489bd9b7239819f74016d5c830",
    ("interval:300", "left"): "dfc68d50eae958cd2e487c40378e2f380929ad744e12a8f23c30da979a184996",
    ("random:dihedral:30:16", "left"): "712761d640a078ff3e76a07179fe4e55581be3450ad250fc60f4715625dfa03d",
    ("interval:300", "two-sided"): "dfc68d50eae958cd2e487c40378e2f380929ad744e12a8f23c30da979a184996",
    ("gap:2:5,5:1,20", "right"): "d96a1114ec2c57718e3464cb368aa4d6185aa652bd0a5fbf29402af6430c014e",
    ("random:cyclic:128:20", "left"): "70978c913d91c0e51f8dbeb727a2377d610496aeb41bef4e95ff14c7e856675e",
    ("full-group-minus-identity:abelian:6,10", "two-sided"): "15854a6fa585b164a3d495ff4c8ee59e416efbff78bb4778d0cf21586eefa160",
    ("random:cyclic:100000:100", "left"): "a6a9d8088fce3de8c7694a6ade33a9a2a59fbcfc2c1c554aed8806ebd8104e43",
}


@pytest.mark.parametrize("spec,side", sorted(FROZEN_ANALYZE_SHA256))
def test_analyze_bytes_are_frozen(spec, side, capsys):
    digests = []
    for _ in range(2):
        code, out, _ = run_cli(
            capsys, "analyze", spec, "--k", "2", "--side", side, "--seed", "7"
        )
        assert code == 0
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    assert digests == [FROZEN_ANALYZE_SHA256[spec, side]] * 2


def test_analyze_of_a_sparse_cyclic_set_takes_the_shifted_adds(capsys, monkeypatch, fft_calls):
    # X^2 X, 4915 x 100 keys in Z_100000, is counted by shifted adds of
    # X^2's indicator, and no product transforms the whole box
    calls = []
    shift_counts = sets._shift_counts
    monkeypatch.setattr(
        sets, "_shift_counts", lambda a, b, n: calls.append((len(a), len(b), n)) or shift_counts(a, b, n)
    )
    spec = "random:cyclic:100000:100"
    code, out, _ = run_cli(capsys, "analyze", spec, "--k", "2", "--side", "left", "--seed", "7")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FROZEN_ANALYZE_SHA256[spec, "left"]
    data = json.loads(out)
    square = Fraction(data["doubling"]) * data["size"]
    assert calls == [(square, 100, 100000)]
    assert not fft_calls


# argv -> sha256 of its stdout.  The thm33 certificate (with its trailing
# newline) is the one FROZEN_CERT_SHA256 in test_pipeline.py freezes, and
# the analyze output equals the frozen heisenberg-ball:11:2 one above.
HASH_SEED_RUNS = {
    ("extract", "solvable", "full-group-minus-identity:heisenberg:7"):
        "229700df3b1eb0470e67beb1e68d0c6a15c3d0ff047b3b45a031b022dd5f6ba5",
    ("extract", "thm33", "heisenberg-ball:11:1"):
        "1681a5264357bd44874c668fc144b0ff4c8f4b194f5983dc9d3f6bb735bd0942",
    ("analyze", "heisenberg-ball:11:2", "--k", "2", "--side", "two-sided"):
        FROZEN_ANALYZE_SHA256["heisenberg-ball:11:2", "left"],
}


@pytest.mark.parametrize("argv", sorted(HASH_SEED_RUNS))
def test_output_bytes_do_not_depend_on_the_hash_seed(argv):
    digests = []
    for seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "prodfree.cli", *argv],
            capture_output=True,
            env={**os.environ, "PYTHONHASHSEED": seed},
            check=True,
        )
        digests.append(hashlib.sha256(proc.stdout).hexdigest())
    assert digests == [HASH_SEED_RUNS[argv]] * 2


@pytest.mark.parametrize(
    "spec,budget,message",
    [
        # X^2 has 101^2 = 10201 pairs; the cube X^2 X has 201 x 101
        ("interval:50", "15000", "product pairs 20301 exceed budget 15000"),
        # on the law path: 883 products in X^2, 1331 in X^3
        ("heisenberg-ball:11:2", "1000", "product set grew past budget 1000"),
    ],
)
def test_analyze_budget_bounds_the_uncollected_cube(spec, budget, message, capsys):
    code, out, err = run_cli(capsys, "analyze", spec, "--k", "2", "--budget", budget)
    assert code == 1 and out == "" and message in err


def test_extract_thm33_writes_verifiable_certificate(tmp_path, capsys):
    out_path = tmp_path / "cert.json"
    code, _, _ = run_cli(capsys, "extract", "thm33", "interval:50", "--out", str(out_path))
    assert code == 0
    cert = ExtractionCertificate.load(out_path)
    assert cert.algorithm == "thm33"
    assert cert.params["branch"] == "main"
    assert cert.verified_product_free
    code2, out2, _ = run_cli(capsys, "verify", str(out_path), "interval:50")
    assert code2 == 0
    assert out2.startswith("PASS")


def test_extract_thm33_builds_its_certificate_within_the_given_budget(
    tmp_path, capsys
):
    # the 3201-point witness has 3201^2 > 10^7 pairs, so the certificate
    # needs the flag's budget, not the default one
    out_path = tmp_path / "i10k.json"
    argv = ["thm33", "interval:10000", "--out", str(out_path)]
    code, _, err = run_cli(capsys, "extract", *argv, "--budget", "2000000000")
    assert code == 0, err
    assert ExtractionCertificate.load(out_path).achieved_size == 3201
    code, out, _ = run_cli(
        capsys, "verify", str(out_path), "interval:10000", "--budget", "2000000000"
    )
    assert code == 0 and out.startswith("PASS")
    code, _, err = run_cli(capsys, "extract", *argv)
    assert code == 1 and "exceed budget 10000000" in err


@pytest.mark.parametrize(
    "algorithm,source",
    [
        ("thm33", "interval:50"),
        ("solvable", "full-group-minus-identity(sym:3)"),
        ("alon-kleitman", "full-group-minus-identity(cyclic:13)"),
        ("interval", "cyclic:10"),
        ("greedy", "interval:6"),
        ("exhaustive", "interval:4"),
    ],
)
def test_every_algorithm_honours_the_budget(algorithm, source, capsys):
    # each witness has at least 3 points, so 9 or more pairs
    code, _, err = run_cli(capsys, "extract", algorithm, source, "--budget", "3")
    assert code == 1 and "exceed budget 3" in err


def test_alon_kleitman_refuses_before_the_scan(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "alon_kleitman_weighted", lambda *a, **k: calls.append(a))
    code, _, err = run_cli(
        capsys, "extract", "alon-kleitman", "full-group-minus-identity:cyclic:100000"
    )
    assert code == 1
    assert "25000^2 witness pairs exceed budget 10000000" in err
    assert calls == []


def _one_point(extractor):
    def kept(*args, **kwargs):
        got = extractor(*args, **kwargs)
        return MultSet(got.oracle, got.keys[:1])

    return kept


@pytest.mark.parametrize(
    "algorithm,module,stage",
    [("alon-kleitman", cli, "quarter-weight"), ("solvable", sumfree, "abelian-base[0]")],
)
def test_a_failed_theorem_record_exits_one(algorithm, module, stage, monkeypatch, capsys):
    # an extractor that keeps 1 of the 59 points breaks the quarter bound,
    # a theorem: an error, not an honest miss, and no certificate
    monkeypatch.setattr(
        module, "alon_kleitman_weighted", _one_point(module.alon_kleitman_weighted)
    )
    code, out, err = run_cli(
        capsys, "extract", algorithm, "full-group-minus-identity:abelian:6,10"
    )
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {stage}: '4 * ")


def test_extract_to_stdout(capsys):
    code, out, _ = run_cli(capsys, "extract", "greedy", "interval:6")
    assert code == 0
    data = json.loads(out)
    assert data["algorithm"] == "greedy"
    assert data["verified_product_free"] is True
    assert data["guarantee"] is None


def test_extract_solvable(capsys):
    code, out, _ = run_cli(
        capsys, "extract", "solvable", "full-group-minus-identity(sym:3)"
    )
    assert code == 0
    data = json.loads(out)
    assert data["achieved_size"] == 3
    assert data["guarantee"] == "5/8"
    g = build_group("sym:3")
    assert naive_is_product_free(g, [g.kdecode(t) for t in data["witness"]])


def test_solvable_extract_and_verify_search_each_oracles_generators_once(
    tmp_path, monkeypatch, capsys
):
    # the group, the series' levels, the quotient, and the group again in
    # verify each read their generators many times: the series, the views'
    # checks and abelian flags, the quotient's checks and verify's walk
    searched = []
    real = groups._greedy_generators

    def spy(oracle):
        if oracle._gens is None:
            searched.append(oracle)  # held, so no two share an id
        return real(oracle)

    monkeypatch.setattr(groups, "_greedy_generators", spy)
    source = "full-group-minus-identity:heisenberg:7"
    cert = str(tmp_path / "h.json")
    assert run_cli(capsys, "extract", "solvable", source, "--out", cert)[0] == 0
    assert run_cli(capsys, "verify", cert, source)[:2] == (0, "PASS\n")
    assert max(Counter(map(id, searched)).values()) == 1
    # the series' top view in extract, and the group in verify's walk
    assert sum(o.order == 343 for o in searched) == 2


@pytest.mark.parametrize(
    "spec", ["interval:50", "gap:2:15,15:1,1000", "heisenberg-ball:11:2", "random:sym:5:40"]
)
def test_analyze_counts_the_pairs_of_x_x_once(spec, monkeypatch, capsys):
    # X X's pair counts give both X^2 and the incident pairs, on the sums
    # kernel and the law; sym:5 takes the kmul loop for both
    calls = []
    real = sets._pair_counts

    def spy(a, b, *rest):
        calls.append((len(a), len(b)))
        return real(a, b, *rest)

    monkeypatch.setattr(sets, "_pair_counts", spy)
    code, out, _ = run_cli(capsys, "analyze", spec, "--k", "2")
    x = cli._resolve_source(spec, None)
    assert code == 0
    assert json.loads(out)["incident_pairs"] == naive_incident_pairs(x.oracle, x.keys)
    assert calls.count((len(x), len(x))) == (spec != "random:sym:5:40")


def test_extract_alon_kleitman(capsys):
    code, out, _ = run_cli(
        capsys, "extract", "alon-kleitman", "full-group-minus-identity(cyclic:13)"
    )
    assert code == 0
    data = json.loads(out)
    assert data["algorithm"] == "alon-kleitman"
    assert 4 * data["achieved_size"] >= 12
    assert data["trace"][0]["inequality"] == "4 * a >= b"
    # identity in the input is a usage error for this algorithm
    code2, _, err = run_cli(capsys, "extract", "alon-kleitman", "full-group(cyclic:13)")
    assert code2 == 1 and "error" in err


def test_extract_interval_algorithm(capsys):
    code, out, _ = run_cli(capsys, "extract", "interval", "cyclic:10")
    assert code == 0
    data = json.loads(out)
    assert data["witness"] == ["4", "5", "6"]
    assert data["guarantee"] == "5/2"
    assert data["trace"][0]["stage"] == "interval-density"
    # only a full cyclic group is a valid input
    code2, _, _ = run_cli(capsys, "extract", "interval", "interval:5")
    assert code2 == 1


def test_extract_exhaustive_small(capsys):
    code, out, _ = run_cli(capsys, "extract", "exhaustive", "interval:4")
    assert code == 0
    assert json.loads(out)["achieved_size"] == 4  # {-4..-1} among others


def test_extract_honest_failure_exit_code(tmp_path, capsys):
    out_path = tmp_path / "partial.json"
    code, _, err = run_cli(
        capsys, "extract", "thm33", "cyclic:40", "--out", str(out_path)
    )
    assert code == 2
    assert "not found" in err
    cert = ExtractionCertificate.load(out_path)
    assert cert.params["status"] == "incomplete:halving"
    assert cert.witness == []


def test_extract_delta_flag_changes_profile(tmp_path, capsys):
    out_path = tmp_path / "c.json"
    code, _, _ = run_cli(
        capsys, "extract", "thm33", "interval:50",
        "--delta", "1/3", "--out", str(out_path),
    )
    assert code == 0
    assert ExtractionCertificate.load(out_path).params["delta"] == "1/3"


def test_file_source_round_trip(tmp_path, capsys, int_group):
    path = tmp_path / "input.txt"
    write_set(path, MultSet(int_group, [2, 3, 7, 11]))
    code, out, _ = run_cli(capsys, "extract", "greedy", f"file:{path}")
    assert code == 0
    assert json.loads(out)["achieved_size"] >= 2


def test_verify_fails_on_broken_witness(tmp_path, capsys):
    out_path = tmp_path / "cert.json"
    run_cli(capsys, "extract", "thm33", "interval:8", "--out", str(out_path))
    data = json.loads(out_path.read_text())
    data["witness"] = ["0"]  # 0 + 0 = 0 lands inside the witness
    out_path.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "verify", str(out_path), "interval:8")
    assert code == 1
    assert out.startswith("FAIL")
    assert "not product-free" in out


@pytest.mark.parametrize("group", ["sym:4", "dihedral:12", "abelian:8,8"])
def test_verify_names_the_empty_witness_of_a_miss(group, tmp_path, capsys):
    out_path = tmp_path / "partial.json"
    source = f"full-group:{group}"
    code, _, _ = run_cli(capsys, "extract", "thm33", source, "--out", str(out_path))
    assert code == 2
    code, out, _ = run_cli(capsys, "verify", str(out_path), source)
    assert code == 1
    assert out == (
        "FAIL\n"
        "  - certificate does not claim product-freeness\n"
        "  - witness is empty\n"
    )


def test_verify_fails_on_wrong_input(tmp_path, capsys):
    out_path = tmp_path / "cert.json"
    run_cli(capsys, "extract", "greedy", "interval:6", "--out", str(out_path))
    code, out, _ = run_cli(capsys, "verify", str(out_path), "interval:7")
    assert code == 1
    assert "digest" in out


def test_closed_stdout_is_not_an_error(tmp_path, monkeypatch, capsys):
    def run_into_closed_pipe(*argv):
        # a pipe whose reader is gone, as under `prodfree ... | head -1`;
        # closing the stream stands in for the interpreter's exit-time flush
        r, w = os.pipe()
        os.close(r)
        with open(w, "w") as stream:
            monkeypatch.setattr(sys, "stdout", stream)
            return main(list(argv))

    out_path = tmp_path / "cert.json"
    run_cli(capsys, "extract", "greedy", "interval:6", "--out", str(out_path))
    # the certificate is larger than the stream's buffer
    assert run_into_closed_pipe("extract", "interval", "cyclic:9000") == 0
    assert run_into_closed_pipe("verify", str(out_path), "interval:7") == 1
    assert "error:" not in capsys.readouterr().err


def test_bench_csv_shape(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "interval:20", "interval:50", "--algorithm", "thm33"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["family"] for r in rows] == ["interval:20", "interval:50"]
    for r in rows:
        assert r["algorithm"] == "thm33"
        assert r["error"] == ""
        assert int(r["witness_size"]) >= 1
        assert "/" in r["k"] and "/" in r["density"]
        float(r["time_ms"])


def test_bench_records_row_errors_and_continues(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "full-group(cyclic:13)", "interval:12",
        "--algorithm", "alon-kleitman",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["error"] != ""
    assert rows[1]["error"] != ""  # integers are not a finite abelian group
    code2, out2, _ = run_cli(
        capsys, "bench", "full-group-minus-identity(cyclic:13)",
        "--algorithm", "alon-kleitman",
    )
    rows2 = list(csv.DictReader(io.StringIO(out2)))
    assert rows2[0]["error"] == ""


def test_unknown_source_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "extract", "greedy", "nosuchfamily:5")
    assert code == 1
    assert "error" in err


def test_one_parser_serves_a_usage_error_then_extract_and_verify(
    tmp_path, capsys, monkeypatch
):
    real_build = cli.build_parser
    builds = []

    def counted_build():
        builds.append(1)
        return real_build()

    monkeypatch.setattr(cli, "build_parser", counted_build)
    cli._parser.cache_clear()
    out_path = tmp_path / "cert.json"
    with pytest.raises(SystemExit) as info:
        main(["extract", "nope", "interval:50"])
    out, err = capsys.readouterr()
    assert (info.value.code, out) == (1, "")
    assert "invalid choice: 'nope'" in err
    code, out, _ = run_cli(capsys, "extract", "thm33", "interval:50", "--out", str(out_path))
    assert (code, out) == (0, "")
    code, out, _ = run_cli(capsys, "verify", str(out_path), "interval:50")
    assert (code, out) == (0, "PASS\n")
    assert len(builds) == 1
    cli._parser.cache_clear()


def test_unknown_algorithm_exits_one(capsys):
    with pytest.raises(SystemExit) as info:
        main(["extract", "nope", "interval:5"])
    assert info.value.code == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["extract", "thm33", "interval:5", "--delta", "1/0"],
        ["extract", "thm33", "interval:5", "--alpha", "1/0"],
        ["analyze", "interval:5", "--k", "1/0"],
    ],
)
def test_zero_denominator_fraction_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 1
    assert "invalid Fraction value: '1/0'" in capsys.readouterr().err


def test_missing_certificate_file(capsys):
    code, _, err = run_cli(capsys, "verify", "/nonexistent/cert.json", "interval:5")
    assert code == 1


def test_console_script_wiring():
    proc = subprocess.run(
        [sys.executable, "-m", "prodfree.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    for word in ("analyze", "extract", "verify", "bench"):
        assert word in proc.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "interval:50", "--k", "2"],
        ["analyze", "gap:2:15,15:1,1000", "--k", "2"],
        ["extract", "thm33", "gap:2:15,15:1,1000"],
    ],
)
def test_runs_leave_numpy_ma_unimported(argv):
    # a plain np.unique, also inside np.isin, imports numpy.ma on its first
    # call (about 7 ms in a fresh process); the gap builder, the fold and
    # the incident-pair count do without it
    script = (
        "import contextlib, io, sys\n"
        "from prodfree.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        "print(code, 'numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    assert proc.stdout.split() == ["0", "False"]
