import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from erlab import cli, constructions, core
from erlab.graphs import graph_to_json, turan_graph


def run_cli(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, out


def test_usage_error_exits_1(capsys):
    assert cli.run(["nonsense"]) == 1
    assert cli.run(["q2"]) == 1  # missing --k
    assert cli.run(["lp", "--k", "3"]) == 1  # single colour is a domain error


def test_q2_report(capsys):
    code, out = run_cli(capsys, ["q2", "--k", "3,3", "--rmax", "5"])
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == "er-lab/1"
    assert report["results"]["best"]["symbolic"] == "1/2"
    assert report["results"]["best"]["exact"] is True
    assert all(report["results"]["exhaustive"].values())


def test_verify_roundtrip(tmp_path, capsys):
    k = core.validate_sequence([3, 3, 3, 3])
    t = constructions.known_optimum(k)
    path = tmp_path / "opt.json"
    path.write_text(json.dumps(core.triple_to_json(t, k)))
    code, out = run_cli(capsys, ["verify", "--pattern", str(path)])
    assert code == 0
    report = json.loads(out)
    assert report["results"]["passed"]
    # report JSON round-trips
    assert json.loads(json.dumps(report)) == report


def test_verify_failure_exits_2(tmp_path, capsys):
    k = core.validate_sequence([3, 3])
    p = core.ColourPattern(2, {(0, 1): {1, 2}})
    t = core.FeasibleTriple(p, (Fraction(1, 4), Fraction(3, 4)), level=2)
    path = tmp_path / "skew.json"
    path.write_text(json.dumps(core.triple_to_json(t, k)))
    code, out = run_cli(capsys, ["verify", "--pattern", str(path)])
    assert code == 2
    assert not json.loads(out)["results"]["passed"]


def test_verify_report_lists_three_checks(tmp_path, capsys):
    k = core.validate_sequence([3, 3])
    p = core.ColourPattern(2, {(0, 1): {1, 2}})
    for alpha, passed in [((Fraction(1, 2),) * 2, True), ((Fraction(1, 4), Fraction(3, 4)), False)]:
        path = tmp_path / "pattern.json"
        path.write_text(json.dumps(core.triple_to_json(core.FeasibleTriple(p, alpha, level=2), k)))
        code, out = run_cli(capsys, ["verify", "--pattern", str(path)])
        results = json.loads(out)["results"]
        assert sorted(results["checks"]) == ["all_weights_positive", "feasible_level2", "stationary"]
        assert results["passed"] is passed and code == (0 if passed else 2)


def test_extension_report(capsys):
    code, out = run_cli(capsys, ["extension", "--k", "5,3"])
    assert code == 0
    report = json.loads(out)
    assert report["results"]["holds"] is True
    assert report["results"]["strong"] is False


def test_capacity_report(tmp_path, capsys):
    path = tmp_path / "k3.json"
    from erlab.graphs import complete_graph

    path.write_text(json.dumps(graph_to_json(complete_graph(3))))
    code, out = run_cli(capsys, ["capacity", "--graph", str(path), "--k", "4"])
    assert code == 0
    assert json.loads(out)["results"]["kind"] == "OnlyOnes"


def test_lp_and_certify(capsys):
    code, out = run_cli(capsys, ["lp", "--k", "3,3,3,3"])
    assert code == 0
    report = json.loads(out)
    assert report["results"]["d"] == ["1/4", "1/2", "0/1"]
    assert report["results"]["unique"] is True

    code, out = run_cli(capsys, ["certify", "--k", "4,4,4,4"])
    assert code == 0
    report = json.loads(out)
    assert report["results"]["verdict"] == "EXACT"
    assert report["certificates"][0]["lower"]["symbolic"] == "8/9·log2(3)"

    # dropping the tightening constraint must be detected as a gap
    code, out = run_cli(
        capsys, ["certify", "--k", "5,3", "--constraint", "T=2:cap=7"]
    )
    assert code == 2


def test_certify_with_a_constraint_the_construction_breaks_is_an_error(capsys):
    code, out = run_cli(capsys, ["certify", "--k", "3,3,3,3", "--constraint", "T=2,3:cap=3"])
    assert code == 1
    report = json.loads(out)
    assert report["command"] == "error"
    assert report["results"]["error"] == "InvalidConstraint"


def _error(capsys, argv) -> str:
    code, out = run_cli(capsys, argv)
    report = json.loads(out)
    assert code == 1 and report["command"] == "error"
    assert report["results"]["error"] == "InvalidConstraint"
    return report["results"]["message"]


def test_certify_refuses_a_constraint_the_scan_refutes(tmp_path, capsys):
    # a 5-vertex level-2 pattern whose pairs all carry two colours refutes
    # ({2,3}, 5) for (5,5,5), though the built-in construction keeps it
    message = _error(capsys, ["certify", "--k", "5,5,5", "--constraint", "T=2,3:cap=5"])
    assert "T=[2, 3], k'=5 is refuted" in message
    # the q2 optimum of (5,5,3) on four vertices keeps ({2}, 3), which three
    # vertices with colours {1,2} on every pair refute
    code, out = run_cli(capsys, ["q2", "--k", "5,5,3", "--rmax", "4"])
    path = tmp_path / "opt.json"
    path.write_text(json.dumps(json.loads(out)["results"]["optima"][0]))
    argv = ["certify", "--k", "5,5,3", "--construction", str(path),
            "--constraint", "T=2:cap=3", "--constraint", "T=3:cap=3"]
    message = _error(capsys, argv)
    assert "T=[2], k'=3 is refuted" in message and "[1, 2, [1, 2]]" in message


def test_vacuous_constraint_is_an_error(capsys):
    for argv in (["lp", "--k", "3,3", "--constraint", "T=5:cap=3"],
                 ["certify", "--k", "4,3", "--constraint", "T=9:cap=3"]):
        assert "vacuous" in _error(capsys, argv)


def test_oracle_commands(tmp_path, capsys):
    path = tmp_path / "k33.json"
    path.write_text(json.dumps(graph_to_json(turan_graph(2, 6))))
    code, out = run_cli(capsys, ["oracle", "count", "--graph", str(path), "--k", "3,3"])
    assert code == 0
    assert json.loads(out)["results"]["count"] == "512"

    k = core.validate_sequence([3, 3])
    t = constructions.known_optimum(k)
    tpath = tmp_path / "t.json"
    tpath.write_text(json.dumps(core.triple_to_json(t, k)))
    code, out = run_cli(capsys, ["oracle", "blowup", "--input", str(tpath), "--n", "6"])
    assert code == 0
    assert json.loads(out)["results"]["count"] == "512"


def test_oracle_blowup_refuses_a_count_too_large_to_print(tmp_path, capsys):
    # the two-vertex (3,3) pattern with pair {1,2} and weights 1/2 has
    # 2^(n^2/4) blow-up colourings: 3,011 digits at n = 200, 6,774 at
    # n = 300, more than int-to-str conversion accepts
    k = core.validate_sequence([3, 3])
    path = tmp_path / "t.json"
    path.write_text(json.dumps(core.triple_to_json(constructions.known_optimum(k), k)))
    code, out = run_cli(capsys, ["oracle", "blowup", "--input", str(path), "--n", "200"])
    assert code == 0
    assert json.loads(out)["results"]["count"] == str(2**10000)
    code = cli.run(["oracle", "blowup", "--input", str(path), "--n", "300"])
    out, err = capsys.readouterr()
    assert code == 1
    assert err == ""
    report = json.loads(out)
    assert report["command"] == "error"
    assert report["results"]["error"] == "TooLarge"


def test_symmetrise_command(tmp_path, capsys):
    k = core.validate_sequence([3, 3])
    p = core.ColourPattern(3, {(0, 1): {1, 2}, (0, 2): {1}, (1, 2): {2}})
    t = core.FeasibleTriple(p, (Fraction(1, 3),) * 3)
    path = tmp_path / "t.json"
    path.write_text(json.dumps(core.triple_to_json(t, k)))
    code, out = run_cli(capsys, ["symmetrise", "--input", str(path)])
    assert code == 0
    report = json.loads(out)
    assert report["results"]["monotone"] is True
    assert report["results"]["final"]["r"] == 2


def test_tables_deterministic_and_exact(capsys):
    code1, out1 = run_cli(capsys, ["tables"])
    code2, out2 = run_cli(capsys, ["tables"])
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical
    rows = json.loads(out1)["results"]["rows"]
    assert len(rows) == 15
    assert all(row["verdict"] == "EXACT" for row in rows)
    by_k = {tuple(row["k"]): row["value"]["symbolic"] for row in rows}
    assert by_k[(3, 3, 3, 3)] == "1/4 + 1/2·log2(3)"
    assert by_k[(6, 6)] == "4/5"


def test_tsv_format(capsys):
    code, out = run_cli(capsys, ["lp", "--k", "3,3", "--format", "tsv"])
    assert code == 0
    lines = dict(
        line.split("\t", 1) for line in out.strip().splitlines()
    )
    assert lines["schema"] == "er-lab/1"
    assert lines["results.d[0]"] == "1/2"


def _usage_error(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code == 1 and captured.out == "" and captured.err.startswith("usage error:")


def test_oracle_count_without_k_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "k33.json"
    path.write_text(json.dumps(graph_to_json(turan_graph(2, 6))))
    assert _usage_error(capsys, ["oracle", "count", "--graph", str(path)])


def test_oracle_extremal_without_n_is_a_usage_error(capsys):
    assert _usage_error(capsys, ["oracle", "extremal", "--k", "3,3"])


def test_negative_n_is_a_usage_error(tmp_path, capsys):
    k = core.validate_sequence([3, 3])
    path = tmp_path / "opt.json"
    path.write_text(json.dumps(core.triple_to_json(constructions.known_optimum(k), k)))
    assert _usage_error(capsys, ["oracle", "extremal", "--n", "-1", "--k", "3,3"])
    assert _usage_error(capsys, ["oracle", "blowup", "--n", "-3", "--input", str(path)])
    # the file is a valid input: n = 0 is accepted
    assert run_cli(capsys, ["oracle", "blowup", "--n", "0", "--input", str(path)])[0] == 0


def test_negative_budget_is_a_usage_error(capsys):
    assert _usage_error(capsys, ["q2", "--k", "3,3", "--budget", "-5"])


def test_oracle_blowup_without_input_is_a_usage_error(capsys):
    assert _usage_error(capsys, ["oracle", "blowup", "--n", "6"])


def test_malformed_json_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert _usage_error(capsys, ["verify", "--pattern", str(path)])


@pytest.mark.parametrize(
    "argv",
    [["capacity", "--k", "3", "--graph"], ["verify", "--pattern"], ["certify", "--k", "3,3", "--construction"]],
    ids=["capacity", "verify", "certify"],
)
def test_unreadable_input_is_a_usage_error(tmp_path, capsys, monkeypatch, argv):
    # a directory, a file that is not text, a missing file and one that cannot be opened
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00")
    for path in (tmp_path, binary, tmp_path / "missing.json"):
        assert _usage_error(capsys, argv + [str(path)]), path

    def refuse(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(cli, "open", refuse, raising=False)
    assert _usage_error(capsys, argv + [str(binary)])


def test_pattern_without_k_is_a_usage_error(tmp_path, capsys):
    k = core.validate_sequence([3, 3])
    obj = core.triple_to_json(constructions.known_optimum(k), k)
    del obj["k"]
    path = tmp_path / "nok.json"
    path.write_text(json.dumps(obj))
    assert _usage_error(capsys, ["symmetrise", "--input", str(path)])


@pytest.mark.parametrize(
    "fields",
    [{"pairs": [[1, 2]]}, {"r": "two"}, {"alpha": ["x", "y"]}, {"pairs": 5},
     {"r": 2.9, "pairs": [[1, 2.5, [1, 2]]], "level": 0.7}, {"level": 0.7}, {"pairs": [[True, 2, [1, 2]]]},
     {"pairs": [[1, 2, [1.5, 2]]]}],
    ids=["pair-without-colours", "r-not-an-integer", "alpha-not-a-number", "pairs-not-a-list", "fractional",
         "level-fractional", "pair-index-true", "colour-fractional"],
)
def test_malformed_pattern_is_a_usage_error(tmp_path, capsys, fields):
    path = tmp_path / "bad_pattern.json"
    path.write_text(json.dumps({"k": [3, 3], "r": 2, **fields}))
    for argv in (["verify", "--pattern"], ["symmetrise", "--input"], ["extension", "--k", "3,3", "--opt"]):
        assert _usage_error(capsys, argv + [str(path)]), argv


def test_q2_rmax_below_two_is_an_error(capsys):
    for rmax in ("0", "1"):
        code, out = run_cli(capsys, ["q2", "--k", "3,3", "--rmax", rmax])
        assert code == 1
        report = json.loads(out)
        assert report["command"] == "error" and report["results"]["error"] == "ErlabError"


def test_q2_more_than_eight_colours_is_an_error(capsys):
    # colour masks are bytes, so the search takes at most 8 colours
    for entries in ("3,3,3,3,3,3,3,3,3", "4,3,3,3,3,3,3,3,3,3"):
        code, out = run_cli(capsys, ["q2", "--k", entries, "--rmax", "2"])
        assert code == 1
        report = json.loads(out)
        assert report["command"] == "error" and report["results"]["error"] == "ErlabError"
        assert "at most 8" in report["results"]["message"]


def test_non_integer_clique_order_is_an_error(tmp_path, capsys):
    k = core.validate_sequence([3, 3])
    pattern = core.triple_to_json(constructions.known_optimum(k), k)
    path = tmp_path / "pattern.json"
    for entries in ([3.5, 3], [3.0, 3], ["3", 3]):
        path.write_text(json.dumps({**pattern, "k": entries}))
        code, out = run_cli(capsys, ["verify", "--pattern", str(path)])
        assert code == 1, entries
        assert json.loads(out)["results"]["error"] == "ErlabError", entries


def test_report_has_no_threads_key(capsys):
    code, out = run_cli(capsys, ["lp", "--k", "3,3"])
    assert code == 0 and "threads" not in json.loads(out)


@pytest.mark.parametrize(
    "graph",
    [{"edges": [[1, 2]]}, {"n": 2, "edges": [[1, 5]]}, {"n": 3.9, "edges": [[1, 2.7], [True, 3]]},
     {"n": 3, "edges": [[True, 3]]}, {"n": "3", "edges": []}],
    ids=["no-n", "edge-outside", "fractional", "edge-end-true", "n-a-string"],
)
@pytest.mark.parametrize(
    "argv", [["capacity", "--k", "3"], ["oracle", "count", "--k", "3,3"]], ids=["capacity", "oracle-count"]
)
def test_bad_graph_is_a_usage_error(tmp_path, capsys, graph, argv):
    path = tmp_path / "bad_graph.json"
    path.write_text(json.dumps(graph))
    assert _usage_error(capsys, argv + ["--graph", str(path)])


# json reads Infinity as inf, and 1e400 too: int() and Fraction() of it
# raise OverflowError, which must end as a usage error like NaN does
@pytest.mark.parametrize(
    "text", ['{"n": Infinity, "edges": [[1, 2]]}', '{"n": 3, "edges": [[1, 1e400]]}'], ids=["n-infinite", "edge-1e400"]
)
@pytest.mark.parametrize(
    "argv", [["capacity", "--k", "3"], ["oracle", "count", "--k", "3,3"]], ids=["capacity", "oracle-count"]
)
def test_non_finite_graph_is_a_usage_error(tmp_path, capsys, text, argv):
    path = tmp_path / "inf_graph.json"
    path.write_text(text)
    assert _usage_error(capsys, argv + ["--graph", str(path)])


@pytest.mark.parametrize(
    "fields",
    ['"r": 1e400', '"r": 2, "alpha": [Infinity, 0]', '"r": 2, "alpha": ["1/2", -1e400]', '"r": 2, "level": Infinity',
     '"r": 2, "pairs": [[1, Infinity, [1, 2]]]', '"r": 2, "alpha": [NaN, 1]'],
    ids=["r-1e400", "alpha-infinite", "alpha-1e400", "level-infinite", "pair-infinite", "alpha-nan"],
)
def test_non_finite_pattern_is_a_usage_error(tmp_path, capsys, fields):
    path = tmp_path / "inf_pattern.json"
    path.write_text('{"k": [3, 3], ' + fields + "}")
    for argv in (
        ["verify", "--pattern"],
        ["symmetrise", "--input"],
        ["extension", "--k", "3,3", "--opt"],
        ["certify", "--k", "3,3", "--construction"],
        ["oracle", "blowup", "--n", "4", "--input"],
    ):
        assert _usage_error(capsys, argv + [str(path)]), argv


def test_oracle_extremal_refuses_too_many_colourings(capsys):
    # seven colours on K_5: 7^10 colourings, the first edge count over the guard
    code, out = run_cli(capsys, ["oracle", "extremal", "--n", "5", "--k", "3,3,3,3,3,3,3"])
    assert code == 1
    report = json.loads(out)
    assert report["command"] == "error"
    assert report["results"] == {"error": "TooLarge", "message": "7^10 colourings is beyond the brute-force guard"}


def _report_without_timing(capsys, argv, fresh=False):
    if fresh:
        cli.build_parser.cache_clear()
    code = cli.run(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    if report is not None:
        report.pop("timing")
    return code, report, captured.err


def test_successive_runs_share_no_parser_state(capsys):
    # the parser is built once per process; each run must still give the
    # report of a run in a fresh process
    twice = ["lp", "--k", "3,3", "--constraint", "T=2:cap=3", "--constraint", "T=2:cap=4"]
    sequences = [
        [twice, ["lp", "--k", "3,3"], twice],
        [["q2", "--k", "3,3", "--rmax", "x"], ["q2", "--k", "3,3", "--rmax", "3"]],
        [["nonsense"], ["lp", "--k", "3,3", "--bare"]],
    ]
    outcomes = []
    for sequence in sequences:
        fresh = [_report_without_timing(capsys, argv, fresh=True) for argv in sequence]
        cli.build_parser.cache_clear()
        shared = [_report_without_timing(capsys, argv) for argv in sequence]
        assert shared == fresh
        outcomes.append(shared)
    assert len(outcomes[0][0][1]["results"]["constraints"]) == 2
    assert outcomes[0][1][1]["results"]["constraints"] == []  # (3,3) recommends none
    for usage_error, valid in outcomes[1:]:
        assert usage_error[0] == 1 and usage_error[2].startswith("usage error")
        assert valid[0] == 0 and valid[1]["command"] in ("q2", "lp")


def test_error_report_names_subcommand_and_inputs(capsys):
    code, out = run_cli(capsys, ["q2", "--k", "3,3", "--rmax", "0"])
    assert code == 1
    report = json.loads(out)
    assert report["command"] == "error"
    assert report["inputs"] == {
        "subcommand": "q2", "k": "3,3", "rmax": 0, "budget": 10**8, "format": "json"
    }


def test_error_report_follows_format(capsys):
    code, out = run_cli(capsys, ["q2", "--k", "3,3", "--rmax", "0", "--format", "tsv"])
    assert code == 1
    lines = dict(line.split("\t", 1) for line in out.strip().splitlines())
    assert lines["command"] == "error"
    assert lines["results.error"] == "ErlabError"
    assert lines["inputs.subcommand"] == "q2" and lines["inputs.format"] == "tsv"


@pytest.mark.parametrize(
    "argv", [["tables", "--format", "tsv"], ["q2", "--k", "3,3", "--rmax", "0"]], ids=["tables", "error"]
)
def test_closed_stdout_gives_no_traceback(argv):
    # the console entry point with a reader that has already gone: every
    # write to standard output fails with EPIPE
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", "from erlab.cli import main; main()", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr, proc.stderr
