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


def test_pattern_without_k_is_a_usage_error(tmp_path, capsys):
    k = core.validate_sequence([3, 3])
    obj = core.triple_to_json(constructions.known_optimum(k), k)
    del obj["k"]
    path = tmp_path / "nok.json"
    path.write_text(json.dumps(obj))
    assert _usage_error(capsys, ["symmetrise", "--input", str(path)])


def test_q2_rmax_below_two_is_an_error(capsys):
    for rmax in ("0", "1"):
        code, out = run_cli(capsys, ["q2", "--k", "3,3", "--rmax", rmax])
        assert code == 1
        report = json.loads(out)
        assert report["command"] == "error" and report["results"]["error"] == "ErlabError"


def test_report_has_no_threads_key(capsys):
    code, out = run_cli(capsys, ["lp", "--k", "3,3"])
    assert code == 0 and "threads" not in json.loads(out)


@pytest.mark.parametrize(
    "graph", [{"edges": [[1, 2]]}, {"n": 2, "edges": [[1, 5]]}], ids=["no-n", "edge-outside"]
)
@pytest.mark.parametrize(
    "argv", [["capacity", "--k", "3"], ["oracle", "count", "--k", "3,3"]], ids=["capacity", "oracle-count"]
)
def test_bad_graph_is_a_usage_error(tmp_path, capsys, graph, argv):
    path = tmp_path / "bad_graph.json"
    path.write_text(json.dumps(graph))
    assert _usage_error(capsys, argv + ["--graph", str(path)])


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
