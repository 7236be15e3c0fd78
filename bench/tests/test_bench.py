"""Tests for the benchmark's own code: tracing arithmetic, the checker,
the seeded generators and traced/untraced agreement."""

import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))
sys.path.insert(0, BENCH_DIR)

import erlab.cli  # noqa: E402,F401
from erlab import core, graphs  # noqa: E402

import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import Op, Outcome, Workload, run_op  # noqa: E402

REFERENCE = worker.load_reference()


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_nested_call_tree():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def leaf():
        clock.now += 2

    def mid():
        clock.now += 1
        leaf()
        leaf()
        clock.now += 1

    def top():
        clock.now += 3
        mid()
        leaf()

    leaf = tracer.wrap("leaf", leaf, hot=True)
    mid = tracer.wrap("mid", mid, hot=False)
    top = tracer.wrap("top", top, hot=False)
    top()
    s = tracer.stats
    assert (s["top"].calls, s["top"].total, s["top"].self_time) == (1, 11, 3)
    assert (s["mid"].calls, s["mid"].total, s["mid"].self_time) == (1, 6, 2)
    assert (s["leaf"].calls, s["leaf"].total, s["leaf"].self_time) == (3, 6, 6)
    assert tracer.attributed() == clock.now  # self times add up to the wall time
    top_span, mid_span = tracer.spans  # the hot leaf keeps no spans
    assert (top_span["name"], top_span["parent"]) == ("top", None)
    assert (mid_span["name"], mid_span["parent"]) == ("mid", top_span["id"])
    assert (mid_span["start"], mid_span["end"]) == (3, 9)


def test_self_time_survives_exceptions():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def fails():
        clock.now += 1
        raise ValueError

    def outer():
        try:
            fails()
        except ValueError:
            clock.now += 1

    fails = tracer.wrap("fails", fails)
    outer = tracer.wrap("outer", outer)
    outer()
    assert tracer.stats["fails"].self_time == 1
    assert tracer.stats["outer"].self_time == 1


def test_checker_accepts_seed_output_and_rejects_tampering():
    q2 = run_op(Op("q2", "q2 k=4,3 rmax=6", ["q2", "--k", "4,3", "--rmax", "6"]))
    assert worker.check([q2], REFERENCE) == []

    def tampered(edit):
        report = q2.report()
        edit(report["results"])
        return [Outcome(q2.op, q2.code, json.dumps(report))]

    def shift_best(res):
        res["best_numeric"] = "0.500000000010000"

    def drop_optimum(res):
        res["optima"] = []

    def flip_flag(res):
        res["exhaustive"]["6"] = False

    for edit in (shift_best, drop_optimum, flip_flag):
        assert len(worker.check(tampered(edit), REFERENCE)) == 1
    wrong_code = Outcome(q2.op, 2, q2.text)
    assert len(worker.check([wrong_code], REFERENCE)) == 1
    crashed = Outcome(q2.op, None, "", "Traceback ...\nKeyError: 'k'")
    assert len(worker.check([crashed], REFERENCE)) == 1

    # timing and threads are ignored
    report = q2.report()
    report["timing"], report["threads"] = {"seconds": 99.0}, 7
    assert worker.check([Outcome(q2.op, 0, json.dumps(report))], REFERENCE) == []


def test_checker_compares_capacity_in_canonical_labels(tmp_path):
    workload = Workload("capacity-sweep", 3, str(tmp_path), REFERENCE)
    op = next(o for o in workload.ops if o.key.startswith("capacity n=5") and o.key.endswith("k=6"))
    outcome = run_op(op)
    assert worker.check([outcome], REFERENCE) == []
    report = outcome.report()
    report["results"]["max_vectors"][0][0] += 1
    tampered = Outcome(op, 0, json.dumps(report))
    assert len(worker.check([tampered], REFERENCE)) == 1


def _inputs(workload):
    files = {}
    for name in sorted(os.listdir(workload.workdir)):
        with open(os.path.join(workload.workdir, name)) as fh:
            files[name] = json.load(fh)
    return {"keys": [op.key for op in workload.ops], "labels": [op.labels for op in workload.ops], "files": files}


def _sizes(files):
    return sorted((g["n"], len(g["edges"])) for g in files.values())


def test_generators_are_deterministic_and_work_stable(tmp_path):
    for name in ("capacity-sweep", "oracle-bruteforce"):
        runs = {}
        for label, seed in (("a", 11), ("b", 11), ("c", 12)):
            path = tmp_path / f"{name}-{label}"
            path.mkdir()
            runs[label] = _inputs(Workload(name, seed, str(path), REFERENCE))
        assert runs["a"] == runs["b"]
        assert runs["a"]["files"] != runs["c"]["files"]
        # another seed runs the same strata: same operations on graphs of the same sizes
        assert runs["a"]["keys"] == runs["c"]["keys"]
        assert _sizes(runs["a"]["files"]) == _sizes(runs["c"]["files"])


def test_every_generated_operation_has_a_reference(tmp_path):
    for seed in (0, 1, 2):
        workload = Workload("oracle-bruteforce", seed, str(tmp_path), REFERENCE)
        assert all(worker.reference_key(op) in REFERENCE["ops"] for op in workload.ops)


def test_traced_and_untraced_passes_give_identical_reports(tmp_path):
    workload = Workload("table-certify", 0, str(tmp_path), REFERENCE)
    workload.ops = [op for op in workload.ops if "4,4,4,4" not in op.key and op.kind != "tables"][:12]
    workload.ops.append(Op("q2", "q2 k=4,3 rmax=6", ["q2", "--k", "4,3", "--rmax", "6"]))
    original = core.has_clique
    plain = workload.run_pass()
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert core.has_clique is not original
        traced = workload.run_pass(tracer)
    assert core.has_clique is original and graphs.has_clique is original
    assert [worker.normalised(o) for o in plain] == [worker.normalised(o) for o in traced]
    assert worker.check(plain, REFERENCE) == [] and worker.check(traced, REFERENCE) == []
    metrics = worker.layer_metrics(tracer, 1.0, 1.0, traced)
    assert metrics["graphs.has_clique.calls"] > 0
    assert metrics["extension.enumerate_optimal_attachments.calls"] == 4
    assert metrics["search.solve_Q2.calls"] == 1
    assert all(span["op"] for span in tracer.spans)
