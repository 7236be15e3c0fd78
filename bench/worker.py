"""One workload in one fresh process: set up, run timed passes, check.

Started by ``run.py`` with the thread and hash-seed environment pinned.
Prints one JSON object on its last line of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time

from checking import agree, frozen, graph_code
from tracing import Tracer, installed
from workloads import Workload

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(BENCH_DIR, "reference.json")


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def reference_key(op) -> str:
    """The reference entry's key; a random count graph is keyed by its
    isomorphism class."""
    if op.graph is None:
        return op.key
    return f"{op.key} code={graph_code(op.graph)}"


def check(outcomes, reference: dict) -> list[str]:
    """One failure message per outcome that misses its reference."""
    failures = []
    for outcome in outcomes:
        op = outcome.op
        ref = reference["ops"].get(reference_key(op))
        if ref is None:
            failures.append(f"{op.key}: no reference answer")
        elif outcome.error is not None:
            failures.append(f"{op.key}: raised {outcome.error.strip().splitlines()[-1]}")
        elif outcome.code != ref["code"]:
            failures.append(f"{op.key}: exit code {outcome.code}, expected {ref['code']}")
        else:
            try:
                got = frozen(op.kind, outcome.report(), op.labels)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                failures.append(f"{op.key}: unreadable report ({exc!r})")
                continue
            if not agree(op.kind, got, ref["fields"]):
                failures.append(f"{op.key}: result differs from the reference")
    return failures


def normalised(outcome):
    """The report without its timing keys, for comparing two passes."""
    if outcome.error is not None:
        return ("error", outcome.error.strip().splitlines()[-1])
    try:
        report = outcome.report()
    except ValueError:
        return ("text", outcome.text)
    if isinstance(report, dict):
        report.pop("timing", None)
        report.pop("threads", None)
    return (outcome.code, report)


class SpeedProbe:
    """Samples the processor's current speed.

    On a shared host the same pass can take 40 % longer from one minute to
    the next.  During a pass, a signal handler times a fixed integer loop
    every ``INTERVAL_S`` seconds on the benchmark's own thread; the pass
    time net of the probes, scaled by ``REFERENCE_S`` over the mean probe
    time, is the time the pass would take at the reference speed.
    """

    ITERATIONS = 20_000
    REFERENCE_S = 0.002  # about the loop's time on the 2-core Xeon VM of the baseline
    INTERVAL_S = 0.1

    def __init__(self):
        self.samples: list[float] = []

    @classmethod
    def loop(cls) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(cls.ITERATIONS):
            total += i * i % 7
        return time.perf_counter() - start

    @classmethod
    def factor_now(cls, samples: int = 25) -> float:
        """Reference over current speed, from ``samples`` loops in a row."""
        return cls.REFERENCE_S / statistics.mean(cls.loop() for _ in range(samples))

    def _sample(self, signum, frame):
        self.samples.append(self.loop())

    def __enter__(self):
        self.samples.clear()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def normalise(self, seconds: float) -> float:
        """``seconds`` measured under the probe, net of it, at reference speed."""
        if not self.samples:
            return seconds
        return (seconds - sum(self.samples)) * self.REFERENCE_S / statistics.mean(self.samples)


def timed_pass(workload, tracer=None, probe=None):
    gc.collect()
    with probe or contextlib.nullcontext():
        wall0, cpu0 = time.perf_counter(), time.process_time()
        outcomes = workload.run_pass(tracer)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return wall, cpu, outcomes


def git_revision(root: str):
    """HEAD of the checkout's git repository, read without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: str, seed: int) -> dict:
    import numpy

    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": git_revision(root),
        "pinned": {
            name: os.environ.get(name)
            for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "PYTHONHASHSEED")
        },
    }


def _report_bytes(outcome) -> int:
    """Bytes of the rendered report without its timing keys, whose digits
    vary from run to run."""
    return len(json.dumps(normalised(outcome)[1], indent=2, sort_keys=True).encode())


def layer_metrics(tracer, traced_wall: float, untraced_wall: float, outcomes) -> dict:
    stats = tracer.stats
    metrics = {}
    for name, stat in stats.items():
        metrics[f"{name}.calls"] = stat.calls
        metrics[f"{name}.self_s"] = stat.self_time

    def ratio(a, b):
        return a / b if b else 0.0

    classes = stats["search.enumerate_patterns"].work
    has_clique = stats["graphs.has_clique"]
    metrics.update(
        {
            "search.classes": classes,
            "search.nodes": stats["search.solve_Q2"].work,
            "search.class_yield": ratio(classes, stats["search.canonical_code"].calls),
            "weights.solve_ratio": ratio(stats["weights.optimize_weights"].calls, classes),
            "graphs.has_clique.hit_ratio": ratio(has_clique.work, has_clique.calls),
            "extension.attachments": stats["extension.enumerate_optimal_attachments"].work,
            "lp.vertex_count": stats["lp.solve_L"].work,
            "capacity.max_vectors": stats["capacity.capacity"].work,
            "oracle.classes_examined": stats["oracle.extremal_search"].work,
            "cli.report_bytes": sum(_report_bytes(o) for o in outcomes if o.op.call is None),
            "trace.overhead_ratio": ratio(traced_wall, untraced_wall),
            "trace.unattributed_s": traced_wall - tracer.attributed(),
        }
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(args.root, "src"))
    import erlab.cli  # noqa: F401  (imports every erlab module)

    run_dir = os.path.join(BENCH_DIR, ".run")
    os.makedirs(run_dir, exist_ok=True)
    # relative, so that reports naming input files do not depend on where
    # the checkout sits
    workdir = os.path.relpath(tempfile.mkdtemp(prefix="work-", dir=run_dir))
    try:
        reference = load_reference()
        workload = Workload(args.workload, args.seed, workdir, reference)
        ready = time.monotonic()
        # the speed just after set-up scales the set-up time to reference speed
        result = {"ready": ready, "speed": SpeedProbe.factor_now()}
        if args.setup_only:
            print(json.dumps(result))
            return 0
        result["env"] = environment(args.root, args.seed)
        if args.trace:
            result.update(traced_run(workload, reference, args, run_dir))
        else:
            result.update(untraced_run(workload, reference, args.seconds))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def untraced_run(workload, reference: dict, seconds: float) -> dict:
    """Timed passes while the next one is expected to end within ``seconds``.

    ``walls`` and ``cpus`` are at the probe's reference speed; the raw
    measurements are kept beside them."""
    start = time.monotonic()
    probe = SpeedProbe()
    run = {"walls": [], "cpus": [], "raw_walls": [], "raw_cpus": [], "attempted": 0, "failures": []}
    while True:
        wall, cpu, outcomes = timed_pass(workload, probe=probe)
        run["walls"].append(probe.normalise(wall))
        run["cpus"].append(probe.normalise(cpu))
        run["raw_walls"].append(wall)
        run["raw_cpus"].append(cpu)
        run["attempted"] += len(outcomes)
        run["failures"] += check(outcomes, reference)
        if time.monotonic() - start + statistics.median(run["raw_walls"]) > seconds:
            return run


def traced_run(workload, reference: dict, args, run_dir: str) -> dict:
    """One untraced and one traced pass; their reports must be identical."""
    wall, cpu, plain = timed_pass(workload)
    tracer = Tracer()
    with installed(tracer):
        traced_wall, _, traced = timed_pass(workload, tracer)
    failures = check(plain, reference) + check(traced, reference)
    failures += [
        f"{a.op.key}: traced report differs from the untraced one"
        for a, b in zip(plain, traced)
        if normalised(a) != normalised(b)
    ]
    if len(plain) != len(traced):
        failures.append("traced pass ran a different number of operations")
    layers = layer_metrics(tracer, traced_wall, wall, traced)
    trace_path = os.path.join(run_dir, f"trace-{args.workload}-seed{args.seed}.json")
    with open(trace_path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "metrics": layers, **tracer.dump()}, fh)
    return {
        "walls": [wall],
        "cpus": [cpu],
        "raw_walls": [wall],
        "raw_cpus": [cpu],
        "attempted": len(plain) + len(traced),
        "failures": failures,
        "layers": layers,
        "trace_file": os.path.relpath(trace_path, args.root),
    }


if __name__ == "__main__":
    sys.exit(main())
