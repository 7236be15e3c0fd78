"""erlab benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload q2-sweep --seed 1 --seconds 28 --trace 0

Each workload runs in a fresh single-threaded Python process
(``worker.py``); set-up is sampled in several more processes.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Exits 2 without a result when the erlab sources are absent.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SETUP_SAMPLES = 4  # set-up-only processes, besides the measured one
DEADLINE_S = 170.0  # the whole run ends within this
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
}


class BenchError(Exception):
    pass


def spawn_worker(args, extra, deadline: float) -> tuple[float, dict]:
    """Run ``worker.py`` to completion; returns (spawn time, its result)."""
    env = dict(os.environ, **PINNED_ENV)
    cmd = [
        sys.executable, os.path.join(BENCH_DIR, "worker.py"), "--root", ROOT,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError("worker exceeded the run deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return spawned, json.loads(lines[-1])


def end_to_end(result: dict, setups: list) -> dict:
    return {
        "wall_s": statistics.median(result["walls"]),
        "cpu_s": statistics.median(result["cpus"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "erlab", "cli.py")):
        print(f"error: no erlab sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        raw_setups, setups = [], []
        for i in range(SETUP_SAMPLES + 1):  # the last process also measures
            spawned, result = spawn_worker(args, ["--setup-only"] if i < SETUP_SAMPLES else [], deadline)
            raw_setups.append(result["ready"] - spawned)
            setups.append(raw_setups[-1] * result["speed"])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    measured = result["layers"] if args.trace else end_to_end(result, setups)
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    failures = result["failures"]
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "env": result["env"],
        "pass_walls_s": result["walls"],
        "pass_cpus_s": result["cpus"],
        "pass_raw_walls_s": result["raw_walls"],
        "pass_raw_cpus_s": result["raw_cpus"],
        "setups_s": setups,
        "raw_setups_s": raw_setups,
        "fail_ratio": len(failures) / result["attempted"],
        "failures": failures[:20],
        "metrics": metrics,
    }
    with open(os.path.join(BENCH_DIR, ".run", f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print("env " + json.dumps(result["env"], sort_keys=True))
    for failure in failures[:20]:
        print("FAILED " + failure)
    if not args.trace:
        for name, metric in metrics.items():
            print(f"{name} {metric['value']:.6g} {metric['unit']}")
        print(f"raw_wall_s {statistics.median(result['raw_walls']):.6g} s (unnormalised)")
        print(f"raw_cpu_s {statistics.median(result['raw_cpus']):.6g} s (unnormalised)")
        print(f"raw_setup_s {statistics.median(raw_setups):.6g} s (unnormalised)")
    print(f"fail_ratio {record['fail_ratio']:.6g} ({len(failures)}/{result['attempted']})")
    print(json.dumps({
        "correct": not failures,
        "attempted": result["attempted"],
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
