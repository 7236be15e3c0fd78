"""Paired benchmark runs of two checkouts, recorded in a BENCH_<n>.json.

    python3 scripts/bench_pairs.py --parent ../parent --change . \
        --workloads q2-sweep,oracle-bruteforce --pairs 10 --seed 11 --out BENCH_2.json

For each workload, ``bench/run.py`` of the parent and of the change run
alternately with tracing off, the parent first in odd pairs and the change
first in even ones; then each side runs once traced.  The record keeps every
run's end-to-end metrics and, per metric, each side's median and quartiles,
the pairs the change wins (ties count for neither), whether a gain is shown
(at least nine tenths of the pairs won and the medians further apart than
the parent's quartile spread), whether the change is worse than its
``BENCHMARK.json`` bound and whether the spread of the runs leaves that
unresolved.  It also keeps nproc and both git revisions.  The file is
rewritten after every run, so an interrupted run keeps what it measured.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_bench(checkout: str, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    env = json.loads(next(line[4:] for line in lines if line.startswith("env ")))
    result = json.loads(lines[-1])
    return {
        "revision": env["git_revision"],
        "nproc": env["nproc"],
        "correct": result["correct"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def summary(parent_runs: list, change_runs: list, spec: dict) -> dict:
    out = {}
    for metric in spec["end_to_end"]:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        p = [run["metrics"][name] for run in parent_runs]
        c = [run["metrics"][name] for run in change_runs]
        pq, cq = statistics.quantiles(p, n=4), statistics.quantiles(c, n=4)
        wins = sum(sign * (b - a) < 0 for a, b in zip(p, c))
        out[name] = {
            "unit": metric["unit"],
            "parent": {"q1": pq[0], "median": pq[1], "q3": pq[2]},
            "change": {"q1": cq[0], "median": cq[1], "q3": cq[2]},
            "change_wins": f"{wins}/{len(p)}",
            "gain_shown": wins >= 0.9 * len(p) and sign * (pq[1] - cq[1]) > pq[2] - pq[0],
            "worse_than_bound": sign * (cq[1] - pq[1]) > metric["bound"] * pq[1],
            # a spread wider than the bound leaves "no worse" unresolved,
            # unless every run of the change beats every run of the parent
            "unresolved": max(pq[2] - pq[0], cq[2] - cq[0]) > metric["bound"] * pq[1]
            and not all(sign * (b - a) < 0 for a in p for b in c),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    record = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            record = json.load(fh)
    record.update({"seed": args.seed, "seconds": spec["run_seconds"], "pairs": args.pairs})
    record.setdefault("workloads", {})

    def save():
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")

    sides = {"parent": args.parent, "change": args.change}
    seconds = spec["run_seconds"]
    for workload in args.workloads.split(","):
        runs = {"parent": [], "change": []}
        entry = record["workloads"][workload] = {"runs": runs}
        for i in range(args.pairs):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                runs[side].append(run_bench(sides[side], workload, args.seed, seconds, 0))
                save()
            print(workload, i + 1, runs["parent"][-1], runs["change"][-1], flush=True)
        entry["summary"] = summary(runs["parent"], runs["change"], spec)
        entry["traced"] = {
            side: run_bench(path, workload, args.seed, seconds, 1) for side, path in sides.items()
        }
        record["nproc"] = runs["change"][0]["nproc"]
        record["revisions"] = {side: runs[side][0]["revision"] for side in sides}
        save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
