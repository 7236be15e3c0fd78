"""Compare the reports of two checkouts of erlab on a fixed command list.

    python3 scripts/compare_outputs.py PARENT CHANGE

Each checkout runs the same ``er-lab`` commands in-process, from its own
``src``, in a fresh interpreter:

- ``q2`` on the twelve q2-sweep cases and on (3,3,3,3)/6, (4,4,4)/6,
  (5,5,5)/5, (4,3,3,3)/5, the sweep's largest case one level deeper,
  (5,5,3)/7, whose last level has many children, and (5,4,4)/5 and
  (6,4,3)/5, whose optima lie on the last level; and under budgets that
  cut a level: (4,3,3,3)/4 with 5,000 nodes (its last level), (4,3,3)/5
  with 50, (5,4,4)/5 with 24,000 (its last level, after the best rose
  there) and (4,4,3,3)/4 with 30,000 (two tied optima on its cut last
  level)
- ``tables`` in JSON and in tsv
- ``certify --k`` and ``extension --k`` for the 15 solved families of
  ``tables``, and ``extension --k 4,4,4,4 --opt`` on AG(2,3) minus a line
- ``certify --constraint``: (3,3,3,3) with its valid ({3,4}, 3) and (5,3)
  with ({2}, 7), which leaves a GAP; and valid constraints that are not
  built in, whose scans reach levels past 3: (6,5) with ({2}, 6),
  (3,3,3,3) with ({3,4}, 3) and ({4}, 3), and (4,4,4) with ({3}, 4)
- ``lp``: (3,3,3,3) with its built-in constraint, (5,5,4,3,3) bare (five
  colours, so four-row bases), (4,4,4,4) with four constraints and
  (4,3,3,3) with every nonempty T of {2,3,4} at cap 4
- ``symmetrise --input`` on the level-0 patterns of ``SYMMETRISE_INPUTS``:
  exact weights, float weights, a zero-weight vertex and a clone pair
- the ``oracle count`` and ``oracle extremal`` operations of the
  oracle-bruteforce workload (seed 11), ``oracle extremal --n 7 --k 3,3``,
  ``oracle extremal`` at n = 7 with k = (4,3) and (4,4) and at n = 5 with
  k = (3,3,3,3), where the restriction bound leaves few of the classes to
  count, ``oracle count`` on K_7 with k = (4,3), (4,4) and (5,3), and on a
  9-vertex wheel with four chords with k = (4,3): its hub has more earlier
  neighbours than the count's tail, so the tally reads fixed star edges

The command list, AG(2,3) minus a line and the oracle input graphs come
from CHANGE's ``bench/workloads.py``, read without writing anything under
``bench/``; the input files, the symmetrise patterns and K_7 included, go to a
temporary directory that both sides read.  Reports are compared as JSON with their top-level ``timing`` dropped
(``nodes``, ``attachments`` and every other field kept); ``tables`` must be
byte-identical.  Prints one line per command and exits 1 when any report
differs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

EXTRA_Q2 = [("3,3,3,3", 6), ("4,4,4", 6), ("5,5,5", 5), ("4,3,3,3", 5), ("5,5,3", 7), ("5,4,4", 5),
            ("6,4,3", 5)]
BUDGETED_Q2 = [("4,3,3,3", 4, 5000), ("4,3,3", 5, 50), ("5,4,4", 5, 24000), ("4,4,3,3", 4, 30000)]
SEED = 11
LP_COMMANDS = [
    ["certify", "--k", "3,3,3,3", "--constraint", "T=3,4:cap=3"],
    ["certify", "--k", "5,3", "--constraint", "T=2:cap=7"],
    ["certify", "--k", "6,5", "--constraint", "T=2:cap=6"],
    ["certify", "--k", "3,3,3,3", "--constraint", "T=3,4:cap=3", "--constraint", "T=4:cap=3"],
    ["certify", "--k", "4,4,4", "--constraint", "T=3:cap=4"],
    ["lp", "--k", "3,3,3,3"],
    ["lp", "--k", "5,5,4,3,3", "--bare"],
    ["lp", "--k", "4,4,4,4", "--constraint", "T=3,4:cap=3", "--constraint", "T=2:cap=5",
     "--constraint", "T=2,3:cap=4", "--constraint", "T=2,3,4:cap=6"],
    ["lp", "--k", "4,3,3,3"] + [arg for T in ("2", "3", "4", "2,3", "2,4", "3,4", "2,3,4")
                                for arg in ("--constraint", f"T={T}:cap=4")],
]
# counts beyond the workload's six oracle operations
ORACLE_EXTREMAL = [["oracle", "extremal", "--n", str(n), "--k", k]
                   for n, k in [(7, "3,3"), (7, "4,3"), (7, "4,4"), (5, "3,3,3,3")]]
# count inputs (vertices 1-based): K_7, and the wheel with hub 1 on the
# cycle 2..9 with chords 2-4, 4-6, 6-8 and 8-2
ORACLE_GRAPHS = {
    "k7": {"n": 7, "edges": [[u, v] for v in range(2, 8) for u in range(1, v)]},
    "wheel": {"n": 9, "edges": [[1, v] for v in range(2, 10)] + [[v, v + 1] for v in range(2, 9)]
              + [[2, 9], [2, 4], [4, 6], [6, 8], [2, 8]]},
}
ORACLE_COUNTS = [("k7", "4,3"), ("k7", "4,4"), ("k7", "5,3"), ("wheel", "4,3")]
# pattern files in the format of `er-lab verify` (vertices 1-based)
SYMMETRISE_INPUTS = {
    "exact": {"k": [3, 3, 3], "r": 4, "alpha": ["1/3", "1/6", "1/4", "1/4"],
              "pairs": [[1, 2, [1, 2]], [1, 3, [3]], [1, 4, [1]], [2, 3, [2, 3]], [2, 4, []],
                        [3, 4, [1, 2]]]},
    "float": {"k": [3, 3], "r": 4, "alpha": [0.375, 0.125, 0.25, 0.25],
              "pairs": [[1, 2, [1, 2]], [1, 3, [1]], [1, 4, [2]], [2, 3, [2]], [2, 4, [1]],
                        [3, 4, [1, 2]]]},
    "zero_weight": {"k": [3, 3], "r": 3, "alpha": ["1/2", "1/2", "0"],
                    "pairs": [[1, 2, [1, 2]], [1, 3, [1]], [2, 3, [2]]]},
    "clone": {"k": [4, 3], "r": 3, "alpha": ["1/4", "1/2", "1/4"],
              "pairs": [[1, 2, [1, 2]], [1, 3, [1]], [2, 3, [1, 2]]]},
}

# run in each checkout: every argv of the list on stdin through erlab.cli.run,
# its exit code and standard output written as one JSON list
RUNNER = """
import contextlib, io, json, sys
from erlab import cli
out = []
for argv in json.load(sys.stdin):
    text = io.StringIO()
    with contextlib.redirect_stdout(text), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    out.append([code, text.getvalue()])
json.dump(out, sys.stdout)
"""


def commands(change: str, workdir: str) -> list:
    sys.dont_write_bytecode = True  # leave CHANGE's bench/ untouched
    sys.path.insert(0, change)
    from bench import workloads

    argvs = [["q2", "--k", k, "--rmax", str(r)] for k, r in workloads.Q2_CASES + EXTRA_Q2]
    argvs += [["q2", "--k", k, "--rmax", str(r), "--budget", str(b)] for k, r, b in BUDGETED_Q2]
    argvs += [["tables"], ["tables", "--format", "tsv"]]
    for family in workloads.TABLE_FAMILIES:
        k = ",".join(map(str, family))
        argvs += [["certify", "--k", k], ["extension", "--k", k]]
    ag_path = os.path.join(workdir, "ag23_minus_line.json")
    with open(ag_path, "w") as fh:
        json.dump(workloads.AG23_MINUS_LINE, fh)
    argvs.append(["extension", "--k", "4,4,4,4", "--opt", ag_path])
    argvs += LP_COMMANDS
    for name, pattern in SYMMETRISE_INPUTS.items():
        path = os.path.join(workdir, f"symmetrise_{name}.json")
        with open(path, "w") as fh:
            json.dump(pattern, fh)
        argvs.append(["symmetrise", "--input", path])
    oracle = workloads.Workload("oracle-bruteforce", SEED, workdir, reference={})
    argvs += [op.argv for op in oracle.ops] + ORACLE_EXTREMAL
    for name, graph in ORACLE_GRAPHS.items():
        with open(os.path.join(workdir, f"{name}.json"), "w") as fh:
            json.dump(graph, fh)
    return argvs + [["oracle", "count", "--graph", os.path.join(workdir, f"{name}.json"), "--k", k]
                    for name, k in ORACLE_COUNTS]


def run(checkout: str, argvs: list) -> list:
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", RUNNER], input=json.dumps(argvs), env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def comparable(argv: list, code: int, text: str):
    if argv[0] == "tables":
        return code, text
    report = json.loads(text)
    report.pop("timing", None)
    return code, report


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = args
    with tempfile.TemporaryDirectory() as workdir:
        argvs = commands(change, workdir)
        before, after = run(parent, argvs), run(change, argvs)
    differ = 0
    for cmd, old, new in zip(argvs, before, after):
        same = comparable(cmd, *old) == comparable(cmd, *new)
        differ += not same
        print("same   " if same else "DIFFERS", " ".join(cmd))
    print(f"{len(argvs) - differ} of {len(argvs)} reports identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
