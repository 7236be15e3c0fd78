"""Compare the reports of two checkouts of erlab on a fixed command list.

    python3 scripts/compare_outputs.py PARENT CHANGE

Each checkout runs the same ``er-lab`` commands in-process, from its own
``src``, in a fresh interpreter:

- ``q2`` on the twelve q2-sweep cases and on (3,3,3,3)/6, (4,4,4)/6 and
  (5,5,5)/5
- ``tables`` in JSON and in tsv
- ``certify --k`` and ``extension --k`` for the 15 solved families of
  ``tables``, and ``extension --k 4,4,4,4 --opt`` on AG(2,3) minus a line
- the ``oracle count`` and ``oracle extremal`` operations of the
  oracle-bruteforce workload (seed 11)

The command list, AG(2,3) minus a line and the oracle input graphs come
from CHANGE's ``bench/workloads.py``, read without writing anything under
``bench/``; the input files go to a temporary directory that both sides
read.  Reports are compared as JSON with their top-level ``timing`` dropped
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

EXTRA_Q2 = [("3,3,3,3", 6), ("4,4,4", 6), ("5,5,5", 5)]
SEED = 11

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
    argvs += [["tables"], ["tables", "--format", "tsv"]]
    for family in workloads.TABLE_FAMILIES:
        k = ",".join(map(str, family))
        argvs += [["certify", "--k", k], ["extension", "--k", k]]
    ag_path = os.path.join(workdir, "ag23_minus_line.json")
    with open(ag_path, "w") as fh:
        json.dump(workloads.AG23_MINUS_LINE, fh)
    argvs.append(["extension", "--k", "4,4,4,4", "--opt", ag_path])
    oracle = workloads.Workload("oracle-bruteforce", SEED, workdir, reference={})
    return argvs + [op.argv for op in oracle.ops]


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
