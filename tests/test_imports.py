"""What `import erlab.cli` and each command load, in a fresh interpreter so
that the modules earlier tests imported do not count."""

import json
import os
import subprocess
import sys

from erlab import cli
from erlab.graphs import graph_to_json, turan_graph

# prints which erlab modules the import left out and, after the import and
# after each command, the libraries outside the standard library and erlab
# that it loaded
PROBE = """
import contextlib, io, json, pkgutil, sys
before = set(sys.modules)
import erlab.cli

def libraries():
    new = {name.partition(".")[0] for name in set(sys.modules) - before}
    return sorted(new - set(sys.stdlib_module_names) - {"erlab"})

out = {"missing": sorted({f"erlab.{m.name}" for m in pkgutil.iter_modules(erlab.__path__)} - set(sys.modules)),
       "loaded": [libraries()]}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = erlab.cli.run(argv)
    out["loaded"].append(libraries() if code == 0 else f"exit {code}")
print(json.dumps(out))
"""


def test_import_loads_every_module_and_numpy_only_for_kkt_solves(tmp_path):
    graph = tmp_path / "k22.json"
    graph.write_text(json.dumps(graph_to_json(turan_graph(2, 4))))
    commands = [
        ["certify", "--k", "3,3"],
        ["capacity", "--graph", str(graph), "--k", "3"],
        ["oracle", "extremal", "--n", "4", "--k", "3,3"],
        ["q2", "--k", "3,3", "--rmax", "3"],
    ]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(commands)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120, check=True,
    )
    out = json.loads(proc.stdout)
    assert out["missing"] == []
    # the import, certify, capacity and oracle load no library; q2 solves
    # KKT systems, for which numpy is loaded
    assert out["loaded"] == [[], [], [], [], ["numpy"]]
