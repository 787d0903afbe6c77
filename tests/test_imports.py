"""Importing the package and running the commands that never need scipy
must not load it: its import costs about a second per process."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = r"""
import json
import sys
from pathlib import Path

import noncollide
from noncollide import cli, lgv

cli.build_parser()
work = Path(sys.argv[1])
graph = work / "g.json"
graph.write_text(json.dumps(lgv.walk_graph(2, 0, 2).to_json()))
walk = work / "walk.json"
walk.write_text(json.dumps({"start": [0, 2], "steps": [[-1, 1], [1, 1]], "horizon": 2}))
dyson, matrix = work / "dyson.csv", work / "matrix.csv"
commands = [
    ["count", "--start", "0,2", "--end", "0,2", "--steps", "4"],
    ["schur", "--shape", "2,1", "--points", "1,2,3"],
    ["lgv", "--graph", str(graph), "--sources", "0,0;2,0", "--sinks", "0,2;2,2"],
    ["lgv", "--graph", str(graph), "--sources", "0,0;2,0", "--sinks", "0,2;2,2", "--check-compatibility"],
    ["tableau", "--to", "ssyt", "--in", str(walk)],
    ["sample-walk", "--start", "0,2", "--steps", "3", "--n", "5", "--out", str(work / "w.csv")],
    ["density", "--kind", "km", "--t", "1", "--x", "0,2", "--y", "0.5,1.5"],
    ["density", "--kind", "p", "--t", "1", "--y", "-0.3,0.8"],
    ["density", "--kind", "km", "--t", "1", "--x", "0,2", "--grid", "-1:1:5"],
    ["density", "--kind", "p", "--t", "1", "--grid", "-1:1:5"],
    ["simulate-dyson", "--n", "2", "--t", "1", "--steps", "4", "--paths", "3", "--out", str(dyson)],
    ["simulate-matrix", "--n", "2", "--t", "1", "--steps", "20", "--paths", "10", "--out", str(matrix)],
    ["verify-sde", "--in", str(matrix), "--gamma-steps", "10"],
]
for argv in commands:
    assert cli.run(argv) == 0, argv
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, f"scipy loaded: {loaded[:5]}"
# a command that needs erf still gets it on first use
assert cli.run(["density", "--kind", "survival", "--t", "1", "--x", "0,2"]) == 0
assert "scipy.special" in sys.modules
print("ok")
"""


def test_scipy_free_commands_do_not_import_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().endswith("ok")
