"""Smoke test of the benchmark at its tiny size: a traced node-repair run
must succeed and check its own outputs.  The harness exits 2 when look-up
repair runs the GF(256) kernel, so this also pins that repair is XOR
only."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tiny_traced_node_repair_run_is_correct():
    res = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         "node-repair", "--seed", "0", "--seconds", "1", "--trace", "1",
         "--tiny"], cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout.splitlines()[-1])["correct"] is True
