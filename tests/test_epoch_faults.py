"""The per-epoch fault report prints one well-formed line per fit."""

import os
import re
import subprocess
import sys
from pathlib import Path

from d2moe.graph import SbmSpec, generate_sbm, split_nodes, write_graph

ROOT = Path(__file__).resolve().parent.parent
LINE = re.compile(r"fit=(\d+) faults_p50=\d+(\.5)? faults_max=\d+ share_over_100=[01]\.\d{3} "
                  r"epoch_ms_p50=\d+\.\d maxrss_mb=\d+\.\d")


def test_one_line_per_fit(tmp_path):
    g = generate_sbm(SbmSpec(n=60, classes=3, dim=5, p_in=0.2, p_out=0.05, signal=2.0, seed=1))
    write_graph(split_nodes(g, (0.5, 0.25, 0.25), seed=2), tmp_path)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "epoch_faults.py"), str(tmp_path),
         "--hidden", "8", "--experts", "3", "--epochs", "4", "--fits", "2", "--seed", "0"],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 2, done.stdout
    for i, line in enumerate(lines):
        match = LINE.fullmatch(line)
        assert match, line
        assert int(match[1]) == i
