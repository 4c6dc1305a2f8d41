"""The program runs without scipy: annotating, evaluating and labelling the
components of a mask import nothing of it. scipy is needed by the tests'
oracles only."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import vidannot

SRC = Path(vidannot.__file__).resolve().parent.parent

# Runs in a fresh interpreter in which any import of scipy fails.
SCRIPT = """
import json, sys
sys.modules["scipy"] = None

import numpy as np
from vidannot.cli import main
from vidannot.geometry import BinaryMask, mask_to_polygon

out, cfg = sys.argv[1], sys.argv[2]
assert main(["annotate", "--config", cfg, "--out", out, "--seq", "s"]) == 0
assert main(["simulate", "--config", cfg, "--out", out, "--seq", "s"]) == 0
assert main(["evaluate", "--pred", out + "/s_track.txt", "--gt", out + "/s_gt.txt",
             "--seq", "s", "--out", out]) == 0

# Two blobs: the outline is the larger one's, found by the union-find path.
g = np.zeros((12, 16), dtype=bool)
g[1:4, 1:4] = True
g[5:11, 6:14] = True
p = mask_to_polygon(BinaryMask(g))
assert p.vertices.min(axis=0).tolist() == [6.0, 5.0], p.vertices
assert p.vertices.max(axis=0).tolist() == [13.0, 10.0], p.vertices
loaded = [n for n, m in sys.modules.items() if m is not None and n.split(".")[0] == "scipy"]
print(json.dumps(loaded))
"""


def test_annotate_evaluate_and_labelling_run_without_scipy(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "world": {
            "frame_width": 160,
            "frame_height": 120,
            "num_objects": 3,
            "num_frames": 12,
            "velocities": [[0.3, 0.1], [-0.2, 0.2], [0.5, -0.4]],
            "rng_seed": 5,
            "occlusion_enabled": True,
        },
    }))
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path / "out"), str(cfg)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []
    assert (tmp_path / "out" / "s_metrics.csv").exists()
