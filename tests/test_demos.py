"""The quick demos run as scripts and exit 0, so an API change that breaks
one fails here. Demo 04 trains three toy runs (about 20 s on 2 cores) and is
left out to keep the suite fast."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", ["01_dense_vs_sparse_ffn",
                                  "02_clustering_and_similarity",
                                  "03_schedule_and_flops"])
def test_demo_runs(name, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                            cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
