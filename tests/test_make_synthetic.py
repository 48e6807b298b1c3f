"""``scripts/make_synthetic.py`` reproduces the committed dataset byte for
byte, whatever BLAS threading the caller's environment asks for."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "data" / "synthetic"
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_regenerates_the_bundled_files_unchanged(tmp_path):
    shutil.copytree(ROOT / "src" / "ebgp", tmp_path / "src" / "ebgp",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "scripts").mkdir()
    shutil.copy(ROOT / "scripts" / "make_synthetic.py", tmp_path / "scripts")
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    subprocess.run([sys.executable, str(tmp_path / "scripts" / "make_synthetic.py")],
                   env=env, check=True, capture_output=True)
    written = tmp_path / "data" / "synthetic"
    assert sorted(p.name for p in written.iterdir()) == sorted(p.name for p in DATA.iterdir())
    for path in DATA.iterdir():
        assert (written / path.name).read_bytes() == path.read_bytes(), path.name
