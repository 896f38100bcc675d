"""The quick demos run to completion against the current sources.

Demo 03 trains a VAE and a flow model for minutes, so it is left out of the
runs; every demo's `trajkit` imports are still checked.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
QUICK_DEMOS = ["01_offset_encoding.py", "02_consistency_regularizer.py",
               "04_motion_diagnostics.py", "05_camera_captions.py", "06_cli_pipeline.py"]


@pytest.mark.parametrize("demo", QUICK_DEMOS)
def test_demo_exits_0_and_leaves_no_temp_files(demo, tmp_path):
    work, tmp = tmp_path / "work", tmp_path / "tmp"
    work.mkdir()
    tmp.mkdir()
    env = dict(os.environ, TMPDIR=str(tmp),
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=work, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert list(tmp.iterdir()) == []



@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_trajkit_imports_exist(demo):
    """Each `from trajkit... import name` of a demo names a module attribute
    or a submodule, so a renamed or removed name fails here in milliseconds."""
    for node in ast.walk(ast.parse((ROOT / "demos" / demo).read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "trajkit":
            module = importlib.import_module(node.module)
            for alias in node.names:
                if not hasattr(module, alias.name):  # else a submodule, or ModuleNotFoundError
                    importlib.import_module(f"{node.module}.{alias.name}")
