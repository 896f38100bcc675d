"""The bit-identity digest (tests/digest.py) is deterministic in one process,
and the same at one and at two BLAS threads.  Its value is not pinned: a
change that alters floats on purpose moves it."""

import os
import subprocess
import sys
from pathlib import Path

import digest

ROOT = Path(__file__).resolve().parents[1]


def test_two_calls_in_one_process_agree():
    first = digest.parts()
    assert len(first) == 18 and all(len(d) == 16 for d in first.values())
    assert digest.parts() == first


def test_one_and_two_blas_threads_agree():
    """Seeded training, sampling and analysis give the same bytes whatever
    OpenBLAS's thread count, which is set before numpy loads."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    one, two = (subprocess.run([sys.executable, str(ROOT / "tests" / "digest.py")],
                               env={**os.environ, "PYTHONPATH": path,
                                    "OPENBLAS_NUM_THREADS": threads},
                               capture_output=True, text=True, timeout=300)
                for threads in ("1", "2"))
    assert one.returncode == 0 and two.returncode == 0, one.stderr + two.stderr
    assert len(one.stdout.splitlines()) == 19 and one.stdout == two.stdout
