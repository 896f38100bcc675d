"""The command-line surface, driven in-process.

synth -> offsets --invert (to normalized coordinates) -> offsets and back
-> eval -> camcap -> plot, all under one output directory with manifests
recording seed and config hash.
"""

import tempfile
from pathlib import Path

from trajkit.cli import dispatch

with tempfile.TemporaryDirectory(prefix="trajkit-demo-") as tmp:
    root = Path(tmp)
    print(f"working under {root}")

    scene = root / "scene.tlf"
    steps = [
        ["synth", str(scene), "--kind", "translation", "--vx", "2", "--vy", "0.5",
         "--frames", "16", "--height", "64", "--width", "64", "--out", str(root)],
        ["offsets", "--invert", str(scene), str(root / "norm.tlf"), "--out", str(root)],
        ["offsets", str(root / "norm.tlf"), str(root / "off.tlf"), "--out", str(root)],
        ["offsets", "--invert", str(root / "off.tlf"), str(root / "back.tlf"),
         "--out", str(root)],
        ["eval", str(scene), "--metric", "flowtv", "--out", str(root)],
        ["eval", str(scene), "--metric", "divcurle", "--out", str(root)],
        ["camcap", str(scene), "--out", str(root)],
        ["plot", str(root), "--out", str(root / "figures")],
    ]
    for argv in steps:
        print(f"$ trajkit {' '.join(argv)}")
        code = dispatch(argv)
        assert code == 0, f"exit {code}"

    round_trip = (root / "norm.tlf").read_bytes() == (root / "back.tlf").read_bytes()
    print(f"\noffset round trip bit-identical: {round_trip}")
    print("artifacts:", sorted(p.name for p in root.iterdir()))
    print("figures:", sorted(p.name for p in (root / 'figures').iterdir()))
