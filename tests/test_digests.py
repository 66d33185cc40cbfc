"""Every shipped output, pinned by the SHA-256 in ``digests.json``.

The outputs are regenerated here and each file's digest compared with the
committed one:

- ``demo-<seed>/``: ``run_experiment``'s ``--out`` on the demo's 212
  records, 25 windows per class, at seeds 0 and 5;
- ``synth/``: ``synth --per-class 50 --seed 3 --out``;
- ``sig/``: the ``filter``, ``encode`` and ``features`` outputs of a fixed
  text signal, named as CI's console-script run names them, so CI checks
  its own files against the same digests.

Each runs once with the compiled LZ kernel and once with the Python parse.
An output that moves must update ``digests.json``, and the change must say
which files moved and why. ``filter --response`` is left out: its complex
``exp`` and ``angle`` are not correctly rounded on every host.
"""

import hashlib
import json
import math
from pathlib import Path

import pytest

import ecgsym.features as features
from ecgsym.cli import main
from ecgsym.experiment import ExperimentConfig, run_experiment

from record_pipeline_demo import build_dataset

DIGESTS = Path(__file__).with_name("digests.json")

# the signal CI writes: 720 rows of round(300 sin(pi i / 22.5)), 8 Hz at 360 Hz
SIGNAL = "\n".join(str(round(300 * math.sin(math.pi * i / 22.5))) for i in range(720)) + "\n"


def write_outputs(root: Path) -> None:
    for seed in (0, 5):
        records, sidecar = build_dataset(root / f"data-{seed}", 25, seed)
        out = root / "out" / f"demo-{seed}"
        run_experiment(ExperimentConfig(records=tuple(records), sidecar=sidecar, format="212", out=str(out)))
    out = root / "out"
    assert main(["synth", "--per-class", "50", "--seed", "3", "--out", str(out / "synth")]) == 0
    sig, text = root / "sig.txt", out / "sig"
    sig.write_text(SIGNAL)
    for kind in ("bandpass", "lowpass", "highpass"):
        assert main(["filter", str(sig), "--kind", kind, "--out", str(text / f"filtered-{kind}.txt")]) == 0
    assert main(["filter", str(sig), "--sample-rate", "5000", "--out", str(text / "filtered-5000.txt")]) == 0
    symbols = text / "symbols.txt"
    encode = ["encode", str(sig), "--method", "threshold", "--alphabet", "3", "--deviation", "1/12"]
    assert main([*encode, "--out", str(symbols)]) == 0
    assert main(["features", str(symbols), "--alphabet", "3", "--out", str(text / "features-symbols.txt")]) == 0


@pytest.mark.parametrize("parse", ["kernel", "python"])
def test_outputs_match_their_digests(tmp_path, monkeypatch, parse):
    if parse == "python":
        monkeypatch.setattr(features, "_lz_kernel", lambda: None)
    write_outputs(tmp_path)
    out = tmp_path / "out"
    digests = {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in out.rglob("*")
        if path.is_file()
    }
    pinned = json.loads(DIGESTS.read_text())
    moved = sorted(name for name in digests.keys() | pinned.keys() if digests.get(name) != pinned.get(name))
    assert not moved, f"outputs whose digest differs from {DIGESTS.name}: {moved}"
