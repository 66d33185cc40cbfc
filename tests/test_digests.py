"""Every shipped output, pinned by the SHA-256 in ``digests.json``.

The outputs are regenerated here and each file's digest compared with the
committed one:

- ``demo-<seed>/``: ``run_experiment``'s ``--out`` on the demo's 212
  records, 25 windows per class, at seeds 0 and 5;
- ``demo-0-w5/``: the same at 5 windows per class, seed 0;
- ``synth/``: ``synth --per-class 50 --seed 3 --out``;
- ``sig/``: the ``filter``, ``encode`` and ``features`` outputs of the text
  signal ``SIGNAL``, named as CI's console-script step names them, so CI
  checks the installed script's files against the same digests;
- ``filter/<signal>-<kind>.txt``: ``filter --kind <kind> --out`` of the two
  signals of ``write_filter_signals``, for each of the three kinds.

Each runs once with the compiled LZ kernel, which must load where ``cc`` is
on PATH, and once with the Python parse. ``digests.json`` is the one store
of exact output digests. An output that moves must update it:
``python tests/test_digests.py > tests/digests.json`` rewrites it from the
same code, and the change must say which files moved and why. The one
exception is ``filter --response``, pinned in ``test_cli.py``: its complex
``exp`` and ``angle`` come from libm and are not correctly rounded on every
host.
"""

import contextlib
import hashlib
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest

import conftest  # noqa: F401  (puts src/ and scripts/ on the path when run as a script)

import ecgsym.features as features
from ecgsym.cli import main
from ecgsym.experiment import ExperimentConfig, run_experiment

from record_pipeline_demo import build_dataset

DIGESTS = Path(__file__).with_name("digests.json")
KINDS = ("bandpass", "lowpass", "highpass")

# the sig/ signal, which CI's console-script step writes from here too:
# 720 rows of round(300 sin(pi i / 22.5)), 8 Hz at 360 Hz
SIGNAL = "\n".join(str(round(300 * math.sin(math.pi * i / 22.5))) for i in range(720)) + "\n"


def write_filter_signals(root: Path) -> dict[str, Path]:
    """Two 720-sample text signals by name: ``int``, integers with a flat
    stretch, and ``frac``, in steps of 1/64 (not integers, but every partial
    sum is exact, so no output depends on summation order)."""
    ints = (np.arange(720) * 7919) % 1021 - 510
    ints[200:260] = ints[200]
    paths = {}
    for name, samples in (("int", ints), ("frac", (ints * 13 % 4096 - 2048) / 64)):
        paths[name] = root / f"{name}.txt"
        paths[name].write_text("\n".join(repr(float(v)) for v in samples) + "\n")
    return paths


def write_outputs(root: Path) -> None:
    out = root / "out"
    for name, windows, seed in (("demo-0", 25, 0), ("demo-5", 25, 5), ("demo-0-w5", 5, 0)):
        records, sidecar = build_dataset(root / f"data-{name}", windows, seed)
        run_experiment(ExperimentConfig(records=tuple(records), sidecar=sidecar, format="212", out=str(out / name)))
    assert main(["synth", "--per-class", "50", "--seed", "3", "--out", str(out / "synth")]) == 0
    sig, text = root / "sig.txt", out / "sig"
    sig.write_text(SIGNAL)
    for kind in KINDS:
        assert main(["filter", str(sig), "--kind", kind, "--out", str(text / f"filtered-{kind}.txt")]) == 0
    assert main(["filter", str(sig), "--sample-rate", "5000", "--out", str(text / "filtered-5000.txt")]) == 0
    symbols = text / "symbols.txt"
    encode = ["encode", str(sig), "--method", "threshold", "--alphabet", "3", "--deviation", "1/12"]
    assert main([*encode, "--out", str(symbols)]) == 0
    assert main(["features", str(symbols), "--alphabet", "3", "--out", str(text / "features-symbols.txt")]) == 0
    for name, path in write_filter_signals(root).items():
        for kind in KINDS:
            filtered = out / "filter" / f"{name}-{kind}.txt"
            assert main(["filter", str(path), "--kind", kind, "--out", str(filtered)]) == 0


def output_digests(root: Path) -> dict[str, str]:
    """The SHA-256 of each file ``write_outputs(root)`` writes, by its path under ``out/``."""
    write_outputs(root)
    out = root / "out"
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in out.rglob("*")
        if path.is_file()
    }


@pytest.mark.parametrize("parse", ["kernel", "python"])
def test_outputs_match_their_digests(tmp_path, monkeypatch, parse):
    if parse == "python":
        monkeypatch.setattr(features, "_lz_kernel", lambda: None)
    elif shutil.which("cc") is not None:
        assert features._lz_kernel() is not None, "cc is on PATH but the LZ kernel did not load"
    digests = output_digests(tmp_path)
    pinned = json.loads(DIGESTS.read_text())
    moved = sorted(name for name in digests.keys() | pinned.keys() if digests.get(name) != pinned.get(name))
    assert not moved, f"outputs whose digest differs from {DIGESTS.name}: {moved}"


if __name__ == "__main__":
    # prints digests.json as these outputs give it; the commands' own stdout is dropped
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        digests = output_digests(Path(tmp))
    print(json.dumps(digests, indent=2, sort_keys=True))
