#!/usr/bin/env python3
"""Full pipeline demo on generated records.

Synthesizes two rhythm families (a clean 8 Hz oscillation and a broadband
noise process), writes them as 212-format records with a label sidecar,
then runs ingest -> compensated filtering -> every encoder in the default
grid -> features -> overlap reports, and prints the resulting ranking.
"""

import argparse
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from ecgsym.experiment import ExperimentConfig, ranking_table_text, run_experiment
from ecgsym.records import pack_format212

FS = 360.0


def build_dataset(work: Path, windows_per_class: int, seed: int) -> tuple[list[str], str]:
    rng = np.random.default_rng(seed)
    n = 720 * windows_per_class
    t = np.arange(n) / FS
    steady = 400 * np.sin(2 * math.pi * 8.0 * t) + rng.normal(0, 60.0, n)
    # same carrier, but per-window phase jumps, amplitude drift and heavier
    # noise, so the encoders separate the families to different degrees
    erratic = np.concatenate(
        [
            400
            * rng.uniform(0.4, 1.0)
            * np.sin(2 * math.pi * 8.0 * t[:720] + rng.uniform(0, 2 * math.pi))
            + rng.normal(0, 180.0, 720)
            for _ in range(windows_per_class)
        ]
    )
    reference = np.zeros(n, dtype=int)

    work.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, wave in (("steady_rec", steady), ("erratic_rec", erratic)):
        channel0 = np.rint(wave).astype(int).clip(-2048, 2047)
        path = work / f"{name}.dat"
        path.write_bytes(pack_format212([channel0, reference]))
        paths.append(str(path))
    sidecar = work / "labels.csv"
    sidecar.write_text(
        f"steady_rec,0,{n},steady\n" f"erratic_rec,0,{n},erratic\n"
    )
    return paths, str(sidecar)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--work-dir", default="demo_data")
    parser.add_argument("--out", default="demo_results")
    parser.add_argument("--windows-per-class", type=int, default=25)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    records, sidecar = build_dataset(Path(args.work_dir), args.windows_per_class, args.seed)
    config = ExperimentConfig(
        records=tuple(records),
        sidecar=sidecar,
        format="212",
        channel=0,
        out=args.out,
    )
    result = run_experiment(config)

    print(ranking_table_text(result), end="")  # the table `ecgsym run` prints
    print(f"\nclass counts: {result.class_counts}")
    print(f"reports and scatter files: {args.out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
