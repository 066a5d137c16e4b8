#!/usr/bin/env python3
"""Sweep the phase-offset grid and compare descent against the closed form.

Builds a synthetic grid of T-F units whose clean phases are offset from
the (pinned) estimation phase by 0..pi, optimizes the magnitudes under
the complex L2 objective, and prints the converged magnitude next to
max(0, |S| cos(offset)) per offset band. The zero-magnitude regime past
pi/2 is visible directly. Optionally writes a CSV of all units.
"""
import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from magphase.compensation import optimal_magnitude_along_phase
from magphase.optim import (
    QUAD_L2,
    OptimizationProblem,
    Parameterization,
    Targets,
    optimize,
)
from magphase.stft import istft_array
from magphase.types import Spectrogram, StftConfig, TimeSignal


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--units", type=int, default=100)
    ap.add_argument("--steps", type=int, default=400)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--csv", default=None, help="write per-unit results here")
    args = ap.parse_args()

    cfg = StftConfig(18, 9, 18)
    frames = max(2, int(np.ceil(args.units / cfg.num_bins)))
    total = frames * cfg.num_bins
    rng = np.random.default_rng(args.seed)
    mags = rng.uniform(0.5, 2.0, (frames, cfg.num_bins))
    deltas = np.linspace(0.0, np.pi, total).reshape(frames, cfg.num_bins)
    S = Spectrogram(mags * np.exp(1j * deltas), cfg)
    phase = np.zeros((frames, cfg.num_bins))
    n = (frames - 1) * cfg.hop_length_samples
    problem = OptimizationProblem(
        parameterization=Parameterization.FREE_MAG_FIXED_PHASE,
        loss=QUAD_L2,
        targets=Targets(S=S, s=TimeSignal(istft_array(S.data, cfg, n), 8000)),
        cfg=cfg,
        phase_source="custom",
        custom_phase=phase,
        init="zeros",
        steps=args.steps,
    )
    got = optimize(problem).params
    closed = optimal_magnitude_along_phase(QUAD_L2, S, phase)

    print(f"{'offset':>8} {'ratio got':>10} {'ratio closed':>13}")
    for lo in np.arange(0.0, np.pi, np.pi / 8):
        band = (deltas >= lo) & (deltas < lo + np.pi / 8)
        ratio_got = float(np.mean(got[band] / mags[band]))
        ratio_closed = float(np.mean(closed[band] / mags[band]))
        print(f"{lo:8.3f} {ratio_got:10.4f} {ratio_closed:13.4f}")
    print(f"\nmax |optimized - closed form| = {np.max(np.abs(got - closed)):.3e}")

    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("offset_rad,clean_mag,optimized_mag,closed_form_mag\n")
            for d, m, g, c in zip(
                deltas.ravel(), mags.ravel(), got.ravel(), closed.ravel()
            ):
                fh.write(f"{d:.6f},{m:.6f},{g:.6f},{c:.6f}\n")
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
